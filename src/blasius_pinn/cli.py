"""Batch command-line interface.

    blasius-pinn <mode> --config <path> [--seed N] [--out DIR]

Modes: train, solve-oracle, compare, probe-negative, export.
A table declares the files each mode reads and writes, checked before any
compute: outputs naming one file twice, or the checkpoint read, are a config
error.  The mode computes and checks everything it reports, then returns a
writer per output and its `ok` line.  Then main stages each file beside its
target and renames them only once the last is written, so a failed check or a
failed write leaves none of them, never a truncated one and no directory that
staging made.  Exit codes: 0 success, 2 config error, 3 numerical divergence,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .analysis import TABULATE_BLOCK, compare, probe_negative, tabulate
from .config import MODES, ConfigError, PathsSpec, RunConfig, load_config, replace_section
from .grad import DivergenceError
from .network import check_workspace, load_checkpoint, save_checkpoint
from .optim import train
from .oracle import BLOWUP_H, SolutionTable, backward_blowup, shoot
from .plotting import plot_limits, plot_solution_table, solution_curves


def _atomic(path, write_fn):
    """Create the new file `path` and fill it with write_fn(path); remove it
    if write_fn fails.

    open(path, "x") creates it with the mode a plain open() gives (0666 less
    the umask) and never takes over a file that exists.  _write_all stages
    each output through one call; perfbench/spans.py wraps it by this name.
    """
    open(path, "x").close()
    try:
        write_fn(path)
    except BaseException:
        os.unlink(path)
        raise


def _make_parents(path, made: list) -> None:
    """Make the missing directories above `path`, shallowest first, and
    append to `made` each one that this call made; a directory that another
    process makes in between is left to it."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.exists(parent):
        _make_parents(parent, made)
        try:
            os.mkdir(parent)
            made.append(parent)
        except FileExistsError:
            pass


def _check_targets(paths, source: str) -> None:
    """Raise ConfigError if two of the output paths, or one of them and the
    input file `source` (none if empty), resolve to one file, and
    IsADirectoryError if one of them is a directory."""
    named = {os.path.realpath(source): "paths.checkpoint_in"} if source else {}
    for path in paths:
        real = os.path.realpath(path)
        if real in named:
            raise ConfigError(f"output {path} is the same file as {named[real]}")
        named[real] = f"output {path}"
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _write_all(files) -> None:
    """Stage each file beside its target through _atomic, as .tmp-<pid>-<k>
    for the k-th file, then rename the staged files onto their targets; on any
    failure remove the staged files not yet renamed and the empty directories
    that staging made, deepest first.  A target whose path passes through a
    missing directory (missing/../x, so not normalised) fails while staging."""
    staged, made = [], []
    try:
        for k, (path, writer) in enumerate(files):
            tmp = os.path.join(os.path.dirname(path), f".tmp-{os.getpid()}-{k}")
            _make_parents(tmp, made)
            _atomic(tmp, writer)
            staged.append(tmp)
        for tmp, (path, _) in zip(staged, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for parent in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(parent)
        raise


def _write_pairs(path, pairs, sep: str, header: str = "") -> None:
    """The header, then one `key<sep>value` line per pair: a float value as
    '%.17g', None as nan and anything else as str gives it."""
    with open(path, "w") as fh:
        fh.write(header)
        for key, value in pairs:
            if value is None:
                value = "nan"
            elif isinstance(value, float):
                value = "%.17g" % value
            fh.write(f"{key}{sep}{value}\n")


def _table_files(paths: PathsSpec, table: SolutionTable, title: str) -> dict:
    """Writers of the table as paths.csv_out, and as an SVG plot if
    paths.plot_out is set.  Raises DivergenceError if the plot is set and the
    table cannot be plotted."""
    files = {"csv_out": table.to_csv}
    if paths.plot_out:
        try:
            plot_limits(table.eta, solution_curves(table))
        except ValueError as err:
            raise DivergenceError(f"cannot plot the table: {err}") from err
        files["plot_out"] = lambda tmp: plot_solution_table(table, tmp, title=title)
    return files


def _cmd_train(cfg: RunConfig, _) -> tuple[dict, str]:
    p, report = train(cfg.network, cfg.adam, cfg.lbfgs, cfg.grid)
    table = tabulate(p, cfg.grid.points)
    # a Blasius profile has f'' > 0 everywhere: a run that ends with
    # f''(eta0) <= 0 found some other state, and says so without failing
    fpp0 = float(table.fpp[0])
    profile = "blasius" if fpp0 > 0.0 else "not_blasius"
    losses = [(f"loss_{k}", getattr(report.final, k))
              for k in ("ode", "init", "boundary", "pin", "total")]
    fields = [("seed", report.seed), ("adam_steps", report.adam_steps),
              ("lbfgs_iters", len(report.lbfgs_history)), ("lbfgs_status", report.lbfgs_status),
              *losses, ("best_loss", report.best_loss),
              ("wall_time_s", f"{report.wall_time_s:.3f}"), ("fpp0", fpp0), ("profile", profile)]
    curve = [(f"adam,{i}", f) for i, f in enumerate(report.adam_curve)]
    curve += [(f"lbfgs,{it}", f) for it, f, _, _ in report.lbfgs_history]
    files = {
        "checkpoint_out": lambda tmp: save_checkpoint(tmp, cfg.network, p),
        "report_out": lambda tmp: _write_pairs(tmp, fields, ": "),
        "curve_out": lambda tmp: _write_pairs(tmp, curve, ",", "phase,step,loss\n"),
        **_table_files(cfg.paths, table, "PINN solution"),
    }
    return files, (f"ok mode=train loss_total={report.final.total:.6g} "
                   f"lbfgs_status={report.lbfgs_status} profile={profile} seed={cfg.network.seed}")


def _cmd_solve_oracle(cfg: RunConfig, _) -> tuple[dict, str]:
    res = shoot(h=cfg.oracle.h, eta_max=cfg.oracle.eta_max)
    return (_table_files(cfg.paths, res.table, "Shooting solution"),
            f"ok mode=solve-oracle s_star={res.s_star:.9g} h={res.h:g} "
            f"iterations={res.iterations}")


def _require_checkpoint(cfg: RunConfig):
    if not cfg.paths.checkpoint_in:
        raise ConfigError("paths.checkpoint_in is required for this mode")
    try:
        net, p = load_checkpoint(cfg.paths.checkpoint_in)
        # tabulate's block is the largest pass a loaded network makes
        check_workspace(net, TABULATE_BLOCK)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return p


def _cmd_compare(cfg: RunConfig, p) -> tuple[dict, str]:
    res = shoot(h=cfg.oracle.h, eta_max=cfg.oracle.eta_max)
    rep = compare(p, res.table)
    pairs = asdict(rep).items()
    return ({"csv_out": lambda tmp: _write_pairs(tmp, pairs, ",", "field,value\n")},
            f"ok mode=compare wall_curvature_pinn={rep.wall_curvature_pinn:.6g} "
            f"max_abs_err_f={rep.max_abs_err_f:.3g}")


def _cmd_probe_negative(cfg: RunConfig, p_prev) -> tuple[dict, str]:
    p_ext, sing = probe_negative(p_prev, cfg.network, cfg.adam, cfg.lbfgs, cfg.probe)
    blowup_eta = backward_blowup(sing.pin_value, BLOWUP_H)
    table = tabulate(p_ext, cfg.probe.points)
    pairs = [
        ("pin_value", sing.pin_value),
        ("max_abs_f_edge", sing.max_abs_f_edge),
        ("max_abs_residual_edge", sing.max_abs_residual_edge),
        ("onset_eta", sing.onset_eta),
        ("median_fppp", sing.median_fppp),
        ("pole_eta", sing.pole_eta),
        ("final_loss", sing.final_loss),
        ("oracle_blowup_eta", blowup_eta),
        ("converged", int(sing.converged)),
        ("lbfgs_status", sing.report.lbfgs_status),
    ]
    files = {
        "checkpoint_out": lambda tmp: save_checkpoint(tmp, cfg.network, p_ext),
        "report_out": lambda tmp: _write_pairs(tmp, pairs, ",", "field,value\n"),
        **_table_files(cfg.paths, table, "Negative-axis extension"),
    }
    onset = "none" if sing.onset_eta is None else f"{sing.onset_eta:.4f}"
    pole = "none" if sing.pole_eta is None else f"{sing.pole_eta:.4f}"
    blowup = "none" if blowup_eta is None else f"{blowup_eta:.5f}"
    return files, (f"ok mode=probe-negative onset_eta={onset} pole_eta={pole} "
                   f"oracle_blowup_eta={blowup} final_loss={sing.final_loss:.6g} "
                   f"lbfgs_status={sing.report.lbfgs_status}")


def _cmd_export(cfg: RunConfig, p) -> tuple[dict, str]:
    table = tabulate(p, cfg.grid.points)
    return _table_files(cfg.paths, table, "PINN solution"), f"ok mode=export rows={len(table)}"


# mode: its command, whether it reads paths.checkpoint_in (then passed to the
# command as parameters) and the PathsSpec fields it writes, in staging order
_MODES = {
    "train": (_cmd_train, False, ("checkpoint_out", "report_out", "curve_out", "csv_out", "plot_out")),
    "solve-oracle": (_cmd_solve_oracle, False, ("csv_out", "plot_out")),
    "compare": (_cmd_compare, True, ("csv_out",)),
    "probe-negative": (_cmd_probe_negative, True, ("checkpoint_out", "csv_out", "plot_out", "report_out")),
    "export": (_cmd_export, True, ("csv_out", "plot_out")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blasius-pinn", description=__doc__)
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="override network.seed")
    parser.add_argument("--out", default=".", help="directory for relative output paths")
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace_section(cfg, "network", seed=args.seed)
        cfg = replace(cfg, mode=args.mode, paths=cfg.paths.under(args.out))
        command, reads, fields = _MODES[cfg.mode]
        targets = {f: getattr(cfg.paths, f) for f in fields if getattr(cfg.paths, f)}
        # an overflow ends in DivergenceError, which reports it: numpy's
        # warnings on the way there would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            _check_targets(targets.values(), cfg.paths.checkpoint_in if reads else "")
            writers, summary = command(cfg, _require_checkpoint(cfg) if reads else None)
            _write_all([(path, writers[f]) for f, path in targets.items()])
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"error: divergence: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
        return 4
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
