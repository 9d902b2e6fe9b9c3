"""Batch command-line interface.

    blasius-pinn <mode> --config <path> [--seed N] [--out DIR]

Modes: train, solve-oracle, compare, probe-negative, export.
Each mode computes and checks everything it reports, then returns its
output files as (path, writer) pairs and its `ok` line.  Only then does main
write the files: it stages each one beside its target and renames them only
once the last is written, so a failed check or a failed write leaves none of
them and never a truncated one.  A run whose outputs name one file twice, or
the checkpoint it read, is a config error.  Exit codes: 0 success, 2 config
error, 3 numerical divergence, 4 I/O failure.
"""

from __future__ import annotations

import argparse
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
    """Create the new file `path`, its directory if need be, and fill it
    with write_fn(path); remove it if write_fn fails.

    open(path, "x") creates it with the mode a plain open() gives (0666 less
    the umask) and never takes over a file that exists.  _write_all stages
    each output through one call; perfbench/spans.py wraps it by this name.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    open(path, "x").close()
    try:
        write_fn(path)
    except BaseException:
        os.unlink(path)
        raise


def _check_targets(files, source: str) -> None:
    """Raise ConfigError if two of the files' paths, or one of them and the
    input file `source` (none if empty), resolve to one file."""
    named = {os.path.realpath(source): "paths.checkpoint_in"} if source else {}
    for path, _ in files:
        real = os.path.realpath(path)
        if real in named:
            raise ConfigError(f"output {path} is the same file as {named[real]}")
        named[real] = f"output {path}"


def _write_all(files) -> None:
    """Stage each file beside its target through _atomic, then rename the
    staged files onto their targets; on any failure remove the staged files
    not yet renamed.  A target that is a directory, or whose path passes
    through a missing one (missing/../x, so not normalised), fails while
    staging, before any rename."""
    staged = []
    try:
        for path, writer in files:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            tmp = os.path.join(os.path.dirname(path), f".tmp-{os.getpid()}-{os.path.basename(path)}")
            _atomic(tmp, writer)
            staged.append(tmp)
        for tmp, (path, _) in zip(staged, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
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


def _table_files(paths: PathsSpec, table: SolutionTable, title: str) -> list:
    """The table as paths.csv_out, and as an SVG plot if paths.plot_out is
    set.  Raises DivergenceError if the plot is set and the table cannot be
    plotted."""
    files = [(paths.csv_out, table.to_csv)]
    if paths.plot_out:
        try:
            plot_limits(table.eta, solution_curves(table))
        except ValueError as err:
            raise DivergenceError(f"cannot plot the table: {err}") from err
        files.append((paths.plot_out, lambda tmp: plot_solution_table(table, tmp, title=title)))
    return files


def _cmd_train(cfg: RunConfig) -> tuple[list, str]:
    p, report = train(cfg.network, cfg.adam, cfg.lbfgs, cfg.grid)
    table = tabulate(p, cfg.grid.points)
    losses = [(f"loss_{k}", getattr(report.final, k))
              for k in ("ode", "init", "boundary", "pin", "total")]
    fields = [("seed", report.seed), ("adam_steps", report.adam_steps),
              ("lbfgs_iters", len(report.lbfgs_history)), ("lbfgs_status", report.lbfgs_status),
              *losses, ("best_loss", report.best_loss),
              ("wall_time_s", f"{report.wall_time_s:.3f}")]
    curve = [(f"adam,{i}", f) for i, f in enumerate(report.adam_curve)]
    curve += [(f"lbfgs,{it}", f) for it, f, _, _ in report.lbfgs_history]
    files = [
        (cfg.paths.checkpoint_out, lambda tmp: save_checkpoint(tmp, cfg.network, p)),
        (cfg.paths.report_out, lambda tmp: _write_pairs(tmp, fields, ": ")),
        (cfg.paths.curve_out, lambda tmp: _write_pairs(tmp, curve, ",", "phase,step,loss\n")),
        *_table_files(cfg.paths, table, "PINN solution"),
    ]
    return files, (f"ok mode=train loss_total={report.final.total:.6g} "
                   f"lbfgs_status={report.lbfgs_status} seed={cfg.network.seed}")


def _cmd_solve_oracle(cfg: RunConfig) -> tuple[list, str]:
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
    return net, p


def _cmd_compare(cfg: RunConfig) -> tuple[list, str]:
    _, p = _require_checkpoint(cfg)
    res = shoot(h=cfg.oracle.h, eta_max=cfg.oracle.eta_max)
    rep = compare(p, res.table)
    pairs = asdict(rep).items()
    return ([(cfg.paths.csv_out, lambda tmp: _write_pairs(tmp, pairs, ",", "field,value\n"))],
            f"ok mode=compare wall_curvature_pinn={rep.wall_curvature_pinn:.6g} "
            f"max_abs_err_f={rep.max_abs_err_f:.3g}")


def _cmd_probe_negative(cfg: RunConfig) -> tuple[list, str]:
    _, p_prev = _require_checkpoint(cfg)
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
    files = [
        (cfg.paths.checkpoint_out, lambda tmp: save_checkpoint(tmp, cfg.network, p_ext)),
        *_table_files(cfg.paths, table, "Negative-axis extension"),
        (cfg.paths.report_out, lambda tmp: _write_pairs(tmp, pairs, ",", "field,value\n")),
    ]
    onset = "none" if sing.onset_eta is None else f"{sing.onset_eta:.4f}"
    pole = "none" if sing.pole_eta is None else f"{sing.pole_eta:.4f}"
    blowup = "none" if blowup_eta is None else f"{blowup_eta:.5f}"
    return files, (f"ok mode=probe-negative onset_eta={onset} pole_eta={pole} "
                   f"oracle_blowup_eta={blowup} final_loss={sing.final_loss:.6g} "
                   f"lbfgs_status={sing.report.lbfgs_status}")


def _cmd_export(cfg: RunConfig) -> tuple[list, str]:
    _, p = _require_checkpoint(cfg)
    table = tabulate(p, cfg.grid.points)
    return _table_files(cfg.paths, table, "PINN solution"), f"ok mode=export rows={len(table)}"


_READS_CHECKPOINT = ("compare", "probe-negative", "export")   # the modes that call _require_checkpoint

_COMMANDS = {
    "train": _cmd_train,
    "solve-oracle": _cmd_solve_oracle,
    "compare": _cmd_compare,
    "probe-negative": _cmd_probe_negative,
    "export": _cmd_export,
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
        # an overflow ends in DivergenceError, which reports it: numpy's
        # warnings on the way there would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            files, summary = _COMMANDS[cfg.mode](cfg)
            # written only once every computation and check of the mode has passed
            _check_targets(files, cfg.paths.checkpoint_in if cfg.mode in _READS_CHECKPOINT else "")
            _write_all(files)
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
