"""Batch command-line interface.

    blasius-pinn <mode> --config <path> [--seed N] [--out DIR]

Modes: train, solve-oracle, compare, probe-negative, export.
All artifacts are written atomically (temp file + rename), so a failed run
never leaves truncated outputs.  Exit codes: 0 success, 2 config error,
3 numerical divergence, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import asdict, replace

from .analysis import compare, probe_negative, tabulate
from .config import MODES, ConfigError, PathsSpec, RunConfig, load_config, replace_section
from .grad import DivergenceError
from .network import load_checkpoint, save_checkpoint
from .optim import TrainingReport, train
from .oracle import SolutionTable, backward_blowup, shoot
from .plotting import plot_solution_table


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic(path, write_fn):
    """Write via a temp file in the target directory, then rename.

    mkstemp creates the temp file with mode 0600; it is given the mode a
    plain open() would have given it (0666 less the umask) before the rename.
    """
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    os.close(fd)
    try:
        write_fn(tmp)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_training_report(path, report: TrainingReport) -> None:
    lines = [
        f"seed: {report.seed}",
        f"adam_steps: {report.adam_steps}",
        f"lbfgs_iters: {len(report.lbfgs_history)}",
        f"lbfgs_status: {report.lbfgs_status}",
        f"loss_ode: {report.final.ode:.17g}",
        f"loss_init: {report.final.init:.17g}",
        f"loss_boundary: {report.final.boundary:.17g}",
        f"loss_pin: {report.final.pin:.17g}",
        f"loss_total: {report.final.total:.17g}",
        f"best_loss: {report.best_loss:.17g}",
        f"wall_time_s: {report.wall_time_s:.3f}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_loss_curve(path, report: TrainingReport) -> None:
    with open(path, "w") as fh:
        fh.write("phase,step,loss\n")
        for i, f in enumerate(report.adam_curve):
            fh.write(f"adam,{i},{f:.17g}\n")
        for it, f, gnorm, step in report.lbfgs_history:
            fh.write(f"lbfgs,{it},{f:.17g}\n")


def _write_table(paths: PathsSpec, table: SolutionTable, title: str) -> None:
    """The table as paths.csv_out, and as an SVG plot if paths.plot_out is set."""
    _atomic(paths.csv_out, table.to_csv)
    if paths.plot_out:
        _atomic(paths.plot_out, lambda tmp: plot_solution_table(table, tmp, title=title))


def _cmd_train(cfg: RunConfig) -> int:
    p, report = train(cfg.network, cfg.adam, cfg.lbfgs, cfg.grid)
    table = tabulate(p, cfg.grid.points)     # before any write: it may diverge
    _atomic(cfg.paths.checkpoint_out, lambda tmp: save_checkpoint(tmp, cfg.network, p))
    _atomic(cfg.paths.report_out, lambda tmp: _write_training_report(tmp, report))
    _atomic(cfg.paths.curve_out, lambda tmp: _write_loss_curve(tmp, report))
    _write_table(cfg.paths, table, "PINN solution")
    print(f"ok mode=train loss_total={report.final.total:.6g} "
          f"lbfgs_status={report.lbfgs_status} seed={cfg.network.seed}")
    return 0


def _cmd_solve_oracle(cfg: RunConfig) -> int:
    res = shoot(h=cfg.oracle.h, eta_max=cfg.oracle.eta_max)
    _write_table(cfg.paths, res.table, "Shooting solution")
    print(f"ok mode=solve-oracle s_star={res.s_star:.9f} h={res.h:g} "
          f"iterations={res.iterations}")
    return 0


def _require_checkpoint(cfg: RunConfig):
    if not cfg.paths.checkpoint_in:
        raise ConfigError("paths.checkpoint_in is required for this mode")
    try:
        return load_checkpoint(cfg.paths.checkpoint_in)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _write_kv_csv(path, pairs) -> None:
    with open(path, "w") as fh:
        fh.write("field,value\n")
        for k, v in pairs:
            fh.write(f"{k},{v:.17g}\n" if isinstance(v, float) else f"{k},{v}\n")


def _cmd_compare(cfg: RunConfig) -> int:
    _, p = _require_checkpoint(cfg)
    res = shoot(h=cfg.oracle.h, eta_max=cfg.oracle.eta_max)
    rep = compare(p, res.table)
    _atomic(cfg.paths.csv_out, lambda tmp: _write_kv_csv(tmp, asdict(rep).items()))
    print(f"ok mode=compare wall_curvature_pinn={rep.wall_curvature_pinn:.6f} "
          f"max_abs_err_f={rep.max_abs_err_f:.3g}")
    return 0


def _cmd_probe_negative(cfg: RunConfig) -> int:
    _, p_prev = _require_checkpoint(cfg)
    p_ext, sing = probe_negative(p_prev, cfg.network, cfg.adam, cfg.lbfgs, cfg.probe)
    blowup_eta = backward_blowup(sing.pin_value, cfg.oracle.blowup_h)
    table = tabulate(p_ext, cfg.probe.points)   # before any write: it may diverge
    _atomic(cfg.paths.checkpoint_out, lambda tmp: save_checkpoint(tmp, cfg.network, p_ext))
    _write_table(cfg.paths, table, "Negative-axis extension")
    pairs = [
        ("pin_value", sing.pin_value),
        ("max_abs_f_edge", sing.max_abs_f_edge),
        ("max_abs_residual_edge", sing.max_abs_residual_edge),
        ("onset_eta", sing.onset_eta if sing.onset_eta is not None else float("nan")),
        ("median_fppp", sing.median_fppp),
        ("pole_eta", sing.pole_eta if sing.pole_eta is not None else float("nan")),
        ("final_loss", sing.final_loss),
        ("oracle_blowup_eta", blowup_eta if blowup_eta is not None else float("nan")),
        ("converged", int(sing.converged)),
        ("lbfgs_status", sing.report.lbfgs_status),
    ]
    _atomic(cfg.paths.report_out, lambda tmp: _write_kv_csv(tmp, pairs))
    onset = "none" if sing.onset_eta is None else f"{sing.onset_eta:.4f}"
    pole = "none" if sing.pole_eta is None else f"{sing.pole_eta:.4f}"
    blowup = "none" if blowup_eta is None else f"{blowup_eta:.5f}"
    print(f"ok mode=probe-negative onset_eta={onset} pole_eta={pole} "
          f"oracle_blowup_eta={blowup} final_loss={sing.final_loss:.6g} "
          f"lbfgs_status={sing.report.lbfgs_status}")
    return 0


def _cmd_export(cfg: RunConfig) -> int:
    _, p = _require_checkpoint(cfg)
    table = tabulate(p, cfg.grid.points)
    _write_table(cfg.paths, table, "PINN solution")
    print(f"ok mode=export rows={len(table)}")
    return 0


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
        return _COMMANDS[cfg.mode](cfg)
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"error: divergence: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
