"""Test-side helpers for the shooting oracle: the empirical convergence order
of its RK4 scheme, a fine-step-only blow-up search, and a reader for the
solution CSV the CLI writes."""

import math

import numpy as np

from blasius_pinn.oracle import BLOWUP_LIMIT, ETA_FLOOR, SolutionTable, _rk4_step


def order_slope(s: float, hs=(4e-3, 2e-3, 1e-3), eta_max: float = 8.0) -> float:
    """Empirical convergence order of the RK4 scheme, from errors in f'(eta_max).

    At these step sizes the truncation error in f'(eta_max) is below the
    float64 roundoff floor (~1e-14), so the recurrence is evaluated in
    extended precision (80-bit long double) against a 5x-finer reference;
    this isolates the discretization error the slope is about.
    """
    ld = np.longdouble

    def run(h: float) -> float:
        n = round(eta_max / h)
        hh = ld(eta_max) / ld(n)
        f, fp, fpp = ld(0), ld(0), ld(repr(s))
        for _ in range(n):
            f, fp, fpp = _rk4_step(f, fp, fpp, hh)
        return fp

    ref = run(min(hs) / 5.0)
    errs = [abs(float(run(h) - ref)) for h in hs]
    slope, _ = np.polyfit(np.log(list(hs)), np.log(errs), 1)
    return float(slope)


def blowup_reference(s: float, h: float) -> float | None:
    """backward_blowup with steps of h only: the last node -i h before |f|
    exceeds BLOWUP_LIMIT, or None above ETA_FLOOR."""
    f, fp, fpp = 0.0, 0.0, s
    i = 0
    while -i * h > ETA_FLOOR:
        fn, fpn, fppn = _rk4_step(f, fp, fpp, -h)
        if not math.isfinite(fn) or abs(fn) > BLOWUP_LIMIT:
            return -i * h
        f, fp, fpp = fn, fpn, fppn
        i += 1
    return None


def read_solution_csv(path) -> SolutionTable:
    """The SolutionTable in a CSV written by SolutionTable.to_csv."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    data = np.atleast_2d(data)
    if data.shape[1] != 5:
        raise ValueError(f"{path}: expected 5 columns (eta,f,fp,fpp,residual)")
    return SolutionTable(data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4])
