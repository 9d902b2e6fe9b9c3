"""Test-side helpers for the shooting oracle: the RK4 step as a function and
the per-step integrations, coarse-secant shooting and blow-up searches built
on it (the references for oracle.py's march), the empirical convergence
order of the scheme, and a reader for the solution CSV the CLI writes."""

import math

import numpy as np

from blasius_pinn.grad import DivergenceError
from blasius_pinn.oracle import (BLOWUP_LIMIT, ETA_FLOOR, OVERFLOW_LIMIT, SHOOT_MAX_ITERS,
                                 SHOOT_TOL, ShootingResult, SolutionTable, coarse_step, step_count)


def _rk4_step(f, fp, fpp, h):
    # k = (f', f'', -1/2 f f'') evaluated at the four RK4 stages
    k1f, k1p, k1q = fp, fpp, -0.5 * f * fpp
    f2, p2, q2 = f + 0.5 * h * k1f, fp + 0.5 * h * k1p, fpp + 0.5 * h * k1q
    k2f, k2p, k2q = p2, q2, -0.5 * f2 * q2
    f3, p3, q3 = f + 0.5 * h * k2f, fp + 0.5 * h * k2p, fpp + 0.5 * h * k2q
    k3f, k3p, k3q = p3, q3, -0.5 * f3 * q3
    f4, p4, q4 = f + h * k3f, fp + h * k3p, fpp + h * k3q
    k4f, k4p, k4q = p4, q4, -0.5 * f4 * q4
    return (
        f + h / 6.0 * (k1f + 2.0 * k2f + 2.0 * k3f + k4f),
        fp + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
        fpp + h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q),
    )


def integrate_end_reference(s: float, h: float, eta_max: float):
    """oracle._integrate_end, one _rk4_step call per step."""
    steps = step_count(h, eta_max)
    f, fp, fpp = 0.0, 0.0, s
    for _ in range(steps):
        f, fp, fpp = _rk4_step(f, fp, fpp, h)
        if not math.isfinite(f) or abs(f) > OVERFLOW_LIMIT:
            raise DivergenceError("RK4 overflow")
    return f, fp, fpp


def rk4_shoot_reference(s: float, h: float, eta_max: float) -> SolutionTable:
    """oracle.rk4_shoot, one _rk4_step call and one row assignment per step."""
    steps = step_count(h, eta_max)
    step = h if eta_max > 0 else -h
    eta = np.empty(steps + 1)
    fs = np.empty(steps + 1)
    fps = np.empty(steps + 1)
    fpps = np.empty(steps + 1)
    f, fp, fpp = 0.0, 0.0, s
    eta[0], fs[0], fps[0], fpps[0] = 0.0, f, fp, fpp
    for i in range(1, steps + 1):
        f, fp, fpp = _rk4_step(f, fp, fpp, step)
        if not math.isfinite(f) or abs(f) > OVERFLOW_LIMIT:
            raise DivergenceError(f"RK4 overflow at eta={eta[i - 1]:.6g}")
        eta[i] = i * step
        fs[i], fps[i], fpps[i] = f, fp, fpp
    return SolutionTable(eta, fs, fps, fpps, np.zeros(steps + 1))


def shoot_reference(h: float = 1e-4, eta_max: float = 8.0) -> ShootingResult:
    """Shooting by secant on g(s) = f'(eta_max; s) - 1 from s in {0.1, 0.5}
    at coarse_step(h, eta_max); its root is tabulated at step h, and a secant
    at step h starts from it when that table misses SHOOT_TOL.  Iteration
    counts from both passes are reported."""
    iterations = 0

    def solve_at(step: float, s0: float, g0: float, s1: float) -> float:
        nonlocal iterations
        g1 = integrate_end_reference(s1, step, eta_max)[1] - 1.0
        for _ in range(SHOOT_MAX_ITERS):
            iterations += 1
            if g1 == g0:
                break
            s2 = s1 - g1 * (s1 - s0) / (g1 - g0)
            s0, g0 = s1, g1
            s1 = s2
            g1 = integrate_end_reference(s1, step, eta_max)[1] - 1.0
            if abs(g1) <= SHOOT_TOL:
                return s1
        raise DivergenceError(f"shooting did not converge at h={step}")

    coarse = coarse_step(h, eta_max)
    g0 = integrate_end_reference(0.1, coarse, eta_max)[1] - 1.0
    s_star = solve_at(coarse, 0.1, g0, 0.5)
    table = rk4_shoot_reference(s_star, h, eta_max)
    g = float(table.fp[-1]) - 1.0
    if abs(g) > SHOOT_TOL:
        s_star = solve_at(h, s_star, g, s_star * (1.0 + 1e-4))
        table = rk4_shoot_reference(s_star, h, eta_max)
    return ShootingResult(s_star, h, eta_max, iterations, table)


def backward_blowup_reference(s: float, h: float) -> float | None:
    """The coarse-then-h blow-up search oracle.backward_blowup made before
    its Laurent step rule, one _rk4_step call per step: steps of k h, with
    k = min(100, round(1e-2 / h)), while |f| <= 10, then steps of h.  Its node
    is the node of the search in steps of h alone (blowup_reference) for
    slopes up to about 2.5, not for every larger one: at (s, h) =
    (21981.849412682514, 0.00013319290534111156), (185667.46275129993,
    2.468285411199315e-05), (172831.54356731413, 0.000285239166507794) and
    (98656.51996932543, 6.232887726379026e-05) its coarse steps end on
    another node.  With the approach phase it later had, it also missed at
    (89902.44630196421, 1.9544661885078895e-05).  backward_blowup must return
    its node where the searches agree, not its bytes: its steps reach the
    lattice nodes by longer RK4 steps."""
    step_count(h, ETA_FLOOR)
    k = max(1, min(100, round(1e-2 / h)))
    f, fp, fpp = 0.0, 0.0, s
    i = 0
    while -(i + k) * h > ETA_FLOOR:
        fn, fpn, fppn = _rk4_step(f, fp, fpp, -k * h)
        if not abs(fn) <= 10.0:
            break
        f, fp, fpp = fn, fpn, fppn
        i += k
    while -i * h > ETA_FLOOR:
        fn, fpn, fppn = _rk4_step(f, fp, fpp, -h)
        if not math.isfinite(fn) or abs(fn) > BLOWUP_LIMIT:
            return -i * h
        f, fp, fpp = fn, fpn, fppn
        i += 1
    return None


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
