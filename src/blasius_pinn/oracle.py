"""Classical ground truth: RK4 + secant shooting for the Blasius equation.

The third-order ODE f''' = -1/2 f f'' is integrated as the first-order
system (f, f', f'')' = (f', f'', -1/2 f f'') from (0, 0, s), and the wall
curvature s is iterated until f'(eta_max) = 1.  A backward integration onto
the negative axis locates the blow-up of the analytic continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grad import DivergenceError

OVERFLOW_LIMIT = 1e12       # |f| beyond this is reported as divergence
BLOWUP_LIMIT = 1e8          # |f| threshold for the negative-axis probe
ETA_FLOOR = -10.0
SHOOT_TOL = 1e-10           # secant stops once |f'(eta_max) - 1| is this small
SHOOT_MAX_ITERS = 100       # secant iterations per pass
MAX_STEPS = 10 ** 7         # RK4 steps one integration may be asked for
# backward_blowup takes coarse steps while |f| stays at or below this.  Near
# the pole f ~ 6/(eta - eta_s), so |f| <= 10 keeps the pole at least ~0.6
# away: sixty or more coarse steps of at most 1e-2.
BLOWUP_COARSE_F = 10.0
CSV_BLOCK = 4096            # rows formatted per write in SolutionTable.to_csv
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g\n"


@dataclass
class SolutionTable:
    """Columns (eta, f, f', f'', residual) sampled on an eta grid."""

    eta: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray
    residual: np.ndarray

    def __len__(self) -> int:
        return self.eta.size

    def to_csv(self, path) -> None:
        """17 significant digits per value, formatted CSV_BLOCK rows at a
        time so the Python floats alive at once do not grow with the table."""
        cols = (self.eta, self.f, self.fp, self.fpp, self.residual)
        with open(path, "w") as fh:
            fh.write("eta,f,fp,fpp,residual\n")
            for lo in range(0, len(self), CSV_BLOCK):
                rows = zip(*(c[lo : lo + CSV_BLOCK].tolist() for c in cols))
                fh.write("".join(_CSV_ROW % row for row in rows))


@dataclass
class ShootingResult:
    s_star: float            # converged wall curvature f''(0)
    h: float
    eta_max: float
    iterations: int
    table: SolutionTable


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


def step_count(h: float, eta_max: float) -> int:
    """round(|eta_max| / h), the RK4 steps of an integration from 0 to
    eta_max.  Raises ValueError unless h is positive and |eta_max| / h is
    finite and at most MAX_STEPS."""
    if not h > 0.0:
        raise ValueError("h must be positive")
    ratio = abs(eta_max) / h
    if not ratio <= MAX_STEPS:
        raise ValueError(f"{abs(eta_max):g} / {h:g} = {ratio:g} RK4 steps; "
                         f"at most {MAX_STEPS} are allowed")
    return round(ratio)


def coarse_step(h: float, eta_max: float) -> float:
    """Step of shoot's coarse secant: 10 h, capped at 1e-2 and at eta_max so
    that the pass takes at least one step."""
    return min(10.0 * h, 1e-2, eta_max)


def _integrate_end(s: float, h: float, eta_max: float):
    """End state (f, f', f'') at eta_max, without tabulation."""
    steps = step_count(h, eta_max)
    f, fp, fpp = 0.0, 0.0, s
    for _ in range(steps):
        f, fp, fpp = _rk4_step(f, fp, fpp, h)
        if not math.isfinite(f) or abs(f) > OVERFLOW_LIMIT:
            raise DivergenceError("RK4 overflow")
    return f, fp, fpp


def rk4_shoot(s: float, h: float, eta_max: float) -> SolutionTable:
    """Fixed-step RK4 from (0, 0, s), tabulated at every node.

    eta_max may be negative; the run then marches toward the singularity of
    the analytic continuation and is expected to end in a divergence error.
    """
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
    # f''' at the nodes is -1/2 f f'' by the ODE itself, so the tabulated
    # residual is identically zero; kept as a column for schema uniformity
    # with PINN tables.
    res = np.zeros(steps + 1)
    return SolutionTable(eta, fs, fps, fpps, res)


def shoot(h: float = 1e-4, eta_max: float = 8.0) -> ShootingResult:
    """Secant iteration on g(s) = f'(eta_max; s) - 1 from s in {0.1, 0.5}.

    The secant runs at coarse_step(h, eta_max), and its root is tabulated
    at step h.  When that table already has |f'(eta_max) - 1| <= SHOOT_TOL,
    as it does at the default h, the fine grid is integrated once.
    Otherwise a secant at step h starts from the coarse root, and its root
    is tabulated.  Iteration counts from both passes are reported.
    """
    if not eta_max > 0.0:
        raise ValueError("eta_max must be positive")
    if step_count(h, eta_max) < 1:
        raise ValueError("eta_max / h must round to at least 1 RK4 step")
    iterations = 0

    def solve_at(step: float, s0: float, g0: float, s1: float) -> float:
        nonlocal iterations
        g1 = _integrate_end(s1, step, eta_max)[1] - 1.0
        for _ in range(SHOOT_MAX_ITERS):
            iterations += 1
            if g1 == g0:
                break
            s2 = s1 - g1 * (s1 - s0) / (g1 - g0)
            s0, g0 = s1, g1
            s1 = s2
            g1 = _integrate_end(s1, step, eta_max)[1] - 1.0
            if abs(g1) <= SHOOT_TOL:
                return s1
        raise DivergenceError(f"shooting did not converge at h={step}")

    coarse = coarse_step(h, eta_max)
    s_star = solve_at(coarse, 0.1, _integrate_end(0.1, coarse, eta_max)[1] - 1.0, 0.5)
    table = rk4_shoot(s_star, h, eta_max)
    # the table's last node is _integrate_end(s_star, h, eta_max), bit for bit
    g = float(table.fp[-1]) - 1.0
    if abs(g) > SHOOT_TOL:
        s_star = solve_at(h, s_star, g, s_star * (1.0 + 1e-4))
        table = rk4_shoot(s_star, h, eta_max)
    return ShootingResult(s_star, h, eta_max, iterations, table)


def backward_blowup(s: float, h: float) -> float | None:
    """Integrate from the wall toward negative eta until |f| exceeds 1e8.

    Returns the last node -i h reached before blow-up, an estimate of the
    singularity of the analytic continuation on the negative axis, or None
    if |f| stays below the limit down to ETA_FLOOR.  The node lies within
    about one step h of the pole, on either side.  Steps of k h
    (k = round(1e-2 / h), between 1 and 100) cross the smooth stretch while
    |f| <= BLOWUP_COARSE_F; steps of h go on from the last coarse node.
    Raises ValueError unless -ETA_FLOOR / h is at most MAX_STEPS.
    """
    step_count(h, ETA_FLOOR)
    k = max(1, min(100, round(1e-2 / h)))
    f, fp, fpp = 0.0, 0.0, s
    i = 0
    while -(i + k) * h > ETA_FLOOR:
        fn, fpn, fppn = _rk4_step(f, fp, fpp, -k * h)
        if not abs(fn) <= BLOWUP_COARSE_F:
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
