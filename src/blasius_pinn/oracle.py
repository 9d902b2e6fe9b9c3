"""Classical ground truth: RK4 shooting for the Blasius equation.

The third-order ODE f''' = -1/2 f f'' is integrated as the first-order
system (f, f', f'')' = (f', f'', -1/2 f f'') from (0, 0, s).  The wall
curvature s with f'(eta_max) = 1 follows from one integration of the
normalised problem by Töpfer's scaling law, with a secant as the fallback.
A backward integration onto the negative axis locates the blow-up of the
analytic continuation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grad import DivergenceError
from .textfmt import format_g17

OVERFLOW_LIMIT = 1e12       # |f| beyond this is reported as divergence
BLOWUP_LIMIT = 1e8          # |f| threshold for the negative-axis probe
ETA_FLOOR = -10.0
SHOOT_TOL = 1e-10           # shoot stops once |f'(eta_max) - 1| is this small
SHOOT_MAX_ITERS = 100       # secant (and scaled-root Newton) iterations
MAX_STEPS = 10 ** 7         # RK4 steps one integration may be asked for
BLOWUP_STEP = 0.01          # backward_blowup's step, as a share of the pole distance
BLOWUP_H = 1e-5             # backward_blowup's lattice step in probe-negative


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
        """A header, then one row per node with each value as '%.17g'
        formats it.  format_g17 streams the text, so what is held at once
        does not grow with the table."""
        with open(path, "w") as fh:
            fh.write("eta,f,fp,fpp,residual\n")
            fh.writelines(format_g17((self.eta, self.f, self.fp, self.fpp, self.residual),
                                     ",,,,\n"))


@dataclass
class ShootingResult:
    s_star: float            # converged wall curvature f''(0)
    h: float
    eta_max: float
    iterations: int
    table: SolutionTable


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
    """Step of shoot's normalised march: 10 h, capped at 1e-2 and at eta_max
    so that the march takes at least one step."""
    return min(10.0 * h, 1e-2, eta_max)


@dataclass(frozen=True)
class OracleSpec:
    """shoot's h and eta_max, within MAX_STEPS."""

    h: float = 1e-4
    eta_max: float = 8.0

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0.0:
                raise ValueError(f"{f.name} must be positive")
        if step_count(self.h, self.eta_max) < 1:
            raise ValueError("eta_max / h must round to at least 1 RK4 step")
        step_count(coarse_step(self.h, self.eta_max), self.eta_max)


def _march(f, fp, fpp, h, steps, limit):
    """RK4 from (f, f', f'') for `steps` steps of h, the one step formula
    every integration uses.  Yields flat floats, f, f', f'' of the start and
    then of each step, and stops before the first state whose |f| exceeds
    limit or is NaN."""
    half, sixth = 0.5 * h, h / 6.0
    yield f
    yield fp
    yield fpp
    for _ in range(steps):
        # the stage slopes (f', f'', -1/2 f f'') are k1 = (fp, fpp, r1),
        # k2 = (p2, q2, r2), k3 = (p3, q3, r3) and k4 = (p4, q4, r4)
        r1 = -0.5 * f * fpp
        f2, p2, q2 = f + half * fp, fp + half * fpp, fpp + half * r1
        r2 = -0.5 * f2 * q2
        f3, p3, q3 = f + half * p2, fp + half * q2, fpp + half * r2
        r3 = -0.5 * f3 * q3
        f4, p4, q4 = f + h * p3, fp + h * q3, fpp + h * r3
        r4 = -0.5 * f4 * q4
        f = f + sixth * (fp + 2.0 * p2 + 2.0 * p3 + p4)
        if not abs(f) <= limit:
            return
        fp = fp + sixth * (fpp + 2.0 * q2 + 2.0 * q3 + q4)
        fpp = fpp + sixth * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        yield f
        yield fp
        yield fpp


def _last(march):
    """(number of states, last state) of a march; it yields at least its start."""
    for n, state in enumerate(zip(march, march, march), start=1):
        pass
    return n, state


def _integrate_end(s: float, h: float, eta_max: float):
    """End state (f, f', f'') at eta_max, without tabulation."""
    steps = step_count(h, eta_max)
    n, end = _last(_march(0.0, 0.0, s, h, steps, OVERFLOW_LIMIT))
    if n <= steps:
        raise DivergenceError("RK4 overflow")
    return end


def rk4_shoot(s: float, h: float, eta_max: float) -> SolutionTable:
    """Fixed-step RK4 from (0, 0, s), tabulated at every node.

    eta_max may be negative; the run then marches toward the singularity of
    the analytic continuation and is expected to end in a divergence error.
    """
    steps = step_count(h, eta_max)
    step = h if eta_max > 0 else -h
    flat = np.fromiter(_march(0.0, 0.0, s, step, steps, OVERFLOW_LIMIT), float)
    eta = np.arange(flat.size // 3) * step
    eta[0] = 0.0
    if eta.size <= steps:
        raise DivergenceError(f"RK4 overflow at eta={eta[-1]:.6g}")
    f, fp, fpp = flat.reshape(-1, 3).T.copy()
    # f''' at the nodes is -1/2 f f'' by the ODE itself, so the tabulated
    # residual is identically zero; kept as a column for schema uniformity
    # with PINN tables.
    res = np.zeros(steps + 1)
    return SolutionTable(eta, f, fp, fpp, res)


def _scaled_root(step: float, eta_max: float) -> float:
    """s*(eta_max) from one march of F, the solution with F''(0) = 1.

    By Töpfer's scaling f(eta; s) = s^(1/3) F(s^(1/3) eta), f'(eta_max) = 1
    where xi = s^(1/3) eta_max solves (xi / eta_max)^2 F'(xi) = 1, and then
    s = (xi / eta_max)^3.  F is marched until it passes that point, and the
    crossing is solved by Newton's method on the length of one RK4 step from
    the last node before it.  For eta_max < 1 the march step is scaled by
    eta_max^(-1/3) (s* -> 1 / eta_max there), so it takes about
    eta_max / step steps, as an integration of f at `step` would.
    """
    d = step * max(1.0, eta_max ** (-1.0 / 3.0))
    march = _march(0.0, 0.0, 1.0, d, MAX_STEPS, OVERFLOW_LIMIT)
    for i, state in enumerate(zip(march, march, march)):
        if (i * d / eta_max) ** 2 * state[1] >= 1.0:
            break
        xi, node = i * d, state
    else:
        raise DivergenceError(f"the normalised march did not reach f'({eta_max:g}) = 1")
    # (xi + t)^2 F'(xi + t) is increasing and convex in t, so Newton from the
    # step's end, where it is past the root, descends onto it
    t = d
    for _ in range(SHOOT_MAX_ITERS):
        _, _, _, _, p, q = _march(*node, t, 1, OVERFLOW_LIMIT)
        r = (xi + t) / eta_max
        t_next = t - (r * r * p - 1.0) / (r * (2.0 * p / eta_max + r * q))
        if not t_next < t:
            break
        t = t_next
    try:
        return ((xi + t) / eta_max) ** 3
    except OverflowError:
        raise DivergenceError(f"f''(0) overflows at eta_max = {eta_max:g}") from None


def shoot(h: float = 1e-4, eta_max: float = 8.0) -> ShootingResult:
    """Wall curvature s* with f'(eta_max) = 1, and its table at step h.

    s* comes from Töpfer's scaling law through one march of the normalised
    problem at coarse_step(h, eta_max) (see _scaled_root) and is tabulated
    at step h.  When that table has |f'(eta_max) - 1| <= SHOOT_TOL, as it
    does at the default h, that is the result.  Otherwise a secant on
    g(s) = f'(eta_max; s) - 1 at step h starts from s* and the g its table
    measured, and its root is tabulated; `iterations` counts its iterations.
    """
    OracleSpec(h=h, eta_max=eta_max)      # raises ValueError as the config would
    s_star = _scaled_root(coarse_step(h, eta_max), eta_max)
    table = rk4_shoot(s_star, h, eta_max)
    # the table's last node is _integrate_end(s_star, h, eta_max), bit for bit
    g0 = float(table.fp[-1]) - 1.0
    iterations = 0
    if abs(g0) > SHOOT_TOL:
        s0, s1 = s_star, s_star * (1.0 + 1e-4)
        g1 = _integrate_end(s1, h, eta_max)[1] - 1.0
        while True:
            iterations += 1
            if g1 == g0 or iterations > SHOOT_MAX_ITERS:
                raise DivergenceError(f"shooting did not converge at h={h}")
            s0, s1, g0 = s1, s1 - g1 * (s1 - s0) / (g1 - g0), g1
            g1 = _integrate_end(s1, h, eta_max)[1] - 1.0
            if abs(g1) <= SHOOT_TOL:
                break
        s_star = s1
        table = rk4_shoot(s_star, h, eta_max)
    return ShootingResult(s_star, h, eta_max, iterations, table)


def backward_blowup(s: float, h: float) -> float | None:
    """Integrate from the wall toward negative eta until |f| exceeds 1e8.

    Returns the last node -i h reached before blow-up, an estimate of the
    singularity of the analytic continuation on the negative axis, or None
    if |f| stays below the limit down to ETA_FLOOR.  The node lies within
    about one step h of the pole, on either side, and is the node a search
    in steps of h alone returns.  Every node is on the lattice -i h:
    - from the wall, each step is m h with m h at most BLOWUP_STEP of the
      distance d to the pole that the Laurent terms f ~ 6 / d and
      f'' ~ 12 / d^3 give, 1 / d = max(|f| / 6, (|f''| / 12)^(1/3)), and at
      most the lattice left above ETA_FLOOR, until m < 2 or a step passes
      the limit (at the wall d = (12 / s)^(1/3), 0.58 of the pole distance
      for every s > 0);
    - steps of h go on from there to the last node before |f| > 1e8.
    Raises ValueError unless -ETA_FLOOR / h is at most MAX_STEPS.
    """
    last = step_count(h, ETA_FLOOR)
    # the nodes -i h above ETA_FLOOR are i = 0 .. last
    while not -last * h > ETA_FLOOR:
        last -= 1
    while -(last + 1) * h > ETA_FLOOR:
        last += 1
    state, i = (0.0, 0.0, s), 0
    while True:
        inv = max(abs(state[0]) / 6.0, (abs(state[2]) / 12.0) ** (1.0 / 3.0))
        # the test is false for inv = NaN too, which then takes one step
        # whose NaN f ends the loop
        if not inv * h * (last - i) > BLOWUP_STEP:
            m = last - i
        else:
            m = int(BLOWUP_STEP / (inv * h))
        if m < 2:
            break
        n, end = _last(_march(*state, -m * h, 1, BLOWUP_LIMIT))
        if n < 2:
            break
        state, i = end, i + m
    n, _ = _last(_march(*state, -h, last - i + 1, BLOWUP_LIMIT))
    if n > last - i + 1:
        return None
    return -(i + n - 1) * h
