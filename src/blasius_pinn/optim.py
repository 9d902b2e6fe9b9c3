"""Optimizers: Levenberg-Marquardt, with an optional Adam phase before it.

Training runs Levenberg-Marquardt on the loss's residual rows from the
initial parameters.  Each step carries a second-order term, the geodesic
acceleration, that one extra forward pass of the rows supplies.  Each
point's rows are read from the workspace that its own evaluation filled.
A full-batch Adam phase with exponential learning-rate decay can run first
(adam.max_steps > 0); by default it takes no step, because
Levenberg-Marquardt from the initial point reaches loss 1e-8 sooner, and
Adam led a depth-4, width-90 network into a state that is not a Blasius
profile.  The collocation set is tiny, so everything is full batch.

L-BFGS (two-loop recursion, strong Wolfe line search) is still defined
here, and its names carry the refinement's config and report (`LbfgsConfig`,
`TrainingReport.lbfgs_history`), but `train` no longer calls it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .grad import DivergenceError, loss_and_grad, residuals
from .loss import CollocationGrid, LossBreakdown, loss_total, row_count
from .network import NetworkConfig, ParamVector, Workspace, init_params, row_gram

ADAM_BETA1 = 0.9             # first-moment decay
ADAM_BETA2 = 0.999           # second-moment decay
ADAM_EPS = 1e-8
DECAY_EVERY = 100            # full-batch Adam steps per learning-rate epoch

LBFGS_MEMORY = 20            # curvature pairs kept
WOLFE_C1 = 1e-4              # sufficient decrease
WOLFE_C2 = 0.9               # curvature
MAX_LINE_EVALS = 25          # trial steps per line search

# Levenberg-Marquardt damping, relative to the largest eigenvalue of J J'
LM_DAMPING_START = 1e-3
LM_DAMPING_FLOOR = 1e-10     # J J' is numerically singular: most eigenvalues sit near 0
LM_DAMPING_CAP = 1e6         # no step that lowers the loss at this damping: stalled
# geodesic acceleration (Transtrum & Sethna 2012)
LM_ACCEL_H = 0.1             # finite-difference step along the velocity, for the rows' curvature
LM_ACCEL_RATIO = 0.75        # the acceleration is used while 2 |a| <= this * |velocity|
BLAS_BUFFER_BYTES = 2 ** 25  # OpenBLAS's packing buffers: 10-16 MiB touched at 3,003 rows


def lm_bytes(cfg: NetworkConfig, rows: int) -> int:
    """Peak bytes of a Levenberg-Marquardt step for cfg's network at m rows,
    beside the jet workspace.

    Live at the peak, while eigh runs: network.row_gram's copies of the
    layers' factors, which it reads from the per-row adjoints and input
    jets in the workspace (the first and the last layer's m-row blocks of
    J, m (3 w + 1), and 4 m (fi + fo) adjoint and input jets for each layer
    between; every layer's block when w = 1), G (m^2) and the 4 m^2 that
    eigh (LAPACK dsyevd) holds beside G: its copy, workspace and
    eigenvectors.  row_gram's 2 m^2 of pair products are freed before eigh
    runs.  When the next point's G forms, the previous step's G,
    eigenvectors and factors are freed, and only m- and parameter-sized
    arrays stay live.  On top, a second factor-sized set and
    BLAS_BUFFER_BYTES: the products of J'w, the heap that the allocator
    keeps from freed arrays and the BLAS library's packing buffers.
    """
    w = cfg.width
    factors = cfg.param_count() if w == 1 else 3 * w + 1 + 8 * w * (cfg.depth - 1)
    return 8 * rows * (2 * factors + 5 * rows) + BLAS_BUFFER_BYTES


@dataclass(frozen=True)
class AdamConfig:
    base_lr: float = 1e-3
    decay: float = 0.96          # multiplicative lr decay per epoch
    max_steps: int = 0           # no Adam phase: Levenberg-Marquardt starts at init_params
    switch_tol: float = 1e-3     # hand off to the refinement below this loss

    def __post_init__(self):
        if not self.base_lr > 0.0:
            raise ValueError("base_lr must be positive")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0,1]")

    def lr_at(self, step: int) -> float:
        """Learning rate applied at (1-based) step: base_lr * decay^epoch."""
        epoch = (step - 1) // DECAY_EVERY
        return self.base_lr * self.decay ** epoch


@dataclass
class AdamState:
    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, x0: np.ndarray) -> "AdamState":
        return cls(x0.copy(), np.zeros_like(x0), np.zeros_like(x0), 0)


def adam_step(state: AdamState, grad: np.ndarray, cfg: AdamConfig) -> AdamState:
    """One Adam update with bias-corrected moment estimates."""
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("non-finite gradient passed to adam_step")
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    x = state.x - cfg.lr_at(t) * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(x, m, v, t)


@dataclass(frozen=True)
class LbfgsConfig:
    """The refinement's budget; train runs Levenberg-Marquardt under it."""

    max_iters: int = 200
    grad_tol: float = 1e-9       # on the max-norm of the gradient

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass
class LbfgsResult:
    x: np.ndarray
    fval: float
    history: list = field(default_factory=list)  # (iter, loss, grad_norm, step or damping)
    status: str = "converged"
    n_evals: int = 0


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic interpolant on [a, b]; NaN if degenerate."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if disc < 0.0:
        return np.nan
    d2 = np.sqrt(disc) * np.sign(b - a)
    denom = db - da + 2.0 * d2
    if denom == 0.0:
        return np.nan
    return b - (b - a) * (db + d2 - d1) / denom


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product on the calling thread.  A BLAS ddot of this length is
    handed to a second thread, which costs more than the product itself."""
    return float(np.einsum("i,i->", a, b))


def _strong_wolfe(f_and_g, x, f0, g0, d):
    """Line search from the unit step, satisfying the strong Wolfe conditions.

    Near a minimum the decrease c1 * alpha * phi'(0) that sufficient decrease
    asks for falls below the rounding of f.  A trial point whose f is within
    that rounding of f0 is then accepted on the approximate Wolfe conditions
    c2 phi'(0) <= phi'(alpha) <= (2 c1 - 1) phi'(0) (Hager & Zhang 2005),
    which test the slope instead of the last bits of f.

    Returns (ok, alpha, f, g, n_evals); on failure ok is False and
    (alpha, f, g) is the best point seen, never worse than the start.
    """
    dphi0 = _dot(g0, d)
    if dphi0 >= 0.0:
        return False, 0.0, f0, g0, 0
    f_flat = f0 + 4.0 * np.finfo(float).eps * abs(f0)

    evals = 0
    best = (0.0, f0, g0)

    def phi(alpha):
        # f, g and the slope along d at x + alpha d; counts the evaluation
        # and keeps the best point seen
        nonlocal evals, best
        f_a, g_a = f_and_g(x + alpha * d)
        evals += 1
        if f_a < best[1]:
            best = (alpha, f_a, g_a)
        return f_a, g_a, _dot(g_a, d)

    def approx_wolfe(f_a, d_a):
        return f_a <= f_flat and WOLFE_C2 * dphi0 <= d_a <= (2.0 * WOLFE_C1 - 1.0) * dphi0

    # bracketing is zoom with an open upper end: while hi is infinite the
    # trial step doubles, then the safeguarded cubic narrows [lo, hi]
    lo, f_lo, d_lo = 0.0, f0, dphi0
    hi, f_hi, d_hi = np.inf, None, None
    for i in range(MAX_LINE_EVALS):
        width = abs(hi - lo)
        if hi == np.inf:
            alpha = max(2.0 * lo, 1.0)
        else:
            alpha = _cubic_min(lo, f_lo, d_lo, hi, f_hi, d_hi)
            if not np.isfinite(alpha) or alpha <= min(lo, hi) + 0.1 * width or alpha >= max(lo, hi) - 0.1 * width:
                alpha = 0.5 * (lo + hi)
        f_a, g_a, d_a = phi(alpha)
        # "no better than the previous trial" skips the first trial, whose
        # previous point is the start: f0 + c1 alpha phi'(0) can round to f0,
        # and a unit step with f == f0 that still descends should extend
        if f_a > f0 + WOLFE_C1 * alpha * dphi0 or (i > 0 and f_a >= f_lo):
            if approx_wolfe(f_a, d_a):
                return True, alpha, f_a, g_a, evals
            hi, f_hi, d_hi = alpha, f_a, d_a
        else:
            if abs(d_a) <= -WOLFE_C2 * dphi0:
                return True, alpha, f_a, g_a, evals
            if d_a * (hi - lo) >= 0.0:
                hi, f_hi, d_hi = lo, f_lo, d_lo
            lo, f_lo, d_lo = alpha, f_a, d_a
        if width < 1e-16:
            break
    return False, best[0], best[1], best[2], evals


def _two_loop(pairs, g: np.ndarray) -> np.ndarray:
    """-H g by the two-loop recursion over (s, y, 1/s'y) pairs, oldest
    first.  The seed H0 is the identity before the first pair and gamma I
    afterwards, gamma = s'y / y'y of the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * _dot(s, q)
        alphas.append(a)
        q -= y * a
    if pairs:
        s, y, _ = pairs[-1]
        q *= _dot(s, y) / _dot(y, y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += s * (a - rho * _dot(y, q))
    return -q


def lbfgs_minimize(f_and_grad, x0: np.ndarray, cfg: LbfgsConfig) -> LbfgsResult:
    """L-BFGS with two-loop recursion and strong Wolfe line search.

    The last LBFGS_MEMORY curvature pairs are kept; pairs with s'y <= 0 are
    discarded.  Returns the best point visited, never worse than x0.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = f_and_grad(x)
    n_evals = 1
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    pairs = deque(maxlen=LBFGS_MEMORY)
    history = []
    # nothing writes into an iterate, so the best point is held by reference
    best_x, best_f = x, f
    status = "max_iters"
    for it in range(cfg.max_iters):
        if gnorm <= cfg.grad_tol:
            status = "converged"
            break
        d = _two_loop(pairs, g)
        ok, alpha, f_new, g_new, evals = _strong_wolfe(f_and_grad, x, f, g, d)
        n_evals += evals
        if not ok:
            # line search failed: keep the best point seen and stop
            if f_new < best_f:
                best_f, best_x = f_new, x + alpha * d
            status = "line_search_failed"
            break
        x_new = x + alpha * d
        s = x_new - x
        y = g_new - g
        sy = _dot(s, y)
        if sy > 1e-10 * np.sqrt(_dot(s, s) * _dot(y, y)):
            pairs.append((s, y, 1.0 / sy))
        x, f, g = x_new, f_new, g_new
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if f < best_f:
            best_f, best_x = f, x
        history.append((it + 1, f, gnorm, alpha))
        if not np.isfinite(f):
            raise DivergenceError("non-finite loss in L-BFGS")
    return LbfgsResult(best_x, best_f, history, status, n_evals)


def _rows_curvature(probe, x: np.ndarray, r: np.ndarray, velocity: np.ndarray,
                    j_velocity: np.ndarray):
    """The rows' second derivative along `velocity` at x, by the finite
    difference (2/h) [(r(x + h velocity) - r)/h - J velocity], h =
    LM_ACCEL_H, from one call probe(x + h velocity) -> rows; its error is
    O(h) in the rows' third derivative.  r and j_velocity are the rows and
    J velocity at x.  None when the probe's rows are not finite."""
    h = LM_ACCEL_H
    r_h = probe(x + h * velocity)
    if not np.all(np.isfinite(r_h)):
        return None
    return (2.0 / h) * ((r_h - r) / h - j_velocity)


def lm_minimize(evaluate, probe, x0: np.ndarray, cfg: LbfgsConfig) -> LbfgsResult:
    """Levenberg-Marquardt with geodesic acceleration on f = sum(r * r), in
    the space of the m rows.

    evaluate(x) -> (f, gradient, rows) evaluates x0 and every trial point,
    and rows() -> (r, G, jt) gives that point's rows, G = J J' (m x m) and
    the map jt: w -> J'w for their Jacobian J (m x len(x)).  rows may read
    what its evaluation left behind: it is called at most once, at x0 or an
    accepted trial, before any later evaluate or probe.  probe(x) -> r gives
    the rows alone, finite or not, at one point per trial.

    The velocity is delta = -J' u, u = (G + lam I)^-1 r: one eigensolve of
    G per accepted point serves every damping tried there, and gives
    J delta = -G u without another pass.  The acceleration (Transtrum &
    Sethna 2012) is a = -J' (G + lam I)^-1 r_vv, with r_vv the rows' second
    derivative along delta (_rows_curvature, from the probe at
    x + LM_ACCEL_H delta).  The trial step is delta + a/2 while
    2 |a| <= LM_ACCEL_RATIO |delta|, and delta otherwise or when the probe's
    rows are not finite.  lam follows the gain ratio rho of the actual
    decrease to the one the linear model predicts for delta (Nielsen's
    rule; Madsen, Nielsen & Tingleff 2004): after a step that lowers f it
    is scaled by max(1/3, 1 - (2 rho - 1)^3), after one that does not it
    grows by a factor that doubles each time.  lam is kept between
    LM_DAMPING_FLOOR and LM_DAMPING_CAP times the largest eigenvalue of G.

    Stops as "converged" once max|gradient| <= grad_tol, at x0 or after any
    step (the last one included), as "stalled" when no step at the damping
    cap lowers f, and as "max_iters" after max_iters steps.  Only steps
    that lower f are taken, so the result is never worse than x0.  history
    holds (iteration, f, max|gradient|, lam) per step, and n_evals counts
    the calls of evaluate.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g, rows = evaluate(x)
    n_evals = 1
    history = []
    gnorm = float(np.max(np.abs(g), initial=0.0))
    status = "max_iters"
    lam, grow = None, 2.0
    for it in range(cfg.max_iters):
        if gnorm <= cfg.grad_tol:
            break
        r, gram, jt = rows()
        if not np.all(np.isfinite(gram)):
            raise DivergenceError("non-finite J J' of the residual rows")
        w, v = np.linalg.eigh(gram)
        np.maximum(w, 0.0, out=w)       # rounding leaves some slightly negative
        c = v.T @ r
        top = w[-1]
        if not top > 0.0:
            status = "stalled"
            break
        lam = LM_DAMPING_START * top if lam is None else lam
        lam = min(max(lam, LM_DAMPING_FLOOR * top), LM_DAMPING_CAP * top)
        while True:
            d = w + lam
            step = -jt(v @ (c / d))
            # the model's f at the step is |lam u|^2, u = (J J' + lam I)^-1 r
            predicted = float(np.sum(c * c * w * (w + 2.0 * lam) / (d * d)))
            # a probe far out may overflow: its rows are then not used
            with np.errstate(all="ignore"):
                r_vv = _rows_curvature(probe, x, r, step, -(v @ (w * c / d)))
                if r_vv is not None:
                    accel = -jt(v @ ((v.T @ r_vv) / d))
                    if 2.0 * np.linalg.norm(accel) <= LM_ACCEL_RATIO * np.linalg.norm(step):
                        step += 0.5 * accel
            x_new = x + step
            try:
                f_new, g_new, rows_new = evaluate(x_new)
            except DivergenceError:
                f_new = np.inf
            n_evals += 1
            if f_new < f and predicted > 0.0:
                rho = (f - f_new) / predicted
                x, f, rows = x_new, f_new, rows_new
                gnorm = float(np.max(np.abs(g_new), initial=0.0))
                history.append((it + 1, f, gnorm, lam))
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                grow = 2.0
                break
            if lam >= LM_DAMPING_CAP * top:
                status = "stalled"
                break
            lam = min(lam * grow, LM_DAMPING_CAP * top)
            grow *= 2.0
        if status == "stalled":
            break
        # the next point's G and eigh run without this point's arrays
        del gram, v, jt
    if gnorm <= cfg.grad_tol:
        status = "converged"
    return LbfgsResult(x, f, history, status, n_evals)


@dataclass
class TrainingReport:
    seed: int
    adam_steps: int
    adam_curve: list            # total loss per Adam step
    lbfgs_history: list         # Levenberg-Marquardt's (iter, loss, grad_norm, damping)
    lbfgs_status: str           # converged, stalled or max_iters
    final: LossBreakdown
    best_loss: float
    wall_time_s: float


def train(
    cfg_net: NetworkConfig,
    cfg_adam: AdamConfig,
    cfg_lbfgs: LbfgsConfig,
    grid: CollocationGrid,
    pin: float | None = None,
) -> tuple[ParamVector, TrainingReport]:
    """Initialize, run Adam until max_steps (0 by default) or switch_tol,
    then refine with Levenberg-Marquardt (lm_minimize) under cfg_lbfgs's
    budget.  With no Adam step the refinement starts at init_params.

    Both phases evaluate through optim.loss_and_grad in one workspace at
    the rows' m points.  A refinement point's rows() keeps only its rows and
    seeds, and row_gram reads the adjoints that its evaluation left in the
    workspace.  Returns the best parameters visited across both phases.
    """
    t_start = time.perf_counter()
    p = init_params(cfg_net)
    shapes = p.shapes
    ws = Workspace(shapes, row_count(grid.n, pin is not None))

    def evaluate(x: np.ndarray):
        res = loss_and_grad(ParamVector(x, shapes), grid, pin=pin, ws=ws)
        r, seeds = res.r, res.seeds
        return res.loss.total, res.grad, lambda: (r,) + row_gram(ParamVector(x, shapes), ws, seeds)

    def probe(x: np.ndarray):
        return residuals(ParamVector(x, shapes), grid, pin=pin, ws=ws)

    state = AdamState.fresh(p.values)
    adam_curve: list[float] = []
    # adam_step returns fresh arrays, so Adam's iterates are held by reference
    best_x, best_f = state.x, np.inf
    for _ in range(cfg_adam.max_steps):
        res = loss_and_grad(ParamVector(state.x, shapes), grid, pin=pin, ws=ws)
        f = res.loss.total
        adam_curve.append(f)
        if f < best_f:
            best_f, best_x = f, state.x
        if f <= cfg_adam.switch_tol:
            break
        state = adam_step(state, res.grad, cfg_adam)

    # Levenberg-Marquardt starts at Adam's best point, or at init_params
    # when Adam took no step, and only moves downhill
    lm = lm_minimize(evaluate, probe, best_x, cfg_lbfgs)
    p_best = ParamVector(lm.x, shapes)
    final = loss_total(p_best, grid, pin=pin)
    report = TrainingReport(
        seed=cfg_net.seed,
        adam_steps=len(adam_curve),
        adam_curve=adam_curve,
        lbfgs_history=lm.history,
        lbfgs_status=lm.status,
        final=final,
        best_loss=lm.fval,
        wall_time_s=time.perf_counter() - t_start,
    )
    return p_best, report
