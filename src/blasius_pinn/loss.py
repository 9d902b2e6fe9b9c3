"""Physics-informed loss for the Blasius equation over a collocation grid.

Total loss = sum of squared ODE residuals over the grid (sum, not mean)
+ wall conditions f(0)^2 + f'(0)^2
+ far-field condition (f'(eta_m) - 1)^2
+ optional wall-curvature pin (f''(0) - c)^2 for the negative-axis run.
Each term is a square of one of the rows that `residual_rows` defines.

The wall terms are always anchored at eta = 0 even when the grid extends to
negative eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import ParamVector, forward_jet_batch

MAX_POINTS = 10 ** 6        # grid points; at width 100 each jet array then takes 3.2 GB


@dataclass(frozen=True)
class CollocationGrid:
    """Uniform grid of eta sample points from eta0 to eta_m inclusive."""

    eta0: float
    eta_m: float
    n: int

    def __post_init__(self):
        if not self.eta0 < self.eta_m:
            raise ValueError("grid requires eta0 < eta_m")
        if not math.isfinite(self.eta_m - self.eta0):
            raise ValueError("grid requires a finite span eta_m - eta0")
        if self.n < 2:
            raise ValueError("grid requires n >= 2")
        if self.n > MAX_POINTS:
            raise ValueError(f"grid requires n <= {MAX_POINTS}")

    @cached_property
    def anchored_points(self) -> np.ndarray:
        """Read-only: the n grid points, then the anchors 0 (wall) and eta_m
        (far field), where the loss evaluates the network."""
        pts = np.concatenate([np.linspace(self.eta0, self.eta_m, self.n), [0.0, self.eta_m]])
        pts.flags.writeable = False
        return pts

    @property
    def points(self) -> np.ndarray:
        return self.anchored_points[: self.n]


@dataclass(frozen=True)
class LossBreakdown:
    ode: float        # L_o, sum of squared residuals
    init: float       # L_i, wall conditions at eta = 0
    boundary: float   # L_b, far-field condition at eta_m
    pin: float        # wall-curvature pin term; 0 when disabled

    @property
    def total(self) -> float:
        return self.ode + self.init + self.boundary + self.pin


def residual(y: np.ndarray) -> np.ndarray:
    """Blasius residual f''' + 1/2 f f'' of jet rows y = (f, f', f'', f''')."""
    return y[3] + 0.5 * y[0] * y[2]


def row_count(n: int, pinned: bool) -> int:
    """Rows of residual_rows for n grid points, with or without the pin."""
    return n + 3 + pinned


def row_points(n: int, pinned: bool) -> np.ndarray:
    """Index into `anchored_points` of the point each row of residual_rows
    sits at: the first n + 2 rows sit at the anchored points in their order,
    then f'(0) and, when pinned, f''(0) - pin sit at the wall."""
    return np.r_[np.arange(n + 2), n, n][: row_count(n, pinned)]


def residual_rows(y: np.ndarray, pin: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the loss, whose squares sum to the total loss.

    y is the output jet (shape (4, n + 2)) at the n grid points followed by
    the anchors 0 and eta_m.  The m = n + 3 rows (n + 4 with a pin) are the
    ODE residuals at the grid points, f(0), f'(eta_m) - 1, f'(0) and
    f''(0) - pin; `row_points` gives the point of each.  Returns (r, seeds):
    the rows (m,) and each row's derivative with respect to the jet at its
    point (4, m), one column per row on the channels (f, f', f'', f''').
    """
    n = y.shape[1] - 2
    m = row_count(n, pin is not None)
    r = np.empty(m)
    seeds = np.zeros((4, m))
    r[:n] = residual(y[:, :n])
    seeds[0, :n] = 0.5 * y[2, :n]
    seeds[2, :n] = 0.5 * y[0, :n]
    seeds[3, :n] = 1.0
    r[n] = y[0, n]
    r[n + 1] = y[1, n + 1] - 1.0
    r[n + 2] = y[1, n]
    seeds[0, n] = seeds[1, n + 1] = seeds[1, n + 2] = 1.0
    if pin is not None:
        r[n + 3] = y[2, n] - pin
        seeds[2, n + 3] = 1.0
    return r, seeds


def loss_terms(y: np.ndarray, pin: float | None = None) -> tuple[np.ndarray, LossBreakdown, np.ndarray]:
    """Loss terms of the output jet y (shape (4, n + 2)) at the n grid points
    followed by the anchors 0 and eta_m, as in `anchored_points`.

    Returns (r, breakdown, ybar): the residuals at the grid points, the loss
    breakdown, and ybar = d(total)/dy for the reverse pass, all from the rows
    of residual_rows.
    """
    n = y.shape[1] - 2
    r, seeds = residual_rows(y, pin)
    # d(r_k^2)/dy = 2 r_k seed_k, summed over the rows at each point; row k
    # sits at point k for k < n + 2
    w = 2.0 * r * seeds
    at = row_points(n, pin is not None)
    ybar = np.zeros_like(y)
    ybar += w[:, : n + 2]
    for k in range(n + 2, r.size):
        ybar[:, at[k]] += w[:, k]
    breakdown = LossBreakdown(
        ode=float(np.sum(r[:n] * r[:n])),
        init=float(r[n] ** 2 + r[n + 2] ** 2),
        boundary=float(r[n + 1] ** 2),
        pin=0.0 if pin is None else float(r[n + 3] ** 2),
    )
    return r[:n], breakdown, ybar


def loss_total(p: ParamVector, grid: CollocationGrid, pin: float | None = None) -> LossBreakdown:
    """Full loss breakdown; one batched forward pass over grid + anchors."""
    return loss_terms(forward_jet_batch(p, grid.anchored_points), pin)[1]
