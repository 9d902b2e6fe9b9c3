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
    def points(self) -> np.ndarray:
        """Read-only: the n grid points."""
        pts = np.linspace(self.eta0, self.eta_m, self.n)
        pts.flags.writeable = False
        return pts

    def row_etas(self, pinned: bool) -> np.ndarray:
        """The point of each row of residual_rows, as a fresh array: the n
        grid points, then the wall 0 for f(0), the far field eta_m for
        f'(eta_m) - 1, and the wall for f'(0) and, when pinned, f''(0) - pin."""
        return np.concatenate([self.points, (0.0, self.eta_m, 0.0, 0.0)[: 3 + pinned]])


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


def residual_rows(y: np.ndarray, pin: float | None = None) -> tuple[np.ndarray, np.ndarray, LossBreakdown]:
    """The rows of the loss, their seeds, and the loss breakdown from the
    rows' squares.

    y is the output jet (shape (4, m)) at the rows' points, one point per
    row: `grid.row_etas(pin is not None)`.  The m = n + 3 rows (n + 4 with a
    pin) are the ODE residuals at the n grid points, f(0), f'(eta_m) - 1,
    f'(0) and f''(0) - pin, each read at its own point.  Returns
    (r, seeds, breakdown): the rows (m,), each row's derivative with respect
    to the jet at its point (4, m), one column per row on the channels
    (f, f', f'', f'''), and the breakdown.  The total's adjoint at the rows'
    points is 2 r * seeds.
    """
    m = y.shape[1]
    n = m - 3 - (pin is not None)
    r = np.empty(m)
    seeds = np.zeros((4, m))
    r[:n] = residual(y[:, :n])
    seeds[0, :n] = 0.5 * y[2, :n]
    seeds[2, :n] = 0.5 * y[0, :n]
    seeds[3, :n] = 1.0
    r[n] = y[0, n]
    r[n + 1] = y[1, n + 1] - 1.0
    r[n + 2] = y[1, n + 2]
    seeds[0, n] = seeds[1, n + 1] = seeds[1, n + 2] = 1.0
    if pin is not None:
        r[n + 3] = y[2, n + 3] - pin
        seeds[2, n + 3] = 1.0
    breakdown = LossBreakdown(
        ode=float(np.sum(r[:n] * r[:n])),
        init=float(r[n] ** 2 + r[n + 2] ** 2),
        boundary=float(r[n + 1] ** 2),
        pin=0.0 if pin is None else float(r[n + 3] ** 2),
    )
    return r, seeds, breakdown


def loss_total(p: ParamVector, grid: CollocationGrid, pin: float | None = None) -> LossBreakdown:
    """Full loss breakdown; one batched forward pass over the rows' points."""
    return residual_rows(forward_jet_batch(p, grid.row_etas(pin is not None)), pin)[2]
