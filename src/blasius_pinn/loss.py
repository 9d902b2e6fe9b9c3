"""Physics-informed loss for the Blasius equation over a collocation grid.

Total loss = sum of squared ODE residuals over the grid (sum, not mean)
+ wall conditions f(0)^2 + f'(0)^2
+ far-field condition (f'(eta_m) - 1)^2
+ optional wall-curvature pin (f''(0) - c)^2 for the negative-axis run.

The wall terms are always anchored at eta = 0 even when the grid extends to
negative eta.
"""

from __future__ import annotations

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


def loss_terms(y: np.ndarray, pin: float | None = None) -> tuple[np.ndarray, LossBreakdown, np.ndarray]:
    """Loss terms of the output jet y (shape (4, n + 2)) at the n grid points
    followed by the anchors 0 and eta_m, as in `anchored_points`.

    Returns (r, breakdown, ybar): the residuals at the grid points, the loss
    breakdown, and ybar = d(total)/dy for the reverse pass.
    """
    n = y.shape[1] - 2
    r = residual(y[:, :n])
    f0, fp0, fpp0 = y[0, n], y[1, n], y[2, n]
    fp_far = y[1, n + 1]
    ybar = np.zeros_like(y)
    ybar[0, :n] = r * y[2, :n]          # 2 r * d r/d f, with d r/d f = f''/2
    ybar[2, :n] = r * y[0, :n]
    ybar[3, :n] = 2.0 * r
    ybar[0, n] += 2.0 * f0
    ybar[1, n] += 2.0 * fp0
    ybar[1, n + 1] += 2.0 * (fp_far - 1.0)
    if pin is not None:
        ybar[2, n] += 2.0 * (fpp0 - pin)
    breakdown = LossBreakdown(
        ode=float(np.sum(r * r)),
        init=float(f0 ** 2 + fp0 ** 2),
        boundary=float((fp_far - 1.0) ** 2),
        pin=0.0 if pin is None else float((fpp0 - pin) ** 2),
    )
    return r, breakdown, ybar


def loss_total(p: ParamVector, grid: CollocationGrid, pin: float | None = None) -> LossBreakdown:
    """Full loss breakdown; one batched forward pass over grid + anchors."""
    return loss_terms(forward_jet_batch(p, grid.anchored_points), pin)[1]
