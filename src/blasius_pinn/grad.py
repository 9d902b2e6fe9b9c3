"""Exact parameter gradient of the physics-informed loss.

Reverse pass over the recorded jet computation: the loss touches all four
derivative channels of the network output, so adjoints are propagated for
the full (value, d1, d2, d3) state through every layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import CollocationGrid, LossBreakdown, loss_terms, residual_rows, row_points
from .network import ParamVector, Workspace, backward_jet_batch, forward_jet_batch, row_gram


class DivergenceError(RuntimeError):
    """Raised when the loss becomes non-finite during evaluation/training."""


@dataclass
class GradResult:
    loss: LossBreakdown
    grad: np.ndarray


def loss_and_grad(p: ParamVector, grid: CollocationGrid, pin: float | None = None,
                  *, ws: Workspace | None = None) -> GradResult:
    """Loss breakdown and d(total)/d(theta) in one forward + one reverse pass.

    `ws` is a Workspace for p's shapes and the grid's n + 2 points; a caller
    that evaluates repeatedly, as optim.train does, passes the same one each
    time, and without one a temporary workspace is used.  The gradient is a
    fresh array, so it stays valid across later calls.
    """
    pts = grid.anchored_points
    if ws is None:
        ws = Workspace(p.shapes, pts.size)
    y = forward_jet_batch(p, pts, ws=ws)
    r, breakdown, ybar = loss_terms(y, pin)
    if not np.all(np.isfinite(r)):
        bad = int(np.argmax(~np.isfinite(r)))
        raise DivergenceError(f"non-finite residual at eta={pts[bad]:.6g}")
    if not np.isfinite(breakdown.total):
        raise DivergenceError("non-finite loss")

    grad = backward_jet_batch(p, ws, ybar)
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("non-finite gradient")
    return GradResult(breakdown, grad)


def residual_gram(p: ParamVector, grid: CollocationGrid, pin: float | None = None,
                  *, ws: Workspace):
    """The loss's rows r at p (see loss.residual_rows), G = J J' and the map
    w -> J'w, for their Jacobian J = dr/d(theta), which is never formed.

    One forward pass over the m rows' points (`loss.row_points`), so `ws`
    holds at least m points, then network.row_gram.  The total loss is
    sum(r * r) and its gradient 2 J'r.  Returns (r, G, J'-map).
    """
    n = grid.n
    etas = grid.anchored_points[row_points(n, pin is not None)]
    y = forward_jet_batch(p, etas, ws=ws)
    # the first n + 2 rows' points are the anchored points
    r, seeds = residual_rows(y[:, : n + 2], pin)
    if not np.all(np.isfinite(r)):
        raise DivergenceError("non-finite residual row")
    return (r,) + row_gram(p, ws, seeds)
