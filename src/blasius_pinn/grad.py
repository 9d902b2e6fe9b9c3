"""Exact parameter gradient of the physics-informed loss.

Reverse pass over the recorded jet computation: the loss touches all four
derivative channels of the network output, so adjoints are propagated for
the full (value, d1, d2, d3) state through every layer.  `residuals` gives
the loss's rows alone, by the forward pass without the reverse one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import CollocationGrid, LossBreakdown, residual_rows
from .network import ParamVector, Workspace, backward_jet_batch, forward_jet_batch


class DivergenceError(RuntimeError):
    """Raised when the loss becomes non-finite during evaluation/training."""


@dataclass
class GradResult:
    loss: LossBreakdown
    grad: np.ndarray
    r: np.ndarray       # the loss's rows (loss.residual_rows), m of them
    seeds: np.ndarray   # each row's derivative with respect to the jet at its point, (4, m)


def loss_and_grad(p: ParamVector, grid: CollocationGrid, pin: float | None = None,
                  *, ws: Workspace | None = None) -> GradResult:
    """Loss breakdown and d(total)/d(theta) in one forward + one reverse pass.

    The forward pass runs over the rows' points (`grid.row_etas`), one
    point per row of loss.residual_rows, and the reverse pass is seeded
    once per row: the gradient is J'(2 r).  The pass leaves its per-row
    adjoints in the workspace, and network.row_gram forms G = J J' from
    them with the result's seeds, until the workspace's next pass.  `ws`
    is a Workspace for p's shapes and at least the m rows' points; a
    caller that evaluates repeatedly, as optim.train does, passes the same
    one each time, and without one a temporary workspace is used.  The
    result's arrays are fresh, so they stay valid across later calls.
    """
    etas = grid.row_etas(pin is not None)
    if ws is None:
        ws = Workspace(p.shapes, etas.size)
    y = forward_jet_batch(p, etas, ws=ws)
    r, seeds, breakdown = residual_rows(y, pin)
    if not np.all(np.isfinite(r)):
        bad = int(np.argmax(~np.isfinite(r)))
        raise DivergenceError(f"non-finite residual at eta={etas[bad]:.6g}")
    if not np.isfinite(breakdown.total):
        raise DivergenceError("non-finite loss")

    grad = backward_jet_batch(p, ws, seeds, 2.0 * r)
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("non-finite gradient")
    return GradResult(breakdown, grad, r, seeds)


def residuals(p: ParamVector, grid: CollocationGrid, pin: float | None = None,
              *, ws: Workspace | None = None) -> np.ndarray:
    """The loss's rows (loss.residual_rows) at p, by one forward pass over
    the rows' points and no reverse pass, as a fresh array.  Non-finite rows
    are returned as they are, not raised.  `ws` is used as in loss_and_grad:
    its pass replaces what the workspace held, so row_gram can no longer
    read an earlier evaluation's adjoints from it."""
    return residual_rows(forward_jet_batch(p, grid.row_etas(pin is not None), ws=ws), pin)[0]
