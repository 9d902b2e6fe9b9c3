"""The loss terms as the loss computed them term by term, before it was built on
`loss.residual_rows`: a byte reference for the rows."""

from __future__ import annotations

import numpy as np

from blasius_pinn.loss import LossBreakdown, residual


def loss_terms_reference(y: np.ndarray, pin: float | None = None):
    """(r, breakdown, ybar) of the output jet y at the rows' points (4, m),
    term by term: the n grid points, the wall, eta_m, then the wall again
    for f'(0) and, when pinned, for f''(0).  ybar = d(total)/dy has one
    column per point, so each wall term has its own column."""
    n = y.shape[1] - 3 - (pin is not None)
    r = residual(y[:, :n])
    f0, fp_far, fp0 = y[0, n], y[1, n + 1], y[1, n + 2]
    ybar = np.zeros_like(y)
    ybar[0, :n] = r * y[2, :n]          # 2 r * d r/d f, with d r/d f = f''/2
    ybar[2, :n] = r * y[0, :n]
    ybar[3, :n] = 2.0 * r
    ybar[0, n] = 2.0 * f0
    ybar[1, n + 1] = 2.0 * (fp_far - 1.0)
    ybar[1, n + 2] = 2.0 * fp0
    if pin is not None:
        ybar[2, n + 3] = 2.0 * (y[2, n + 3] - pin)
    breakdown = LossBreakdown(
        ode=float(np.sum(r * r)),
        init=float(f0 ** 2 + fp0 ** 2),
        boundary=float((fp_far - 1.0) ** 2),
        pin=0.0 if pin is None else float((y[2, n + 3] - pin) ** 2),
    )
    return r, breakdown, ybar


def row_weights_reference(y: np.ndarray, pin: float | None = None):
    """(w, seeds) of the output jet y at the rows' points (4, m), term by
    term: each row's weight in the total's gradient, twice the row, and its
    derivative with respect to the jet at its point, one column per row."""
    n = y.shape[1] - 3 - (pin is not None)
    w = np.empty(y.shape[1])
    seeds = np.zeros_like(y)
    w[:n] = 2.0 * residual(y[:, :n])
    seeds[0, :n] = 0.5 * y[2, :n]       # d r/d f = f''/2
    seeds[2, :n] = 0.5 * y[0, :n]
    seeds[3, :n] = 1.0
    w[n], w[n + 1], w[n + 2] = 2.0 * y[0, n], 2.0 * (y[1, n + 1] - 1.0), 2.0 * y[1, n + 2]
    seeds[0, n] = seeds[1, n + 1] = seeds[1, n + 2] = 1.0
    if pin is not None:
        w[n + 3] = 2.0 * (y[2, n + 3] - pin)
        seeds[2, n + 3] = 1.0
    return w, seeds
