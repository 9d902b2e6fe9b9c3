"""The loss terms as `loss.loss_terms` computed them before it was built on
`loss.residual_rows`: a byte reference for the rows."""

from __future__ import annotations

import numpy as np

from blasius_pinn.loss import LossBreakdown, residual


def loss_terms_reference(y: np.ndarray, pin: float | None = None):
    """(r, breakdown, ybar) of the output jet y (4, n + 2), term by term."""
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
