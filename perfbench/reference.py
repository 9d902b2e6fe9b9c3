"""Blasius reference solution computed apart from the program, with scipy.

The third-order ODE f''' = -1/2 f f'' is integrated as a first-order system
with scipy's DOP853 at tight tolerances, and the wall curvature s = f''(0) is
found with brentq so that f'(eta_max) = 1.  Nothing here imports
blasius_pinn.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

LITERATURE_S = 0.332057336     # f''(0) of the Blasius function (eta_max -> inf)
LITERATURE_BLOWUP = -5.69004   # where backward integration passes |f| = 1e8
BLOWUP_LIMIT = 1e8
RTOL, ATOL = 1e-13, 1e-14


def _rhs(_eta, y):
    return (y[1], y[2], -0.5 * y[0] * y[2])


def _integrate(s: float, eta_end: float, dense: bool = False, events=None):
    return solve_ivp(_rhs, (0.0, eta_end), (0.0, 0.0, s), method="DOP853",
                     rtol=RTOL, atol=ATOL, dense_output=dense, events=events)


def wall_curvature(eta_max: float) -> float:
    """s such that the solution from (0, 0, s) has f'(eta_max) = 1."""
    return brentq(lambda s: _integrate(s, eta_max).y[1, -1] - 1.0, 0.2, 0.5,
                  xtol=1e-15, rtol=1e-15)


class Profile:
    """(f, f', f'') of the truncated problem on [0, eta_max]."""

    def __init__(self, eta_max: float):
        self.s = wall_curvature(eta_max)
        self._sol = _integrate(self.s, eta_max, dense=True).sol

    def __call__(self, eta) -> np.ndarray:
        """Array of shape (3, n): rows f, f', f''."""
        return self._sol(np.asarray(eta, dtype=float))


def blowup(s: float) -> float:
    """eta < 0 where backward integration from the wall first has |f| = 1e8."""
    def hit(_eta, y):
        return abs(y[0]) - BLOWUP_LIMIT
    hit.terminal = True
    sol = _integrate(s, -10.0, events=hit)
    return float(sol.t_events[0][0])


class Reference:
    """The reference at eta_max = 8 (the program's default) and 10, gated on
    the literature values before anything is compared against it."""

    LITERATURE_S = LITERATURE_S
    LITERATURE_BLOWUP = LITERATURE_BLOWUP

    def __init__(self):
        self.at8 = Profile(8.0)
        self.at10 = Profile(10.0)
        self.blowup = blowup(self.at10.s)
        if abs(self.at10.s - LITERATURE_S) > 5e-9:
            raise RuntimeError(f"reference s*(10) = {self.at10.s!r} is not the "
                               f"literature value {LITERATURE_S}")
        if abs(self.blowup - LITERATURE_BLOWUP) > 1e-4:
            raise RuntimeError(f"reference blow-up {self.blowup!r} is not at "
                               f"{LITERATURE_BLOWUP}")
