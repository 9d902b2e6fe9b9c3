"""Scalar reference for the batched jet path: truncated Taylor arithmetic of
order 3 in the coordinate eta, and the network evaluated in it one point and
one neuron at a time.

A Jet3 carries a value together with its first three derivatives with
respect to eta.  The tests check `kernels` and `network.forward_jet_batch`
against `tanh_jet` and `forward_jet`, which spell every operation out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Jet3:
    """Value and first three eta-derivatives of a scalar quantity."""

    v: float
    d1: float
    d2: float
    d3: float

    def is_finite(self) -> bool:
        return (
            math.isfinite(self.v)
            and math.isfinite(self.d1)
            and math.isfinite(self.d2)
            and math.isfinite(self.d3)
        )


def constant(c: float) -> Jet3:
    """Jet of a quantity that does not depend on eta."""
    return Jet3(c, 0.0, 0.0, 0.0)


def seed(eta: float) -> Jet3:
    """Jet of the coordinate itself: identity function at eta."""
    return Jet3(eta, 1.0, 0.0, 0.0)


def add(a: Jet3, b: Jet3) -> Jet3:
    return Jet3(a.v + b.v, a.d1 + b.d1, a.d2 + b.d2, a.d3 + b.d3)


def scale(a: Jet3, c: float) -> Jet3:
    return Jet3(c * a.v, c * a.d1, c * a.d2, c * a.d3)


def mul(a: Jet3, b: Jet3) -> Jet3:
    """Leibniz product rule through third order.

    Terms are grouped in argument-symmetric pairs so that swapping the
    operands reproduces bit-identical results.
    """
    return Jet3(
        a.v * b.v,
        a.d1 * b.v + a.v * b.d1,
        (a.d2 * b.v + a.v * b.d2) + 2.0 * (a.d1 * b.d1),
        (a.d3 * b.v + a.v * b.d3) + 3.0 * (a.d2 * b.d1 + a.d1 * b.d2),
    )


def tanh_jet(a: Jet3) -> Jet3:
    """tanh composed with a jet, via Faa di Bruno through third order.

    With t = tanh(a.v): g' = 1 - t^2, g'' = -2 t g', g''' = -2 g' (1 - 3 t^2).
    """
    t = math.tanh(a.v)
    g1 = 1.0 - t * t
    g2 = -2.0 * t * g1
    g3 = -2.0 * g1 * (1.0 - 3.0 * t * t)
    return Jet3(
        t,
        g1 * a.d1,
        g2 * a.d1 * a.d1 + g1 * a.d2,
        g3 * a.d1 ** 3 + 3.0 * g2 * a.d1 * a.d2 + g1 * a.d3,
    )


def forward_jet(p, eta: float) -> Jet3:
    """Output jet of the network with parameters p (a ParamVector) at eta."""
    acts = [seed(float(eta))]
    n_layers = len(p.shapes)
    for li, (w, b) in enumerate(p.layers()):
        nxt = []
        for j in range(w.shape[0]):
            z = constant(float(b[j]))
            for i, a in enumerate(acts):
                z = add(z, scale(a, float(w[j, i])))
            if li < n_layers - 1:
                z = tanh_jet(z)
            nxt.append(z)
        acts = nxt
    return acts[0]
