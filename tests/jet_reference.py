"""References for the batched jet path.

Scalar: truncated Taylor arithmetic of order 3 in the coordinate eta, and
the network evaluated in it one point and one neuron at a time.  Batched:
the allocating kernels and network passes, as a byte reference for the
workspace path, and the explicit residual Jacobian that network.row_gram
factors (at the end of this file), built on the allocating passes alone.

A Jet3 carries a value together with its first three derivatives with
respect to eta.  The tests check `kernels` and `network.forward_jet_batch`
against `tanh_jet` and `forward_jet`, which spell every operation out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


# --- Byte reference for the batched path --------------------------------
# The allocating kernels and network passes that the workspace path
# replaced: every temporary is a fresh array.  The workspace path performs
# the same float operations in the same order, so the tests compare it with
# these for equal bytes, not for closeness.

def tanh_jet_forward_alloc(z):
    u1, u2, u3 = z[1], z[2], z[3]
    out = np.empty_like(z)
    t = np.tanh(z[0], out=out[0])
    s1, p, w, x = np.empty((4, z.shape[1]))
    np.multiply(t, t, out=w)
    np.subtract(1.0, w, out=s1)
    np.multiply(s1, u1, out=out[1])
    np.multiply(t, -2.0, out=p)
    p *= s1
    p *= u1
    np.multiply(p, u1, out=out[2])
    np.multiply(s1, u2, out=x)
    out[2] += x
    w *= -3.0
    w += 1.0
    w *= s1
    w *= -2.0
    np.multiply(u1, u1, out=x)
    x *= u1
    w *= x
    np.multiply(p, u2, out=x)
    x *= 3.0
    w += x
    np.multiply(s1, u3, out=out[3])
    out[3] += w
    return out, t


def tanh_jet_backward_alloc(t, z, abar):
    u1, u2, u3 = z[1], z[2], z[3]
    a0, a1, a2, a3 = abar
    zbar = np.empty_like(z)
    s1, s2, s3, p, c, w, x = np.empty((7, z.shape[1]))
    np.multiply(t, t, out=w)
    np.subtract(1.0, w, out=s1)
    np.multiply(t, -2.0, out=s2)
    s2 *= s1
    np.multiply(w, 6.0, out=s3)
    s3 -= 2.0
    s3 *= s1
    w *= 12.0
    w -= 8.0
    w *= s2
    np.multiply(s2, u1, out=p)
    np.multiply(u1, u1, out=x)
    w *= x
    np.multiply(s3, x, out=c)
    np.multiply(s2, u2, out=x)
    c += x
    np.multiply(s3, u2, out=x)
    x *= 3.0
    w += x
    w *= u1
    np.multiply(s2, u3, out=x)
    w += x
    w *= a3
    np.multiply(a3, 3.0, out=s3)
    np.multiply(a3, s1, out=zbar[3])
    np.multiply(a2, s1, out=zbar[2])
    np.multiply(s3, p, out=x)
    zbar[2] += x
    np.multiply(a1, s1, out=zbar[1])
    np.multiply(a2, p, out=x)
    x *= 2.0
    zbar[1] += x
    np.multiply(s3, c, out=x)
    zbar[1] += x
    np.multiply(a0, s1, out=zbar[0])
    np.multiply(a1, p, out=x)
    zbar[0] += x
    np.multiply(a2, c, out=x)
    zbar[0] += x
    zbar[0] += w
    return zbar


def product_alloc(a, w):
    """a @ w over the stacked channel rows of a jet a (4, m, k); when k = 1
    each row scales w's one row."""
    if w.shape[0] == 1:
        return np.einsum("cmk,kj->cmj", a, w)
    return (a.reshape(-1, w.shape[0]) @ w).reshape(a.shape[:2] + (w.shape[1],))


def forward_jet_batch_alloc(p, etas):
    """(y, cache): the output jets and each layer's (a_in, z, t); the input
    jet is (eta, 1, 0, 0)."""
    etas = np.asarray(etas, dtype=np.float64).ravel()
    n = etas.size
    layers = list(p.layers())
    cache = []
    a = np.zeros((4, n, 1))
    a[0, :, 0] = etas
    a[1] = 1.0
    for li, (w, b) in enumerate(layers):
        fo = w.shape[0]
        z = product_alloc(a, w.T)
        z[0] += b
        if li < len(layers) - 1:
            zf = z.reshape(4, n * fo)
            outf, t = tanh_jet_forward_alloc(zf)
            cache.append((a, zf, t))
            a = outf.reshape(4, n, fo)
        else:
            cache.append((a, None, None))
            a = z
    return a[:, :, 0], cache


def layer_blocks(values, shapes):
    """Each layer's (W, b) views along the last axis of a (..., P) array in
    ParamVector's layout, W (..., fan_out, fan_in)."""
    off = 0
    for fi, fo in shapes:
        w = values[..., off : off + fi * fo]
        yield w.reshape(values.shape[:-1] + (fo, fi)), values[..., off + fi * fo : off + fi * fo + fo]
        off += fi * fo + fo


def row_adjoints_alloc(p, cache, seeds):
    """Each layer's (zbar, a_in), first layer first: the per-row adjoint of
    its pre-activation jet (4, m, fo) for the output adjoints `seeds`
    (4, m), one column per row, and its input jet (4, m, fi) from the
    cache."""
    m = seeds.shape[1]
    layers = list(p.layers())
    factors = []
    zbar = seeds.reshape(4, m, 1)
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        a_in, zf, t = cache[li]
        fo = w.shape[0]
        if li < len(layers) - 1:
            zbar = tanh_jet_backward_alloc(t, zf, np.ascontiguousarray(zbar.reshape(4, m * fo)))
            zbar = zbar.reshape(4, m, fo)
        factors.append((zbar, a_in))
        if li > 0:
            zbar = product_alloc(zbar, w)
    return factors[::-1]


def backward_jet_batch_alloc(p, cache, seeds, w):
    """J'w from the per-row adjoints: w'zbar_0 for each layer's biases and
    the stacked (w * zbar)' a_in for its weights."""
    m = w.size
    flat = np.empty(len(p))
    for (wbar, bbar), (zbar, a_in) in zip(layer_blocks(flat, p.shapes), row_adjoints_alloc(p, cache, seeds)):
        fo, fi = wbar.shape
        np.matmul(w, zbar[0], out=bbar)
        np.matmul((zbar * w[:, None]).reshape(4 * m, fo).T, a_in.reshape(4 * m, fi), out=wbar)
    return flat


def loss_and_grad_alloc(p, grid, pin=None):
    """(LossBreakdown, gradient) through the allocating passes, over the
    rows' points: the gradient is J'(2 r)."""
    from blasius_pinn.loss import residual_rows

    y, cache = forward_jet_batch_alloc(p, grid.row_etas(pin is not None))
    r, seeds, breakdown = residual_rows(y, pin)
    return breakdown, backward_jet_batch_alloc(p, cache, seeds, 2.0 * r)


def row_jacobian(p, cache, seeds, out):
    """Rows of the Jacobian: out[k] = d(sum(seeds[:, k] * y[:, k]))/d(params).

    `cache` is forward_jet_batch_alloc's over the m = seeds.shape[1]
    points, one point per row, and `out` (m, len(p)) receives one parameter
    gradient per row, in ParamVector's layout.  Returns out.
    """
    blocks = layer_blocks(out, p.shapes)
    for (wrows, brows), (zbar, a_in) in zip(blocks, row_adjoints_alloc(p, cache, seeds)):
        np.copyto(brows, zbar[0])
        # per row, the weight adjoint is the sum over channels c of
        # zbar[c] (fo) outer a_in[c] (fi): (m, fo, 4) @ (m, 4, fi)
        np.matmul(zbar.transpose(1, 2, 0), a_in.transpose(1, 0, 2), out=wrows)
    return out


def residual_jacobian(p, grid, pin=None):
    """(r, J): the loss's rows at p and their Jacobian (m, len(p)), built
    explicitly over one allocating forward pass at the rows' points."""
    from blasius_pinn.loss import residual_rows

    y, cache = forward_jet_batch_alloc(p, grid.row_etas(pin is not None))
    r, seeds, _ = residual_rows(y, pin)
    return r, row_jacobian(p, cache, seeds, np.empty((r.size, len(p))))
