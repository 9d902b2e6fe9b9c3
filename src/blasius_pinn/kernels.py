"""Elementwise tanh-jet kernels: tanh through an order-3 Taylor jet, forward
and adjoint.

Layout convention: jets are stored channel-first as float64 arrays of shape
(4, N): rows are (value, d1, d2, d3) with respect to eta.  Each kernel
writes its result into `out` and its intermediates into a few rows of
`scratch` rather than one temporary per subexpression, and forms powers by
repeated products.  A caller that reuses both buffers across calls
allocates nothing.  The network's input enters as the jet (eta, 1, 0, 0),
so every hidden layer, the first included, passes all four channels through
both kernels.
"""

import numpy as np


def backend_name() -> str:
    return "numpy"


def _rows(scratch, k: int, n: int):
    """k scratch rows of length n from the front of `scratch`."""
    return scratch.reshape(-1)[: k * n].reshape(k, n)


def tanh_jet_forward(z, *, out, scratch):
    """Apply tanh through an order-3 jet, elementwise.

    With t = tanh(z[0]), s1 = 1 - t^2, s2 = -2 t s1 and
    s3 = -2 s1 (1 - 3 t^2), the output is
    (t, s1 u1, s2 u1^2 + s1 u2, s3 u1^3 + 3 s2 u1 u2 + s1 u3).
    `out` (4, N) receives the result and `scratch` (at least 4N floats) the
    intermediates.  Returns out; its value row out[0] is the t that
    tanh_jet_backward takes.
    """
    u1, u2, u3 = z[1], z[2], z[3]
    t = np.tanh(z[0], out=out[0])
    s1, p, w, x = _rows(scratch, 4, z.shape[1])
    np.multiply(t, t, out=w)
    np.subtract(1.0, w, out=s1)
    np.multiply(s1, u1, out=out[1])
    np.multiply(t, -2.0, out=p)
    p *= s1
    p *= u1                                     # s2 u1
    np.multiply(p, u1, out=out[2])
    np.multiply(s1, u2, out=x)
    out[2] += x
    w *= -3.0
    w += 1.0
    w *= s1
    w *= -2.0                                   # s3
    np.multiply(u1, u1, out=x)
    x *= u1
    w *= x                                      # s3 u1^3
    np.multiply(p, u2, out=x)
    x *= 3.0
    w += x
    np.multiply(s1, u3, out=out[3])
    out[3] += w
    return out


def tanh_jet_backward(t, z, abar, *, out, scratch):
    """Adjoint of tanh_jet_forward: map output adjoints to input adjoints.

    With p = s2 u1, c = s3 u1^2 + s2 u2 and s4 = s2 (12 t^2 - 8) (the third
    derivative of tanh' written through s2):
        zbar3 = a3 s1
        zbar2 = a2 s1 + 3 a3 p
        zbar1 = a1 s1 + 2 a2 p + 3 a3 c
        zbar0 = a0 s1 + a1 p + a2 c + a3 (u1 (s4 u1^2 + 3 s3 u2) + s2 u3)
    `out` (4, N) receives zbar and `scratch` (at least 7N floats) the
    intermediates.  `out` may be z itself: z[1..3] are all read before the
    first write to out, and z[0] is never read.
    """
    u1, u2, u3 = z[1], z[2], z[3]
    a0, a1, a2, a3 = abar
    s1, s2, s3, p, c, w, x = _rows(scratch, 7, z.shape[1])
    np.multiply(t, t, out=w)                    # t^2
    np.subtract(1.0, w, out=s1)
    np.multiply(t, -2.0, out=s2)
    s2 *= s1
    np.multiply(w, 6.0, out=s3)
    s3 -= 2.0
    s3 *= s1                                    # s3 = s1 (6 t^2 - 2)
    w *= 12.0
    w -= 8.0
    w *= s2                                     # s4
    np.multiply(s2, u1, out=p)
    np.multiply(u1, u1, out=x)
    w *= x                                      # s4 u1^2
    np.multiply(s3, x, out=c)
    np.multiply(s2, u2, out=x)
    c += x
    np.multiply(s3, u2, out=x)
    x *= 3.0
    w += x
    w *= u1
    np.multiply(s2, u3, out=x)
    w += x
    w *= a3                                     # a3 (u1 (s4 u1^2 + 3 s3 u2) + s2 u3)
    np.multiply(a3, 3.0, out=s3)                # 3 a3; s3 is no longer needed
    np.multiply(a3, s1, out=out[3])
    np.multiply(a2, s1, out=out[2])
    np.multiply(s3, p, out=x)
    out[2] += x
    np.multiply(a1, s1, out=out[1])
    np.multiply(a2, p, out=x)
    x *= 2.0
    out[1] += x
    np.multiply(s3, c, out=x)
    out[1] += x
    np.multiply(a0, s1, out=out[0])
    np.multiply(a1, p, out=x)
    out[0] += x
    np.multiply(a2, c, out=x)
    out[0] += x
    out[0] += w
    return out
