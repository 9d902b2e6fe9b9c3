import numpy as np
import pytest

from blasius_pinn import kernels
from jet_reference import Jet3, tanh_jet


def random_jets(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.ascontiguousarray(rng.normal(size=(4, n)) * 1.5)


def forward(z):
    return kernels.tanh_jet_forward(z, out=np.empty_like(z), scratch=np.empty(4 * z.shape[1]))


def test_forward_matches_scalar_jets():
    z = random_jets(64)
    out = forward(z)
    for i in range(z.shape[1]):
        j = tanh_jet(Jet3(*z[:, i]))
        np.testing.assert_allclose(out[:, i], [j.v, j.d1, j.d2, j.d3], rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(out[0], np.tanh(z[0]))


def test_backward_matches_finite_differences():
    # adjoint check: d/dz of sum(abar * forward(z)) against central differences
    z = random_jets(8, seed=1)
    abar = random_jets(8, seed=2)
    t = forward(z)[0]
    zbar = kernels.tanh_jet_backward(t, z, abar, out=np.empty_like(z), scratch=np.empty(7 * z.shape[1]))
    h = 1e-6
    for ch in range(4):
        for i in range(z.shape[1]):
            zp = z.copy()
            zp[ch, i] += h
            zm = z.copy()
            zm[ch, i] -= h
            fp = np.sum(abar * forward(zp))
            fm = np.sum(abar * forward(zm))
            fd = (fp - fm) / (2 * h)
            assert zbar[ch, i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_backward_into_its_own_input_jet_gives_the_same_bytes():
    # the reverse pass writes each layer's adjoint over that layer's z: the
    # kernel reads all of z before its first write
    z, abar = random_jets(300, seed=3), random_jets(300, seed=4)
    t = forward(z)[0]
    scratch = np.empty(7 * z.shape[1])
    want = kernels.tanh_jet_backward(t, z, abar, out=np.empty((4, 300)), scratch=scratch)
    zbar = kernels.tanh_jet_backward(t, z, abar, out=z, scratch=scratch)
    assert np.shares_memory(zbar, z)
    assert zbar.tobytes() == want.tobytes()
