import numpy as np
import pytest

from blasius_pinn.loss import (CollocationGrid, LossBreakdown, loss_total, residual, residual_rows,
                               row_count)
from blasius_pinn.network import NetworkConfig, ParamVector, forward_jet_batch, init_params
from loss_reference import loss_terms_reference, row_weights_reference


def zero_params(depth=2, width=5):
    cfg = NetworkConfig(depth=depth, width=width, seed=0)
    return ParamVector(np.zeros(cfg.param_count()), cfg.layer_shapes())


def const_params(c, depth=2, width=5):
    """All-zero weights with output bias c: the network outputs c everywhere."""
    p = zero_params(depth, width)
    p.values[-1] = c
    return p


def near_identity_params(eps=1e-8):
    """depth-1 width-1 net approximating f(eta) = eta to O(eps^2)."""
    cfg = NetworkConfig(depth=1, width=1, seed=0)
    vals = np.array([eps, 0.0, 1.0 / eps, 0.0])  # w1, b1, w2, b2
    return ParamVector(vals, cfg.layer_shapes())


def jets_at(p, *etas):
    return forward_jet_batch(p, np.array(etas))


def test_grid_validation_and_spacing():
    g = CollocationGrid(0.0, 8.0, 100)
    assert g.points[0] == 0.0 and g.points[-1] == 8.0
    assert np.allclose(np.diff(g.points), (g.eta_m - g.eta0) / (g.n - 1))
    # computed once per grid and shared by every evaluation, so read-only
    assert g.points is g.points
    assert np.array_equal(g.row_etas(False), np.r_[np.linspace(0.0, 8.0, 100), 0.0, 8.0, 0.0])
    with pytest.raises(ValueError):
        g.points[0] = 1.0
    with pytest.raises(ValueError):
        CollocationGrid(8.0, 0.0, 100)
    with pytest.raises(ValueError):
        CollocationGrid(0.0, 8.0, 1)


def test_zero_network_losses():
    p = zero_params()
    g = CollocationGrid(0.0, 8.0, 100)
    assert residual(jets_at(p, 1.3))[0] == 0.0
    bd = loss_total(p, g)
    assert bd.ode == bd.init == bd.pin == 0.0
    assert bd.boundary == 1.0  # (0 - 1)^2
    assert bd.total == 1.0


def test_constant_network_init_loss():
    p = const_params(0.7)
    g = CollocationGrid(0.0, 8.0, 10)
    bd = loss_total(p, g)
    assert bd.ode == 0.0
    assert bd.init == pytest.approx(0.49)  # derivative channel is zero
    assert bd.boundary == 1.0


def test_near_identity_network_boundary_loss():
    p = near_identity_params()
    assert loss_total(p, CollocationGrid(0.0, 8.0, 10)).boundary <= 1e-20  # f' == 1 up to O(eps^2)


def test_two_point_grid_is_sum_of_squared_residuals():
    p = init_params(NetworkConfig(depth=2, width=6, seed=3))
    g = CollocationGrid(0.0, 8.0, 2)
    r0, r8 = residual(jets_at(p, 0.0)), residual(jets_at(p, 8.0))
    assert loss_total(p, g).ode == pytest.approx(r0[0] ** 2 + r8[0] ** 2, rel=1e-12)


def test_loss_total_components_and_pin():
    p = init_params(NetworkConfig(depth=2, width=6, seed=4))
    g = CollocationGrid(-2.0, 3.0, 17)
    bd = loss_total(p, g, pin=0.25)
    # each term against its own forward pass
    assert bd.ode == pytest.approx(np.sum(residual(jets_at(p, *g.points)) ** 2), rel=1e-12)
    wall, far = jets_at(p, 0.0)[:, 0], jets_at(p, 3.0)[:, 0]
    assert bd.init == pytest.approx(wall[0] ** 2 + wall[1] ** 2, rel=1e-12)  # wall stays at 0
    assert bd.boundary == pytest.approx((far[1] - 1.0) ** 2, rel=1e-12)
    assert bd.pin == pytest.approx((wall[2] - 0.25) ** 2, rel=1e-12)
    assert bd.pin > 0.0
    assert bd.total == bd.ode + bd.init + bd.boundary + bd.pin
    assert loss_total(p, g).pin == 0.0


def test_nonnegativity():
    for seed in range(5):
        p = init_params(NetworkConfig(depth=2, width=8, seed=seed))
        bd = loss_total(p, CollocationGrid(0.0, 8.0, 25), pin=0.1)
        assert bd.ode >= 0 and bd.init >= 0 and bd.boundary >= 0 and bd.pin >= 0


def test_determinism_under_repeated_evaluation():
    p = init_params(NetworkConfig(depth=2, width=20, seed=8))
    g = CollocationGrid(0.0, 8.0, 50)
    assert loss_total(p, g) == loss_total(p, g)


def test_sum_semantics_doubling_points():
    # with sum (not mean) semantics, doubling n roughly doubles L_o for a
    # fixed smooth residual profile
    p = init_params(NetworkConfig(depth=2, width=10, seed=1))
    l1 = loss_total(p, CollocationGrid(0.0, 8.0, 100)).ode
    l2 = loss_total(p, CollocationGrid(0.0, 8.0, 200)).ode
    assert 1.5 <= l2 / l1 <= 2.5


def test_breakdown_total_property():
    bd = LossBreakdown(1.0, 2.0, 3.0, 4.0)
    assert bd.total == 10.0


@pytest.mark.parametrize("pin", [None, 0.33], ids=["unpinned", "pinned"])
def test_loss_terms_bytes_match_the_term_by_term_reference(pin):
    # residual_rows builds its breakdown from its rows, and 2 r * seeds is
    # the adjoint at the rows' points; on random jets every byte is the one
    # the term-by-term formulas give
    rng = np.random.default_rng(21)
    for n in (2, 3, 17, 100, 257):
        for scale_ in (1e-3, 1.0, 1e3):
            y = scale_ * rng.normal(size=(4, row_count(n, pin is not None)))
            r, seeds, bd = residual_rows(y, pin)
            want_r, want_bd, want_ybar = loss_terms_reference(y, pin)
            assert r[:n].tobytes() == want_r.tobytes()
            # a structural zero of 2 r * seeds takes r's sign; + 0.0 clears
            # it, as the zero-filled adjoint that the loss terms once summed into
            assert (2.0 * r * seeds + 0.0).tobytes() == want_ybar.tobytes()
            # the gradient's reverse pass takes the seeds and 2 r apart
            want_w, want_seeds = row_weights_reference(y, pin)
            assert (2.0 * r).tobytes() == want_w.tobytes()
            assert seeds.tobytes() == want_seeds.tobytes()
            assert (want_w * want_seeds + 0.0).tobytes() == want_ybar.tobytes()
            for name in ("ode", "init", "boundary", "pin", "total"):
                got, want = getattr(bd, name), getattr(want_bd, name)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), name


@pytest.mark.parametrize("pin", [None, -0.4], ids=["unpinned", "pinned"])
def test_residual_rows_square_to_the_loss_terms(pin):
    n = 10
    y = np.random.default_rng(5).normal(size=(4, row_count(n, pin is not None)))
    r, seeds, bd = residual_rows(y, pin)
    assert r.shape == (n + 3 + (pin is not None),) and seeds.shape == (4, r.size)
    grid = CollocationGrid(-1.0, 8.0, n)
    at = grid.row_etas(pin is not None)
    assert at.tolist() == grid.points.tolist() + [0.0, 8.0] + [0.0] * (r.size - n - 2)
    assert np.sum(r * r) == pytest.approx(bd.total, rel=1e-14)
    # row k reads the jet at point k only, and seeds[:, k] is its derivative
    # there: a bump of one channel at one point moves that point's row alone
    h = 1e-6
    for k in range(r.size):
        for c in range(4):
            up, down = y.copy(), y.copy()
            up[c, k] += h
            down[c, k] -= h
            r_up, r_down = residual_rows(up, pin)[0], residual_rows(down, pin)[0]
            others = np.arange(r.size) != k
            assert np.array_equal(r_up[others], r[others])
            assert np.array_equal(r_down[others], r[others])
            assert (r_up[k] - r_down[k]) / (2.0 * h) == pytest.approx(seeds[c, k], abs=1e-8)
