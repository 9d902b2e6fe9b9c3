import numpy as np
import pytest

from blasius_pinn.grad import DivergenceError, loss_and_grad
from blasius_pinn.loss import CollocationGrid, loss_total
from blasius_pinn.network import NetworkConfig, ParamVector, init_params
from fd_oracle import fd_gradient_coords, grad_close

GRID = CollocationGrid(0.0, 8.0, 25)


def loss_fn(shapes, grid=GRID, pin=None):
    def fn(values):
        p = ParamVector(values, shapes)
        return loss_total(p, grid, pin=pin).total
    return fn


def test_loss_matches_forward_only_path():
    cfg = NetworkConfig(depth=2, width=12, seed=0)
    p = init_params(cfg)
    res = loss_and_grad(p, GRID, pin=0.3)
    bd = loss_total(p, GRID, pin=0.3)
    assert res.loss.ode == pytest.approx(bd.ode, rel=1e-12)
    assert res.loss.init == pytest.approx(bd.init, rel=1e-12)
    assert res.loss.boundary == pytest.approx(bd.boundary, rel=1e-12)
    assert res.loss.pin == pytest.approx(bd.pin, rel=1e-12)
    assert res.grad.shape == (cfg.param_count(),)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences(seed):
    cfg = NetworkConfig(depth=2, width=10, seed=seed)
    p = init_params(cfg)
    rng = np.random.default_rng(seed + 100)
    coords = rng.choice(cfg.param_count(), size=40, replace=False)
    res = loss_and_grad(p, GRID)
    fd = fd_gradient_coords(loss_fn(cfg.layer_shapes()), p.values, coords)
    assert grad_close(res.grad[coords], fd, rel=1e-5, abs_floor=1e-8)


def test_gradient_with_pin():
    cfg = NetworkConfig(depth=2, width=8, seed=4)
    p = init_params(cfg)
    rng = np.random.default_rng(7)
    coords = rng.choice(cfg.param_count(), size=30, replace=False)
    res = loss_and_grad(p, GRID, pin=0.33)
    fd = fd_gradient_coords(loss_fn(cfg.layer_shapes(), pin=0.33), p.values, coords)
    assert grad_close(res.grad[coords], fd, rel=1e-5, abs_floor=1e-8)


def test_gradient_deeper_network():
    cfg = NetworkConfig(depth=3, width=7, seed=5)
    p = init_params(cfg)
    rng = np.random.default_rng(11)
    coords = rng.choice(cfg.param_count(), size=30, replace=False)
    res = loss_and_grad(p, CollocationGrid(0.0, 6.0, 15))
    fd = fd_gradient_coords(
        loss_fn(cfg.layer_shapes(), grid=CollocationGrid(0.0, 6.0, 15)), p.values, coords
    )
    assert grad_close(res.grad[coords], fd, rel=1e-5, abs_floor=1e-8)


def test_zero_network_gradient_is_boundary_only():
    # zero weights: output and residual vanish identically; only the
    # far-field term (f' - 1)^2 contributes, and its gradient with respect
    # to every weight also vanishes because the output layer weights are 0
    cfg = NetworkConfig(depth=2, width=5, seed=0)
    p = ParamVector(np.zeros(cfg.param_count()), cfg.layer_shapes())
    res = loss_and_grad(p, GRID)
    assert res.loss.total == 1.0
    fd = fd_gradient_coords(loss_fn(cfg.layer_shapes()), p.values, range(len(p.values)))
    assert grad_close(res.grad, fd, rel=1e-5, abs_floor=1e-8)


def test_gradient_is_deterministic():
    cfg = NetworkConfig(depth=2, width=10, seed=2)
    p = init_params(cfg)
    g1 = loss_and_grad(p, GRID).grad
    g2 = loss_and_grad(p, GRID).grad
    assert np.array_equal(g1, g2)


def test_divergence_error_on_nonfinite_params():
    cfg = NetworkConfig(depth=2, width=5, seed=0)
    vals = np.full(cfg.param_count(), np.nan)
    p = ParamVector(vals, cfg.layer_shapes())
    with pytest.raises(DivergenceError):
        loss_and_grad(p, GRID)
