import numpy as np
import pytest

from blasius_pinn.network import (
    NetworkConfig,
    ParamVector,
    forward_jet_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from blasius_pinn.grad import loss_and_grad
from blasius_pinn.loss import CollocationGrid, loss_total
from fd_oracle import central_d1, central_d2, central_d3, fd_gradient_coords, grad_close
from jet_reference import forward_jet


def small_params(seed=0, depth=2, width=8):
    return init_params(NetworkConfig(depth=depth, width=width, seed=seed))


def jet_at(p, eta):
    # value and first three eta-derivatives of the batched path at one point
    return forward_jet_batch(p, np.array([eta]))[:, 0]


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(depth=0, width=10)
    with pytest.raises(ValueError):
        NetworkConfig(depth=2, width=0)


def test_param_count_default_architecture():
    cfg = NetworkConfig(depth=2, width=100, seed=0)
    assert cfg.param_count() == (1 * 100 + 100) + (100 * 100 + 100) + (100 * 1 + 1) == 10401
    assert len(init_params(cfg)) == 10401


@pytest.mark.parametrize("depth,width", [(1, 3), (3, 7), (2, 100), (4, 90)])
def test_param_count_formula(depth, width):
    cfg = NetworkConfig(depth=depth, width=width, seed=0)
    dims = [1] + [width] * depth + [1]
    expected = sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))
    assert cfg.param_count() == expected == len(init_params(cfg))


def test_init_deterministic():
    cfg = NetworkConfig(depth=2, width=100, seed=1234)
    a = init_params(cfg)
    b = init_params(cfg)
    assert np.array_equal(a.values, b.values)


def test_init_glorot_bounds_and_zero_biases():
    cfg = NetworkConfig(depth=2, width=100, seed=7)
    p = init_params(cfg)
    for (fi, fo), (w, b) in zip(cfg.layer_shapes(), p.layers()):
        lim = np.sqrt(6.0 / (fi + fo))
        assert np.all(np.abs(w) <= lim)
        assert np.all(b == 0.0)


def test_zero_network_outputs_zero():
    cfg = NetworkConfig(depth=2, width=5, seed=0)
    p = ParamVector(np.zeros(cfg.param_count()), cfg.layer_shapes())
    for eta in (-3.0, 0.0, 2.5, 8.0):
        j = forward_jet(p, eta)
        assert (j.v, j.d1, j.d2, j.d3) == (0.0, 0.0, 0.0, 0.0)
    y = forward_jet_batch(p, np.array([-1.0, 0.0, 4.0]))
    assert np.all(y == 0.0)


def test_forward_pure_and_order_independent():
    p = small_params(seed=5)
    a1 = jet_at(p, 0.7)
    b1 = jet_at(p, 3.1)
    b2 = jet_at(p, 3.1)
    a2 = jet_at(p, 0.7)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_batch_matches_scalar_path():
    p = small_params(seed=2, depth=2, width=10)
    etas = np.linspace(-2, 8, 13)
    y = forward_jet_batch(p, etas)
    for k, eta in enumerate(etas):
        j = forward_jet(p, float(eta))
        np.testing.assert_allclose(y[:, k], [j.v, j.d1, j.d2, j.d3], rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("depth,width", [(2, 100), (3, 12), (1, 8), (3, 1)])
def test_fan1_broadcasts_match_scalar_and_fd(depth, width):
    # the batched passes form a product over a fan-in of 1 (layer 0, whose
    # input jet is (eta, 1, 0, 0), and every layer at width 1) or a fan-out
    # of 1 (the output layer, in reverse) as a broadcast; the scalar jet
    # path and finite differences treat every layer alike
    cfg = NetworkConfig(depth=depth, width=width, seed=4)
    p = init_params(cfg)
    p = ParamVector(p.values + 0.05 * np.random.default_rng(1).normal(size=len(p)), p.shapes)
    etas = np.array([-1.5, 0.0, 0.8, 3.3, 7.9])
    y = forward_jet_batch(p, etas)
    for k, eta in enumerate(etas):
        j = forward_jet(p, float(eta))
        np.testing.assert_allclose(y[:, k], [j.v, j.d1, j.d2, j.d3], rtol=1e-11, atol=1e-13)
    grid = CollocationGrid(0.0, 8.0, 20)
    rng = np.random.default_rng(2)
    # every layer-0 weight and bias, and a sample of the other parameters
    # (all of them in a network with fewer than 20 others)
    rest = np.arange(2 * width, len(p))
    coords = np.concatenate([np.arange(2 * width),
                             rng.choice(rest, size=min(20, rest.size), replace=False)])
    grad = loss_and_grad(p, grid).grad[coords]
    fd = fd_gradient_coords(lambda v: loss_total(ParamVector(v, p.shapes), grid).total,
                            p.values, coords)
    assert grad_close(grad, fd, rel=1e-5, abs_floor=1e-8)


def test_continuity_probe():
    p = small_params(seed=9)
    for eta in (0.0, 1.0, 4.5):
        assert abs(jet_at(p, eta + 1e-9)[0] - jet_at(p, eta)[0]) <= 1e-6


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_derivative_channels_match_finite_differences(seed):
    p = small_params(seed=seed, depth=2, width=12)

    def fv(eta):
        return jet_at(p, eta)[0]

    for eta in (0.3, 1.7, 4.2):
        _, d1, d2, d3 = jet_at(p, eta)
        assert d1 == pytest.approx(central_d1(fv, eta, h=1e-5), rel=1e-6, abs=1e-10)
        assert d2 == pytest.approx(central_d2(fv, eta, h=1e-4), rel=1e-4, abs=1e-8)
        # five-point stencil, wide step: cancellation dominates below h=1e-2
        assert d3 == pytest.approx(central_d3(fv, eta, h=1e-2), rel=1e-2, abs=1e-6)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = NetworkConfig(depth=2, width=17, seed=42)
    p = init_params(cfg)
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, cfg, p)
    cfg2, p2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert np.array_equal(p2.values, p.values)
    assert p2.shapes == p.shapes


def test_checkpoint_bytes_match_the_per_value_formatting(tmp_path):
    # the default shape, with values the bulk formatter hands to % (5e-324,
    # 1e300, 1e17) or treats apart (-0.0)
    cfg = NetworkConfig()
    p = init_params(cfg)
    p.values[:4] = [-0.0, 5e-324, 1e300, 1e17]
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, cfg, p)
    want = "blasius-pinn-checkpoint v1\n2 100 0\n" + "".join(f"{x:.17g}\n" for x in p.values)
    assert path.read_text() == want


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a checkpoint\n1 2 3\n")
    with pytest.raises(ValueError):
        load_checkpoint(path)
    path.write_text("blasius-pinn-checkpoint v1\n2 5 0\n1.0\n2.0\n")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_param_vector_shape_validation():
    with pytest.raises(ValueError):
        ParamVector(np.zeros(7), [(1, 3), (3, 1)])
