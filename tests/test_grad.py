import os
import subprocess
import sys

import numpy as np
import pytest

import blasius_pinn
from blasius_pinn.grad import DivergenceError, loss_and_grad
from blasius_pinn.loss import CollocationGrid, loss_total, residual_rows, row_count
from blasius_pinn.network import (NetworkConfig, ParamVector, Workspace, backward_jet_batch,
                                  forward_jet_batch, init_params, row_gram)
from fd_oracle import fd_gradient_coords, grad_close
from jet_reference import residual_jacobian
from loss_reference import loss_terms_reference, row_weights_reference
from test_workspace import perturbed

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


@pytest.mark.parametrize("grid,pin", [(CollocationGrid(0.0, 8.0, 100), None),
                                      (CollocationGrid(-4.5, 7.0, 100), 0.33)],
                         ids=["default", "probe_pinned"])
def test_loss_and_grad_bytes_match_the_term_by_term_loss(grid, pin):
    # on the rows' points, every byte of the loss and the gradient is the
    # one the term-by-term loss terms give; the gradient is J'w for the
    # term-by-term seeds and weights w = 2 r
    p = perturbed(NetworkConfig(), 3)
    ws = Workspace(p.shapes, row_count(grid.n, pin is not None))
    y = forward_jet_batch(p, grid.row_etas(pin is not None), ws=ws)
    _, want_loss, _ = loss_terms_reference(y, pin)
    w, seeds = row_weights_reference(y, pin)
    want_grad = backward_jet_batch(p, ws, seeds, w)
    res = loss_and_grad(p, grid, pin=pin)
    assert res.loss == want_loss
    assert res.grad.tobytes() == want_grad.tobytes()


def rows_at(values, shapes, grid, pin):
    y = forward_jet_batch(ParamVector(values, shapes), grid.row_etas(pin is not None))
    return residual_rows(y, pin)[0]


@pytest.mark.parametrize("pin", [None, 0.3], ids=["unpinned", "pinned"])
def test_residual_jacobian_matches_central_differences(pin):
    # every row, every parameter of the explicit reference Jacobian
    cfg = NetworkConfig(depth=2, width=6, seed=7)
    p = init_params(cfg)
    grid = CollocationGrid(-1.0, 6.0, 9)
    r, jac = residual_jacobian(p, grid, pin)
    assert jac.shape == (grid.n + 3 + (pin is not None), len(p))
    assert r.tobytes() == rows_at(p.values, p.shapes, grid, pin).tobytes()
    h = 1e-6
    for i in range(len(p)):
        step = np.zeros(len(p))
        step[i] = h
        fd = (rows_at(p.values + step, p.shapes, grid, pin)
              - rows_at(p.values - step, p.shapes, grid, pin)) / (2.0 * h)
        assert grad_close(jac[:, i], fd, rel=1e-6, abs_floor=1e-8), i


@pytest.mark.parametrize("grid,pin", [(CollocationGrid(0.0, 8.0, 100), None),
                                      (CollocationGrid(-4.5, 7.0, 100), 0.33)],
                         ids=["default", "probe_pinned"])
def test_jacobian_gradient_is_the_loss_gradient(grid, pin):
    # total loss = sum(r * r), so its gradient is 2 J'r
    p = perturbed(NetworkConfig(), 4)
    ws = Workspace(p.shapes, row_count(grid.n, pin is not None))
    res = loss_and_grad(p, grid, pin=pin, ws=ws)
    r = res.r
    _, jt = row_gram(p, ws, res.seeds)
    assert float(r @ r) == pytest.approx(res.loss.total, rel=1e-14)
    assert np.max(np.abs(2.0 * jt(r) - res.grad)) <= 1e-14 * np.max(np.abs(res.grad))


@pytest.mark.parametrize("cfg,grid,pin", [
    (NetworkConfig(), CollocationGrid(0.0, 8.0, 100), None),
    (NetworkConfig(), CollocationGrid(-4.5, 7.0, 100), 0.33),
    (NetworkConfig(depth=3, width=17), CollocationGrid(0.0, 8.0, 100), None),
    (NetworkConfig(depth=1, width=8), CollocationGrid(0.0, 8.0, 100), None),
    (NetworkConfig(depth=3, width=1), CollocationGrid(0.0, 8.0, 100), None),
], ids=["default", "probe_pinned", "depth3_width17", "depth1_width8", "depth3_width1"])
def test_gram_and_transpose_map_match_the_explicit_jacobian(cfg, grid, pin):
    # G = J J' and jt(w) = J'w from each layer's factors, against the
    # explicit J; depth 1 has no layer whose fan-in and fan-out exceed 1,
    # and at width 1 every layer builds its m-row block of J for G
    p = perturbed(cfg, 3)
    want_r, jac = residual_jacobian(p, grid, pin)
    ws = Workspace(p.shapes, jac.shape[0])
    res = loss_and_grad(p, grid, pin, ws=ws)
    r = res.r
    gram, jt = row_gram(p, ws, res.seeds)
    assert r.tobytes() == want_r.tobytes()
    want = jac @ jac.T
    assert np.max(np.abs(gram - want)) <= 1e-14 * np.max(np.abs(want))
    for seed in (1, 2):
        w = np.random.default_rng(seed).normal(size=r.size)
        want = jac.T @ w
        assert np.max(np.abs(jt(w) - want)) <= 1e-14 * np.max(np.abs(want))


JACOBIAN_SCRIPT = """
import hashlib
import numpy as np
from blasius_pinn.grad import loss_and_grad
from blasius_pinn.loss import CollocationGrid
from blasius_pinn.network import NetworkConfig, ParamVector, Workspace, init_params
from jet_reference import residual_jacobian

p = init_params(NetworkConfig())
p = ParamVector(p.values + np.random.default_rng(1).normal(scale=0.1, size=len(p)), p.shapes)
digest = hashlib.sha256()
for grid, pin in ((CollocationGrid(0.0, 8.0, 100), None), (CollocationGrid(-4.5, 7.0, 100), 0.33)):
    r, jac = residual_jacobian(p, grid, pin)
    ws = Workspace(p.shapes, r.size)
    loss_and_grad(p, grid, pin, ws=ws)
    # after the reverse pass the hidden layers' z hold its per-row adjoints
    digest.update(r.tobytes() + jac.tobytes() + b"".join(z.tobytes() for z in ws.z[:-1]))
print(digest.hexdigest())
"""


def test_jacobian_bytes_do_not_depend_on_blas_threads():
    # the program's per-row adjoints, which backward_jet_batch leaves in the
    # workspace, and the reference J built on the allocating passes
    src = os.path.dirname(os.path.dirname(blasius_pinn.__file__))
    path = os.pathsep.join([src, os.path.dirname(__file__)])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", JACOBIAN_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=300, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
