"""The caller-owned workspace: the same bytes as the allocating passes, no
result clobbered by a later call, and no page faults once it is warm."""

import os
import subprocess
import sys

import numpy as np
import pytest

import blasius_pinn
from blasius_pinn import kernels
from blasius_pinn.analysis import growth_onset, onset_from_profile
from blasius_pinn.grad import loss_and_grad
from blasius_pinn.loss import CollocationGrid, row_count
from blasius_pinn.network import (NetworkConfig, ParamVector, Workspace, forward_jet_batch,
                                  init_params, workspace_bytes)
from jet_reference import (
    forward_jet_batch_alloc,
    loss_and_grad_alloc,
    tanh_jet_backward_alloc,
    tanh_jet_forward_alloc,
)

SRC = os.path.dirname(os.path.dirname(blasius_pinn.__file__))


def perturbed(cfg: NetworkConfig, seed: int) -> ParamVector:
    p = init_params(cfg)
    noise = np.random.default_rng(seed).normal(scale=0.1, size=len(p))
    return ParamVector(p.values + noise, p.shapes)


@pytest.mark.parametrize("grid,pin", [(CollocationGrid(0.0, 8.0, 100), None),
                                      (CollocationGrid(-4.5, 7.0, 100), 0.33)],
                         ids=["default", "probe_pinned"])
def test_reused_workspace_gives_the_allocating_bytes(grid, pin):
    # three parameter vectors in turn, twice over, through one workspace
    cfg = NetworkConfig()
    params = [perturbed(cfg, seed) for seed in (1, 2, 3)]
    ws = Workspace(params[0].shapes, row_count(grid.n, pin is not None))
    for p in params + params:
        res = loss_and_grad(p, grid, pin=pin, ws=ws)
        want_loss, want_grad = loss_and_grad_alloc(p, grid, pin)
        assert (res.loss.ode, res.loss.init, res.loss.boundary, res.loss.pin) == (
            want_loss.ode, want_loss.init, want_loss.boundary, want_loss.pin)
        assert np.array_equal(res.grad, want_grad)


def test_short_batch_in_a_larger_workspace_gives_the_allocating_bytes():
    # tabulate's last block uses the front of each buffer
    p = perturbed(NetworkConfig(3, 12, 4), 5)
    ws = Workspace(p.shapes, 256)
    for etas in (np.linspace(-1.0, 9.0, 256), np.linspace(0.0, 3.0, 17)):
        y = forward_jet_batch(p, etas, ws=ws)
        assert np.array_equal(y, forward_jet_batch_alloc(p, etas)[0])


def test_kernels_into_buffers_give_the_allocating_bytes():
    rng = np.random.default_rng(0)
    z, abar = rng.normal(size=(4, 300)) * 1.5, rng.normal(size=(4, 300))
    out, scratch = np.full((4, 300), np.nan), np.full(7 * 300, np.nan)
    a = kernels.tanh_jet_forward(z, out=out, scratch=scratch)
    t = a[0]
    want_a, want_t = tanh_jet_forward_alloc(z)
    assert a is out and np.array_equal(a, want_a) and np.array_equal(t, want_t)
    want_zbar = tanh_jet_backward_alloc(t, z, abar)
    zbar = np.full((4, 300), np.nan)
    assert np.array_equal(kernels.tanh_jet_backward(t, z, abar, out=zbar, scratch=scratch), want_zbar)


def test_results_survive_later_calls():
    grid = CollocationGrid(0.0, 8.0, 100)
    cfg = NetworkConfig()
    p1, p2 = perturbed(cfg, 1), perturbed(cfg, 2)
    ws = Workspace(p1.shapes, row_count(grid.n, False))
    first = loss_and_grad(p1, grid, ws=ws)
    held = [a.copy() for a in (first.grad, first.r, first.seeds)]
    loss_and_grad(p2, grid, ws=ws)
    assert all(np.array_equal(a, b) for a, b in zip((first.grad, first.r, first.seeds), held))
    # growth_onset's two back-to-back forward passes without a workspace
    ref, scan = np.arange(0.0, 5.005, 0.01), np.arange(-1.0, 8.005, 0.01)
    y_ref = forward_jet_batch(p1, ref)
    y_ref_held = y_ref.copy()
    forward_jet_batch(p1, scan)
    assert np.array_equal(y_ref, y_ref_held)
    want = onset_from_profile(scan, forward_jet_batch_alloc(p1, scan)[0][3],
                              forward_jet_batch_alloc(p1, ref)[0][3])
    assert growth_onset(p1, -1.0, 8.0) == want


@pytest.mark.parametrize("depth,width,n", [(2, 100, 102), (1, 1, 1), (3, 7, 256), (5, 2, 40)])
def test_workspace_bytes_is_the_buffers_size(depth, width, n):
    # the closed form that the config and the CLI check before allocating
    cfg = NetworkConfig(depth, width, 0)
    ws = Workspace(cfg.layer_shapes(), n)
    buffers = [ws.x, *ws.z, *ws.act, ws.scratch, ws.abar]
    assert workspace_bytes(cfg, n) == sum(b.nbytes for b in buffers)


def test_workspace_rejects_other_shapes_and_more_points():
    p = init_params(NetworkConfig(2, 8, 0))
    with pytest.raises(ValueError):
        forward_jet_batch(p, np.zeros(11), ws=Workspace(p.shapes, 10))
    with pytest.raises(ValueError):
        forward_jet_batch(p, np.zeros(5), ws=Workspace(NetworkConfig(2, 9, 0).layer_shapes(), 10))


FAULTS_SCRIPT = """
import resource
from blasius_pinn.grad import loss_and_grad
from blasius_pinn.loss import CollocationGrid, row_count
from blasius_pinn.network import NetworkConfig, Workspace, init_params

p = init_params(NetworkConfig())
grid = CollocationGrid(0.0, 8.0, 100)
ws = Workspace(p.shapes, row_count(grid.n, False))
for _ in range(20):
    loss_and_grad(p, grid, ws=ws)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    loss_and_grad(p, grid, ws=ws)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_warm_evaluations_do_not_fault():
    # glibc returned each evaluation's freed jet buffers to the kernel and
    # faulted them in again on the next call: 686 faults per evaluation
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    per_eval = float(proc.stdout.split()[-1])
    assert per_eval < 10, f"{per_eval} minor faults per warm evaluation"
