import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import exact_growth_onset, exact_profile

import blasius_pinn
from blasius_pinn import analysis, grad
from blasius_pinn.analysis import (
    TABULATE_BLOCK,
    compare,
    compare_tables,
    eta99,
    growth_onset,
    onset_from_profile,
    pole_from_profile,
    probe_negative,
    probe_points,
    tabulate,
)
from blasius_pinn.loss import CollocationGrid, loss_total
from blasius_pinn.network import NetworkConfig, ParamVector, forward_jet_batch, init_params
from blasius_pinn.optim import AdamConfig, LbfgsConfig
from blasius_pinn.oracle import backward_blowup, rk4_shoot

# first eta with f' = 0.99, interpolated on the h=1e-4 shooting table
ETA99_ORACLE = 4.909779995759959


def zero_params(depth=2, width=5):
    cfg = NetworkConfig(depth=depth, width=width, seed=0)
    return ParamVector(np.zeros(cfg.param_count()), cfg.layer_shapes())


def test_eta99_linear_interpolation_synthetic():
    eta = np.array([0.0, 1.0, 2.0])
    fp = np.array([0.0, 0.98, 1.0])
    assert eta99(eta, fp) == pytest.approx(1.5)
    assert eta99(np.array([3.0, 4.0]), np.array([0.995, 1.0])) == 3.0
    assert np.isnan(eta99(eta, np.array([0.0, 0.5, 0.9])))


def test_eta99_on_oracle_table(shoot_result):
    t = shoot_result.table
    assert eta99(t.eta, t.fp) == pytest.approx(ETA99_ORACLE, abs=1e-10)
    # classical boundary-layer thickness is about 4.91
    assert eta99(t.eta, t.fp) == pytest.approx(4.91, abs=5e-3)


def test_tabulate_zero_network():
    t = tabulate(zero_params(), np.linspace(0, 8, 9))
    assert np.all(t.f == 0) and np.all(t.fp == 0) and np.all(t.residual == 0)
    assert len(t) == 9


def test_tabulate_blocks_match_one_batch():
    # a row count that ends two blocks and starts a partial third
    p = init_params(NetworkConfig(depth=2, width=100, seed=3))
    etas = np.linspace(-1.0, 9.0, 2 * TABULATE_BLOCK + 17)
    t = tabulate(p, etas)
    y = forward_jet_batch(p, etas)
    assert len(t) == etas.size and np.array_equal(t.eta, etas)
    for got, want in ((t.f, y[0]), (t.fp, y[1]), (t.fpp, y[2]),
                      (t.residual, y[3] + 0.5 * y[0] * y[2])):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


TABULATE_SCRIPT = """
import hashlib
import numpy as np
from blasius_pinn.analysis import tabulate
from blasius_pinn.network import NetworkConfig, ParamVector, init_params

p = init_params(NetworkConfig(2, 100, 0))
p = ParamVector(p.values + np.random.default_rng(1).normal(scale=0.1, size=len(p)), p.shapes)
t = tabulate(p, np.arange(80001) * 1e-4)
print(hashlib.sha256(np.stack([t.f, t.fp, t.fpp, t.residual]).tobytes()).hexdigest())
"""


def test_tabulate_bytes_do_not_depend_on_blas_threads():
    # with 4096-node blocks the residual at the last two nodes differed in
    # its last bit between one and two OpenBLAS threads
    src = os.path.dirname(os.path.dirname(blasius_pinn.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", TABULATE_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=300, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_compare_tables_rejects_mismatched_grids(shoot_result):
    t = shoot_result.table
    pred = tabulate(zero_params(), np.linspace(0, 8, 10))
    with pytest.raises(ValueError):
        compare_tables(pred, t)


def test_compare_against_oracle_identity(shoot_result):
    t = shoot_result.table
    rep = compare_tables(t, t)
    assert rep.max_abs_err_f == 0.0
    assert rep.rms_err_f == 0.0
    assert rep.eta99_pinn == rep.eta99_oracle
    assert rep.wall_curvature_oracle == pytest.approx(shoot_result.s_star, abs=1e-12)


def test_trained_network_matches_oracle(trained_default, shoot_result):
    p, _ = trained_default
    rep = compare(p, shoot_result.table)
    assert rep.max_abs_err_f <= 1e-3
    assert rep.max_abs_err_fp <= 1e-3
    assert rep.rms_err_f <= rep.max_abs_err_f
    assert rep.wall_curvature_pinn == pytest.approx(shoot_result.s_star, abs=1e-4)
    assert rep.eta99_pinn == pytest.approx(ETA99_ORACLE, abs=5e-3)


def test_compare_wall_curvature_is_the_tables_first_row(shoot_result):
    # the export grid's eta = 0 row; a separate one-point forward pass gave
    # f''(0) a few units in the last place away for most of these networks
    oracle_table = rk4_shoot(shoot_result.s_star, 1e-2, 8.0)
    base = init_params(NetworkConfig())
    for seed in range(1, 21):
        noise = np.random.default_rng(seed).normal(scale=0.1, size=len(base))
        p = ParamVector(base.values + noise, base.shapes)
        exported = tabulate(p, np.linspace(0, 8, 100)).fpp[0]
        assert compare(p, oracle_table).wall_curvature_pinn == exported


def test_onset_from_profile_synthetic():
    ref = np.full(100, 1.0)
    scan_eta = np.linspace(-6, 0, 601)
    fppp = np.ones_like(scan_eta)
    fppp[scan_eta < -5.0] = 500.0
    onset, med = onset_from_profile(scan_eta, fppp, ref)
    assert med == 1.0
    assert onset == pytest.approx(-5.0, abs=0.02)
    onset_none, _ = onset_from_profile(scan_eta, np.ones_like(scan_eta), ref)
    assert onset_none is None


def test_onset_invariant_under_rescaling():
    ref = np.abs(np.sin(np.linspace(0, 5, 200))) + 0.1
    scan_eta = np.linspace(-6, 0, 400)
    fppp = 0.2 + 1e4 * np.exp(-((scan_eta + 5.7) / 0.1) ** 2)
    o1, _ = onset_from_profile(scan_eta, fppp, ref)
    o2, _ = onset_from_profile(scan_eta, 37.0 * fppp, 37.0 * ref)
    assert o1 == o2


def test_growth_onset_zero_network_has_none():
    # zero network: f''' vanishes identically, median 0, no onset reported
    onset, med = growth_onset(zero_params(), -6.0, 0.0)
    assert onset is None
    assert med == 0.0


def test_trained_network_smooth_on_training_interval(trained_default):
    p, _ = trained_default
    onset, med = growth_onset(p, 0.0, 8.0)
    assert med > 0.0
    assert onset is None  # no 100x spike inside the trained region


def test_trained_residual_small_on_grid(trained_default):
    p, _ = trained_default
    t = tabulate(p, np.linspace(0, 8, 100))
    bd = loss_total(p, CollocationGrid(0.0, 8.0, 100))
    assert np.max(np.abs(t.residual)) ** 2 <= bd.ode + 1e-12
    assert np.max(np.abs(t.residual)) <= 1e-3


def test_pole_from_profile_on_exact_solution(shoot_result):
    # gate for the Laurent-term estimator before it is trusted on a network
    s = shoot_result.s_star
    eta_b = backward_blowup(s, h=1e-5)
    eta, f, _ = exact_profile(s, -5.0, 0.0)
    for eta0 in (-5.0, -4.5):
        keep = eta >= eta0 - 1e-9
        assert pole_from_profile(eta[keep], f[keep]) == pytest.approx(eta_b, abs=0.02)


def test_pole_from_profile_needs_growth():
    eta = np.linspace(-4.0, 0.0, 5)
    assert pole_from_profile(eta, np.zeros(5)) is None
    assert pole_from_profile(eta, -np.ones(5)) is None
    # an exact pole term is inverted exactly
    assert pole_from_profile(eta, 6.0 / (eta + 5.7)) == pytest.approx(-5.7, abs=1e-12)
    # a pole farther beyond the leftmost sample than it lies from the wall
    # is outside what the profile can tell
    assert pole_from_profile(eta, 6.0 / (eta + 8.0)) == pytest.approx(-8.0, abs=1e-12)
    assert pole_from_profile(eta, 6.0 / (eta + 8.5)) is None
    assert pole_from_profile(eta, np.full(5, 0.1)) is None


def test_growth_onset_on_exact_solution_precedes_pole(shoot_result):
    # The detector (largest eta where |f'''| > 100x its median on [0, 5]) fires
    # where 36/(eta - eta_s)^4 crosses 100 * 0.0655, about 1.5 to the right of
    # the pole, so no correct solution puts its onset near eta = -5.69.
    onset, med = exact_growth_onset(shoot_result.s_star, -4.5, 7.0)
    assert med == pytest.approx(0.0655, abs=5e-4)
    assert onset == pytest.approx(-4.19, abs=0.02)


def test_probe_negative_short_grid_completes():
    # a grid that stops short of -5.5 used to leave the edge window empty
    net = NetworkConfig(depth=1, width=8, seed=0)
    grid = CollocationGrid(-4.5, 7.0, 20)
    _, sing = probe_negative(zero_params(1, 8), net, AdamConfig(max_steps=30),
                             LbfgsConfig(max_iters=15), grid)
    assert np.isfinite(sing.max_abs_f_edge) and np.isfinite(sing.max_abs_residual_edge)
    assert np.isfinite(sing.final_loss)
    # stopping at the iteration cap is not convergence
    assert sing.report.lbfgs_status == "max_iters"
    assert not sing.converged


@pytest.mark.parametrize("grid", [
    CollocationGrid(-4.5, 7.0, 100),
    CollocationGrid(-5.69, 7.0, 100),
    CollocationGrid(-1.0, 3.0, 20),
    CollocationGrid(1e5, 1e5 + 1, 10),     # past 2^14 the edge is eta0 alone
    CollocationGrid(-20.0, 30.0, 50),
    CollocationGrid(-1.0, 3.0, 600),       # the pinned loss's n + 4 points are the most
], ids=lambda g: f"{g.eta0:g}_{g.eta_m:g}_{g.n}")
def test_probe_points_bounds_every_probe_pass(monkeypatch, grid):
    # RunConfig sizes the jet workspace by probe_points; each lattice
    # probe_negative forwards, and each pass of its training, must fit in it
    sizes, train_sizes = [], []

    def recording(into):
        def forward(p, eta, **kw):
            into.append(np.size(eta))
            return forward_jet_batch(p, eta, **kw)
        return forward

    monkeypatch.setattr(analysis, "forward_jet_batch", recording(sizes))
    monkeypatch.setattr(grad, "forward_jet_batch", recording(train_sizes))
    net = NetworkConfig(depth=1, width=4, seed=0)
    _, sing = probe_negative(init_params(net), net, AdamConfig(max_steps=1),
                             LbfgsConfig(max_iters=1), grid)
    assert np.isfinite(sing.max_abs_f_edge) and np.isfinite(sing.max_abs_residual_edge)
    assert len(sizes) == 4      # the wall, the edge and growth_onset's two lattices
    assert train_sizes
    assert max(sizes + train_sizes) <= probe_points(grid)
