"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`.  Expensive artifacts (the
shooting table and the trained networks) are shared session fixtures, so the
whole gate costs a handful of full training runs.
"""

import time

import numpy as np
import pytest
import sympy as sp

from conftest import ACCEPTANCE_LINES, exact_growth_onset

from blasius_pinn import kernels
from blasius_pinn.analysis import compare, eta99, probe_negative
from blasius_pinn.cli import main as cli_main
from blasius_pinn.grad import loss_and_grad
from blasius_pinn.loss import CollocationGrid, loss_total
from blasius_pinn.network import NetworkConfig, ParamVector, forward_jet_batch, init_params
from blasius_pinn.optim import AdamConfig, LbfgsConfig
from blasius_pinn.oracle import backward_blowup
from fd_oracle import fd_gradient_coords, grad_close
from oracle_reference import order_slope

GRID = CollocationGrid(0.0, 8.0, 100)
PROBE_ETA0 = -4.5   # left end of the criterion-8b probe grid, short of the pole


def report(num: str, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:>3} {name:<22} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def wall_curvature(p: ParamVector) -> float:
    return float(forward_jet_batch(p, np.array([0.0]))[2, 0])


def test_criterion_01_wall_curvature(trained_default, shoot_result):
    p, rep = trained_default
    fpp0 = wall_curvature(p)
    err_oracle = abs(fpp0 - shoot_result.s_star)
    err_published = abs(fpp0 - 0.33165)
    ok = err_oracle <= 2e-3 and err_published <= 1.5e-3 and rep.wall_time_s <= 600.0
    report("1", "wall curvature", ok,
           f"f''(0)={fpp0:.6f} |d_oracle|={err_oracle:.2e} "
           f"|d_published|={err_published:.2e} time={rep.wall_time_s:.1f}s")
    assert ok


def test_criterion_02_final_loss_across_seeds(trained_runs):
    losses = {s: trained_runs(s)[1].best_loss for s in range(5)}
    n_pass = sum(1 for v in losses.values() if v <= 1e-5)
    ok = n_pass >= 3
    report("2", "final loss", ok,
           f"{n_pass}/5 seeds <= 1e-5; losses=" +
           " ".join(f"{s}:{v:.2e}" for s, v in losses.items()))
    assert ok


def test_criterion_03_solution_accuracy(trained_default, shoot_result):
    p, _ = trained_default
    rep = compare(p, shoot_result.table)
    ok = rep.max_abs_err_f <= 5e-3 and rep.max_abs_err_fp <= 5e-3
    report("3", "solution accuracy", ok,
           f"max|df|={rep.max_abs_err_f:.2e} max|df'|={rep.max_abs_err_fp:.2e}")
    assert ok


def test_criterion_04_boundary_layer_edge(trained_default, shoot_result):
    t = shoot_result.table
    i5 = int(np.argmin(np.abs(t.eta - 5.0)))
    e99_oracle = eta99(t.eta, t.fp)
    p, _ = trained_default
    pred = forward_jet_batch(p, t.eta[::100])
    e99_pinn = eta99(t.eta[::100], pred[1])
    ok = t.fp[i5] >= 0.99 and abs(e99_pinn - e99_oracle) <= 0.1
    report("4", "boundary-layer edge", ok,
           f"f'(5)={t.fp[i5]:.5f} eta99_oracle={e99_oracle:.4f} eta99_pinn={e99_pinn:.4f}")
    assert ok


def test_criterion_05_oracle_order(shoot_result):
    t0 = time.perf_counter()
    slope = order_slope(shoot_result.s_star)
    dt = time.perf_counter() - t0
    ok = abs(slope - 4.0) <= 0.3
    report("5", "oracle order", ok, f"slope={slope:.3f} time={dt:.1f}s")
    assert ok


def test_criterion_06_gradient_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    worst = 0.0
    for trial in range(3):
        cfg = NetworkConfig(depth=2, width=100, seed=int(rng.integers(10000)))
        p = init_params(cfg)
        p = ParamVector(p.values + 0.05 * rng.normal(size=len(p.values)), p.shapes)
        coords = rng.choice(cfg.param_count(), size=50, replace=False)
        analytic = loss_and_grad(p, GRID).grad[coords]

        def f(values, shapes=p.shapes):
            return loss_total(ParamVector(values, shapes), GRID).total

        fd = fd_gradient_coords(f, p.values, coords)
        scale_ = np.maximum(np.abs(analytic), np.abs(fd))
        rel = np.max(np.abs(analytic - fd) / np.maximum(scale_, 1e-8 / 1e-5))
        worst = max(worst, float(rel))
        ok = ok and grad_close(analytic, fd, rel=1e-5, abs_floor=1e-8)
    dt = time.perf_counter() - t0
    ok = ok and dt <= 60.0
    report("6", "gradient contract", ok, f"worst_rel={worst:.2e} time={dt:.1f}s")
    assert ok


def test_criterion_07_jet_correctness():
    # the production path against symbolic derivatives: the tanh-jet kernel
    # on the jets of two polynomials, and forward_jet_batch on a small
    # network whose parameters are written out here
    x = sp.Symbol("x")
    points = (-2.1, -0.7, 0.0, 0.4, 1.3, 2.8)

    def sym_jets(expr):
        """(4, len(points)): the expression and its first three derivatives."""
        return np.array([[float(sp.diff(expr, x, k).subs(x, x0)) for x0 in points]
                         for k in range(4)])

    def worst_rel(got, want):
        return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))

    pa = 0.5 * x ** 3 - 1.2 * x + 0.3
    pb = 2.0 * x ** 2 + x - 1.0
    n = len(points)
    worst_kernel = max(worst_rel(kernels.tanh_jet_forward(sym_jets(e), out=np.empty((4, n)),
                                                          scratch=np.empty(4 * n)),
                                 sym_jets(sp.tanh(e)))
                       for e in (pa, pb))

    # depth 2, width 2; per layer the weights (fan_out x fan_in), then the biases
    p = ParamVector(np.array([0.8, -1.3, 0.1, 0.4,
                              0.5, -0.9, 1.1, 0.7, -0.2, 0.3,
                              1.5, -0.6, 0.25]), [(1, 2), (2, 2), (2, 1)])
    layers = list(p.layers())
    acts = [x]
    for li, (w, b) in enumerate(layers):
        z = [sum(float(w[j, i]) * a for i, a in enumerate(acts)) + float(b[j])
             for j in range(w.shape[0])]
        acts = [sp.tanh(e) for e in z] if li < len(layers) - 1 else z
    worst_network = worst_rel(forward_jet_batch(p, np.array(points)), sym_jets(acts[0]))

    ok = max(worst_kernel, worst_network) <= 1e-10
    report("7", "jet correctness", ok,
           f"kernel_worst_rel={worst_kernel:.2e} network_worst_rel={worst_network:.2e}")
    assert ok


def test_criterion_08a_singularity_oracle(shoot_result):
    eta_b = backward_blowup(shoot_result.s_star, h=1e-5)
    ok = -5.75 < eta_b < -5.60
    report("8a", "singularity (oracle)", ok, f"blowup_eta={eta_b:.5f}")
    assert ok


def test_criterion_08b_singularity_pinn_onset(trained_default, shoot_result):
    # The probe grid stops short of the pole: a collocation point on it asks
    # for a residual the network cannot meet, and the fit then gives up the
    # wall conditions.  The pole is located from the Laurent term instead.
    p, _ = trained_default
    grid = CollocationGrid(PROBE_ETA0, 7.0, 100)
    _, sing = probe_negative(p, NetworkConfig(depth=2, width=100, seed=0),
                             AdamConfig(), LbfgsConfig(), grid)
    pole, onset = sing.pole_eta, sing.onset_eta
    # even on the exact solution the onset detector fires ~1.5 right of the pole
    exact_onset, _ = exact_growth_onset(shoot_result.s_star, grid.eta0, grid.eta_m)
    ok = (sing.final_loss <= 1e-4
          and pole is not None and -5.8 < pole < -5.4
          and onset is not None and exact_onset is not None
          and abs(onset - exact_onset) <= 0.05)

    def fmt(x):
        return "none" if x is None else f"{x:.4f}"

    report("8b", "singularity (PINN)", ok,
           f"pole_eta={fmt(pole)} onset_eta={fmt(onset)} exact_onset={fmt(exact_onset)} "
           f"median|f'''|={sing.median_fppp:.3g} loss={sing.final_loss:.3g} "
           f"lbfgs={sing.report.lbfgs_status}")
    assert ok


def test_criterion_09_architecture_trend(trained_runs, trained_deep):
    _, rep_a = trained_runs(0)
    _, rep_b = trained_deep
    ok = rep_a.best_loss < rep_b.best_loss
    report("9", "architecture trend", ok,
           f"loss(d2,w100)={rep_a.best_loss:.2e} < loss(d4,w90)={rep_b.best_loss:.2e}: {ok}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "network.depth = 1\nnetwork.width = 10\nnetwork.seed = 0\n"
        "adam.max_steps = 60\nadam.switch_tol = 1e-12\n"
        "lbfgs.max_iters = 40\ngrid.n = 40\n"
    )
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        assert cli_main(["train", "--config", str(cfg), "--out", str(d)]) == 0
        outs.append(d)
    same_csv = (outs[0] / "solution.csv").read_bytes() == (outs[1] / "solution.csv").read_bytes()
    same_ckpt = (outs[0] / "checkpoint.txt").read_bytes() == (outs[1] / "checkpoint.txt").read_bytes()
    ok = same_csv and same_ckpt
    report("10", "determinism", ok, f"csv_identical={same_csv} checkpoint_identical={same_ckpt}")
    assert ok
