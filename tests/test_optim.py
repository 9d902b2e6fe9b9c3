import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest

from blasius_pinn import grad, kernels, optim
from blasius_pinn.loss import CollocationGrid
from blasius_pinn.network import NetworkConfig, init_params
from blasius_pinn.optim import (
    WOLFE_C1,
    AdamConfig,
    AdamState,
    LbfgsConfig,
    _strong_wolfe,
    _two_loop,
    adam_step,
    lbfgs_minimize,
    lm_minimize,
    train,
)


def quadratic(A, b):
    """f(x) = 1/2 x'Ax - b'x with exact gradient; minimizer solves Ax = b."""
    def fg(x):
        return 0.5 * float(x @ A @ x) - float(b @ x), A @ x - b
    return fg


def random_spd_quadratic(seed, n=12):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    return M @ M.T + n * np.eye(n), rng.normal(size=n)


def two_loop_reference(g, s_list, y_list):
    """-H g by the textbook two-loop recursion over plain lists of pairs,
    oldest first; H0 = gamma I from the newest pair."""
    q = g.copy()
    alphas = []
    for s, y in zip(reversed(s_list), reversed(y_list)):
        a = (s @ q) / (s @ y)
        alphas.append(a)
        q -= a * y
    if s_list:
        q *= (s_list[-1] @ y_list[-1]) / (y_list[-1] @ y_list[-1])
    for s, y, a in zip(s_list, y_list, reversed(alphas)):
        q += (a - (y @ q) / (s @ y)) * s
    return -q


def rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
        200.0 * (x[1] - x[0] ** 2),
    ])
    return f, g


def test_adam_config_validation():
    with pytest.raises(ValueError):
        AdamConfig(decay=0.0)


def test_lr_schedule():
    cfg = AdamConfig(base_lr=1e-3, decay=0.96)
    assert cfg.lr_at(1) == 1e-3
    assert cfg.lr_at(100) == 1e-3
    assert cfg.lr_at(101) == pytest.approx(1e-3 * 0.96)
    assert cfg.lr_at(250) == pytest.approx(1e-3 * 0.96 ** 2)


def test_adam_first_step_size():
    # with bias correction the first step moves each coordinate by
    # lr * g / (|g| + eps) ~= lr * sign(g)
    cfg = AdamConfig(base_lr=1e-3)
    x0 = np.array([1.0, -2.0, 0.5])
    g = np.array([3.0, -0.2, 1e4])
    st = adam_step(AdamState.fresh(x0), g, cfg)
    np.testing.assert_allclose(st.x, x0 - cfg.base_lr * np.sign(g), rtol=1e-6)
    assert st.t == 1


def test_adam_minimizes_quadratic():
    rng = np.random.default_rng(0)
    A = np.diag([1.0, 4.0, 9.0])
    b = rng.normal(size=3)
    fg = quadratic(A, b)
    cfg = AdamConfig(base_lr=0.05, decay=1.0)
    st = AdamState.fresh(np.zeros(3))
    for _ in range(3000):
        _, g = fg(st.x)
        st = adam_step(st, g, cfg)
    x_star = np.linalg.solve(A, b)
    np.testing.assert_allclose(st.x, x_star, atol=1e-3)


def test_adam_rejects_nonfinite_gradient():
    cfg = AdamConfig()
    st = AdamState.fresh(np.zeros(2))
    with pytest.raises(Exception):
        adam_step(st, np.array([np.nan, 0.0]), cfg)


def test_lbfgs_exact_on_quadratic():
    rng = np.random.default_rng(1)
    n = 12
    M = rng.normal(size=(n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.normal(size=n)
    res = lbfgs_minimize(quadratic(A, b), np.zeros(n), LbfgsConfig(grad_tol=1e-10))
    x_star = np.linalg.solve(A, b)
    assert res.status == "converged"
    np.testing.assert_allclose(res.x, x_star, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_lbfgs_converges_on_random_quadratics(seed):
    # near the minimum the line search must not hinge on the last bit of f
    A, b = random_spd_quadratic(seed)
    res = lbfgs_minimize(quadratic(A, b), np.zeros(b.size), LbfgsConfig(grad_tol=1e-10))
    assert res.status == "converged"
    np.testing.assert_allclose(res.x, np.linalg.solve(A, b), rtol=1e-7, atol=1e-9)


def test_two_loop_wrap_around_matches_list_reference():
    memory, n = 3, 40
    rng = np.random.default_rng(5)
    A = np.diag(rng.uniform(0.5, 20.0, size=n))
    pairs = deque(maxlen=memory)
    s_list, y_list = [], []
    g = rng.normal(size=n)
    np.testing.assert_allclose(_two_loop(pairs, g), -g, rtol=0, atol=0)
    for _ in range(9):
        s = rng.normal(size=n)
        y = A @ s
        pairs.append((s, y, 1.0 / float(s @ y)))
        s_list = (s_list + [s])[-memory:]
        y_list = (y_list + [y])[-memory:]
        g = rng.normal(size=n)
        want = two_loop_reference(g, s_list, y_list)
        np.testing.assert_allclose(_two_loop(pairs, g), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert len(pairs) == memory


def test_line_search_first_trial_not_compared_with_start():
    # f is flat and the slope small, so f0 + c1 phi'(0) rounds to f0: the
    # unit step is no better than the start, yet still descends, so the
    # search must double it rather than narrow to [0, 1]
    trials = []

    def fg(x):
        trials.append(x.copy())
        return 1.0, 0.05 * x

    x0 = np.array([2e-6])
    g0 = 0.05 * x0
    d = -g0
    assert 1.0 + WOLFE_C1 * float(g0 @ d) == 1.0
    ok, alpha, _, _, n_evals = _strong_wolfe(fg, x0, 1.0, g0, d)
    assert ok and alpha == 2.0 and n_evals == 2
    assert [t.tolist() for t in trials] == [(x0 + d).tolist(), (x0 + 2.0 * d).tolist()]


def test_lbfgs_rosenbrock():
    res = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(grad_tol=1e-9))
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)
    assert res.fval <= 1e-12


def test_lbfgs_never_returns_worse_than_start():
    # the objective reports the negated gradient, so every "descent"
    # direction climbs: the line search fails, and the best point tracker
    # returns the start
    def fg(x):
        f, g = rosenbrock(x)
        return f, -g

    x0 = np.array([50.0, -30.0])
    f0, _ = rosenbrock(x0)
    res = lbfgs_minimize(fg, x0, LbfgsConfig())
    assert res.status == "line_search_failed"
    assert res.fval <= f0
    assert np.array_equal(res.x, x0)


def test_lbfgs_history_monotone_best():
    res = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig())
    losses = [h[1] for h in res.history]
    assert res.fval <= min(losses)
    assert res.n_evals >= len(res.history)


def test_train_small_budget_smoke():
    # tiny budget: exercises the Adam -> L-BFGS handoff end to end
    p, rep = train(
        NetworkConfig(depth=1, width=8, seed=0),
        AdamConfig(max_steps=50, switch_tol=1e-12),
        LbfgsConfig(max_iters=30),
        CollocationGrid(0.0, 8.0, 20),
    )
    assert rep.adam_steps == 50
    assert rep.best_loss <= rep.adam_curve[0]
    assert rep.final.total == pytest.approx(rep.best_loss, rel=1e-9)
    assert rep.wall_time_s > 0.0
    assert len(p.values) == NetworkConfig(depth=1, width=8, seed=0).param_count()


def test_train_is_deterministic():
    args = (
        NetworkConfig(depth=1, width=6, seed=3),
        AdamConfig(max_steps=30, switch_tol=0.0),
        LbfgsConfig(max_iters=10),
        CollocationGrid(0.0, 8.0, 15),
    )
    p1, r1 = train(*args)
    p2, r2 = train(*args)
    assert np.array_equal(p1.values, p2.values)
    assert r1.best_loss == r2.best_loss


def test_default_train_starts_lm_at_init_params(monkeypatch):
    # by default no Adam step runs: the refinement's first evaluation is at
    # the initial parameters, byte for byte
    cfg = NetworkConfig(depth=1, width=8, seed=0)
    at = []
    loss_and_grad = optim.loss_and_grad

    def recorded(p, *args, **kwargs):
        at.append(p.values.tobytes())
        return loss_and_grad(p, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("train took an Adam step")

    monkeypatch.setattr(optim, "loss_and_grad", recorded)
    monkeypatch.setattr(optim, "adam_step", forbidden)
    _, rep = train(cfg, AdamConfig(), LbfgsConfig(max_iters=3), CollocationGrid(0.0, 8.0, 20))
    assert rep.adam_steps == 0 and rep.adam_curve == [] and len(rep.lbfgs_history) == 3
    assert at[0] == init_params(cfg).values.tobytes()


def test_deep_network_reaches_the_blasius_branch(trained_deep, shoot_result):
    # criterion 9's depth-4, width-90 network: Adam first led it to loss
    # 7.09e-2 at f''(0) = -0.0122, a state that is not a Blasius profile
    p, _ = trained_deep
    fpp0 = float(grad.forward_jet_batch(p, np.array([0.0]))[2, 0])
    assert abs(fpp0 - shoot_result.s_star) <= 1e-6, fpp0


def test_train_default_reaches_deep_minimum(trained_default):
    p, rep = trained_default
    assert rep.best_loss <= 1e-6
    assert rep.lbfgs_status in ("converged", "stalled", "max_iters")


def test_default_training_reaches_1e_8_on_seeds_0_to_4(trained_runs):
    # the default runs trained_runs caches; L-BFGS ended above 1e-8 on some seeds
    losses = {seed: trained_runs(seed)[1].best_loss for seed in range(5)}
    assert max(losses.values()) <= 1e-8, losses


def test_default_training_converges_near_the_oracle_on_seeds_0_to_4(trained_runs, shoot_result):
    # without the acceleration every seed ran all 200 LM steps and ended
    # 1.6e-7 to 3.7e-7 from s*(8); with it each meets grad_tol
    for seed in range(5):
        p, rep = trained_runs(seed)
        err = abs(float(grad.forward_jet_batch(p, np.array([0.0]))[2, 0]) - shoot_result.s_star)
        assert rep.lbfgs_status == "converged", (seed, rep.lbfgs_status)
        assert err <= 1e-7, (seed, err)


def linear_rows(A, b):
    """r(x) = A x - b as (evaluate, probe) for lm_minimize."""
    def evaluate(x):
        r = A @ x - b
        return float(r @ r), 2.0 * A.T @ r, lambda: (r, A @ A.T, lambda w: A.T @ w)

    return evaluate, lambda x: A @ x - b


@pytest.mark.parametrize("m,n", [(12, 5), (5, 12), (30, 30)],
                         ids=["overdetermined", "underdetermined", "square"])
def test_lm_solves_a_consistent_linear_least_squares_problem(m, n):
    rng = np.random.default_rng(m * n)
    A = rng.normal(size=(m, n))
    x_star = rng.normal(size=n)
    evaluate, probe = linear_rows(A, A @ x_star)
    res = lm_minimize(evaluate, probe, np.zeros(n), LbfgsConfig(max_iters=200, grad_tol=1e-13))
    assert res.status in ("converged", "stalled")
    assert np.max(np.abs(A @ res.x - A @ x_star)) <= 1e-12
    if m >= n:
        np.testing.assert_allclose(res.x, x_star, rtol=0, atol=1e-12)
    losses = [h[1] for h in res.history]
    assert losses == sorted(losses, reverse=True) and res.fval == losses[-1]


def rosenbrock_rows():
    """Rosenbrock as the rows (10 (x1 - x0^2), 1 - x0): (evaluate, probe)
    for lm_minimize."""
    def probe(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def evaluate(x):
        r = probe(x)
        jac = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
        return float(r @ r), 2.0 * (jac.T @ r), lambda: (r, jac @ jac.T, lambda w: jac.T @ w)

    return evaluate, probe


def test_lm_rosenbrock_rows():
    evaluate, probe = rosenbrock_rows()
    res = lm_minimize(evaluate, probe, np.array([-1.2, 1.0]), LbfgsConfig(grad_tol=1e-12))
    assert res.status == "converged"
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-12)


def test_lm_stalls_at_its_start_when_no_step_lowers_the_loss():
    # the rows report the negated Jacobian, so every step climbs: each trial
    # is rejected until the damping reaches its cap, and the start comes back
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 4))
    b = rng.normal(size=6)
    evaluate, probe = linear_rows(A, b)
    x0 = rng.normal(size=4)
    calls = []

    def counted(x):
        calls.append(x)
        f, g, _ = evaluate(x)
        return f, g, lambda: (A @ x - b, A @ A.T, lambda w: -A.T @ w)

    res = lm_minimize(counted, probe, x0, LbfgsConfig())
    assert res.status == "stalled"
    assert res.history == []
    assert np.array_equal(res.x, x0) and res.fval == evaluate(x0)[0]
    assert res.n_evals == len(calls) and 2 < len(calls) < 40


def test_lm_converged_and_max_iters_statuses():
    A = np.eye(3)
    evaluate, probe = linear_rows(A, np.ones(3))
    # already at the minimum: no Jacobian is formed
    res = lm_minimize(lambda x: evaluate(x)[:2] + (None,), None, np.ones(3),
                      LbfgsConfig(grad_tol=0.0))
    assert res.status == "converged" and res.n_evals == 1 and res.history == []
    res = lm_minimize(evaluate, probe, np.zeros(3), LbfgsConfig(max_iters=2, grad_tol=0.0))
    assert res.status == "max_iters" and [h[0] for h in res.history] == [1, 2]
    assert res.fval < 3.0


def test_lm_converged_when_its_last_step_meets_grad_tol():
    # one step from 0 takes max|g| from 5 to 0.0118, under grad_tol = 1: the
    # run must say so even though that step used up max_iters
    A = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    evaluate, probe = linear_rows(A, np.array([1.0, 2.0, 0.5]))
    for max_iters in (1, 2):
        res = lm_minimize(evaluate, probe, np.zeros(2),
                          LbfgsConfig(max_iters=max_iters, grad_tol=1.0))
        assert res.status == "converged" and len(res.history) == 1
        assert 0.01 < res.history[0][2] <= 1.0


def curved_rows(seed, m=6, n=4):
    """r_k(x) = a_k'x + 1/2 x'B_k x + 1/6 (c_k'x)^3 with its exact J
    velocity, second and third derivatives along a velocity."""
    rng = np.random.default_rng(seed)
    A, C = rng.normal(size=(m, n)), rng.normal(size=(m, n))
    B = rng.normal(size=(m, n, n))
    B += B.transpose(0, 2, 1)

    def r(x):
        return A @ x + 0.5 * np.einsum("i,kij,j->k", x, B, x) + (C @ x) ** 3 / 6.0

    def derivatives(x, v):
        jv = A @ v + np.einsum("i,kij,j->k", x, B, v) + 0.5 * (C @ x) ** 2 * (C @ v)
        return jv, np.einsum("i,kij,j->k", v, B, v) + (C @ x) * (C @ v) ** 2, (C @ v) ** 3

    return r, derivatives, rng.normal(size=n), rng.normal(size=n)


@pytest.mark.parametrize("seed", range(3))
def test_rows_curvature_is_the_second_derivative_within_o_of_h(seed):
    # the finite difference is exact on quadratic rows, so its error on
    # these is the cubic term's h/3 times the third derivative
    r, derivatives, x, v = curved_rows(seed)
    jv, r_vv, r_vvv = derivatives(x, v)
    fd = optim._rows_curvature(r, x, r(x), v, jv)
    np.testing.assert_allclose(fd - r_vv, optim.LM_ACCEL_H / 3.0 * r_vvv, rtol=0,
                               atol=1e-11 * np.abs(r_vv).max())


def plain_lm(monkeypatch, *args):
    """lm_minimize with the acceleration never taken: every step is the
    velocity."""
    with monkeypatch.context() as patch:
        patch.setattr(optim, "LM_ACCEL_RATIO", 0.0)
        return lm_minimize(*args)


def recording(evaluate, points):
    def recorded(x):
        points.append(x.copy())
        return evaluate(x)
    return recorded


@pytest.mark.parametrize("m,n", [(12, 5), (5, 12)], ids=["overdetermined", "underdetermined"])
def test_lm_acceleration_vanishes_on_linear_rows(monkeypatch, m, n):
    rng = np.random.default_rng(m + n)
    A = rng.normal(size=(m, n))
    evaluate, probe = linear_rows(A, rng.normal(size=m))
    x = rng.normal(size=n)
    v = rng.normal(size=n)
    r_vv = optim._rows_curvature(probe, x, probe(x), v, A @ v)
    assert np.max(np.abs(r_vv)) <= 1e-12 * np.max(np.abs(A @ v))
    # a few steps, while f is still far above its minimum's rounding
    cfg = LbfgsConfig(max_iters=3, grad_tol=0.0)
    accelerated, plain = [], []
    lm_minimize(recording(evaluate, accelerated), probe, np.zeros(n), cfg)
    plain_lm(monkeypatch, recording(evaluate, plain), probe, np.zeros(n), cfg)
    assert len(accelerated) == len(plain) == 4
    # what is left of a is rounding, times 2/h^2 = 200 and (G + lam I)^-1
    np.testing.assert_allclose(accelerated, plain, rtol=0, atol=1e-10)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
def test_lm_takes_the_velocity_when_the_probe_fails(monkeypatch, value):
    # rows the probe could not evaluate, or rows so far out that the finite
    # difference overflows, leave the plain step: no exception, no warning
    evaluate, probe = rosenbrock_rows()
    cfg = LbfgsConfig(max_iters=30, grad_tol=0.0)
    x0 = np.array([-1.2, 1.0])
    failed, plain, accelerated = [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = lm_minimize(recording(evaluate, failed), lambda x: np.full(2, value), x0, cfg)
    plain_lm(monkeypatch, recording(evaluate, plain), probe, x0, cfg)
    lm_minimize(recording(evaluate, accelerated), probe, x0, cfg)
    assert res.history and np.array_equal(failed, plain)
    assert not np.array_equal(accelerated[:len(plain)], plain[:len(accelerated)])


def guarded(evaluate, probe, read_at):
    """evaluate and probe for lm_minimize whose rows() fails once any
    evaluate or probe has run after the evaluation that made it, as when
    they share one workspace; read_at gets the point of each rows() call."""
    calls = 0

    def guarded_evaluate(x):
        nonlocal calls
        calls += 1
        made = calls
        f, g, rows = evaluate(x)

        def checked():
            assert calls == made, "rows() read after a later evaluate or probe"
            read_at.append(x.copy())
            return rows()

        return f, g, checked

    def guarded_probe(x):
        nonlocal calls
        calls += 1
        return probe(x)

    return guarded_evaluate, guarded_probe


@pytest.mark.parametrize("problem", ["linear", "rosenbrock"])
def test_lm_reads_each_points_rows_before_any_later_evaluation(problem):
    # the rows of a point are read once, at the top of the iteration that
    # steps from it, before that iteration's probe or trial evaluation
    if problem == "linear":
        rng = np.random.default_rng(8)
        A = rng.normal(size=(8, 5))
        evaluate, probe = linear_rows(A, rng.normal(size=8))
        x0, cfg = np.zeros(5), LbfgsConfig(max_iters=50, grad_tol=1e-13)
    else:
        evaluate, probe = rosenbrock_rows()
        x0, cfg = np.array([-1.2, 1.0]), LbfgsConfig(grad_tol=1e-12)
    unguarded, checked, read_at = [], [], []
    want = lm_minimize(recording(evaluate, unguarded), probe, x0, cfg)
    got = lm_minimize(*guarded(recording(evaluate, checked), probe, read_at), x0, cfg)
    assert len(got.history) > 3
    assert np.array_equal(checked, unguarded) and got.history == want.history
    assert np.array_equal(got.x, want.x) and got.status == want.status
    assert len(read_at) == len(got.history) + (got.status == "stalled")
    assert np.array_equal(read_at[0], x0)


def test_train_refines_through_optim_loss_and_grad(monkeypatch):
    # every loss of the refinement is one that optim.loss_and_grad returned,
    # as a wrapper installed on the module sees them; L-BFGS is not called
    seen = []
    loss_and_grad = optim.loss_and_grad

    def recorded(*args, **kwargs):
        res = loss_and_grad(*args, **kwargs)
        seen.append(res.loss.total)
        return res

    def forbidden(*args, **kwargs):
        raise AssertionError("train called L-BFGS")

    monkeypatch.setattr(optim, "loss_and_grad", recorded)
    monkeypatch.setattr(optim, "lbfgs_minimize", forbidden)
    monkeypatch.setattr(optim, "_strong_wolfe", forbidden)
    _, rep = train(NetworkConfig(depth=1, width=8, seed=0),
                   AdamConfig(max_steps=40, switch_tol=1e-12),
                   LbfgsConfig(max_iters=25), CollocationGrid(0.0, 8.0, 20))
    refinement = seen[rep.adam_steps:]
    assert rep.lbfgs_history and len(refinement) > len(rep.lbfgs_history)
    assert all(f in refinement for _, f, _, _ in rep.lbfgs_history)
    assert rep.best_loss == rep.lbfgs_history[-1][1] == min(seen)


def count_calls(monkeypatch, counts, key, module, name):
    """Count the calls of module.name in counts[key]."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_train_runs_one_forward_pass_per_loss_evaluation(monkeypatch):
    # the refinement's G = J J' and J'w read the workspace that the accepted
    # trial's loss_and_grad filled: they run no forward pass of their own.
    # Each LM trial adds one forward pass, the acceleration's probe; the
    # refinement's first loss_and_grad, at Adam's best point, is no trial
    counts = {"forward": 0, "loss": 0}
    count_calls(monkeypatch, counts, "forward", grad, "forward_jet_batch")
    count_calls(monkeypatch, counts, "loss", optim, "loss_and_grad")
    _, rep = train(NetworkConfig(depth=2, width=8, seed=0),
                   AdamConfig(max_steps=40, switch_tol=1e-12),
                   LbfgsConfig(max_iters=25), CollocationGrid(0.0, 8.0, 20))
    assert rep.adam_steps == 40 and rep.lbfgs_history
    trials = counts["loss"] - rep.adam_steps - 1
    assert trials >= len(rep.lbfgs_history)
    assert counts["forward"] == counts["loss"] + trials


def test_train_runs_one_reverse_pass_per_loss_evaluation(monkeypatch):
    # G = J J' and J'w read the per-row adjoints that the accepted trial's
    # reverse pass left in the workspace: each evaluation runs one tanh-jet
    # adjoint per hidden layer, and nothing else runs one
    cfg = NetworkConfig(depth=2, width=8, seed=0)
    counts = {"backward": 0, "loss": 0}
    count_calls(monkeypatch, counts, "backward", kernels, "tanh_jet_backward")
    count_calls(monkeypatch, counts, "loss", optim, "loss_and_grad")
    _, rep = train(cfg, AdamConfig(max_steps=40, switch_tol=1e-12),
                   LbfgsConfig(max_iters=25), CollocationGrid(0.0, 8.0, 20))
    assert rep.adam_steps == 40 and rep.lbfgs_history
    assert counts["loss"] > 40 + len(rep.lbfgs_history)
    assert counts["backward"] == cfg.depth * counts["loss"]


def test_train_forms_g_only_at_points_it_steps_from(monkeypatch):
    # G is formed at Adam's best point and at each accepted point that the
    # refinement steps from, and at no rejected trial
    counts = {"gram": 0}
    count_calls(monkeypatch, counts, "gram", optim, "row_gram")
    _, rep = train(NetworkConfig(depth=2, width=8, seed=0),
                   AdamConfig(max_steps=40, switch_tol=1e-12),
                   LbfgsConfig(max_iters=25), CollocationGrid(0.0, 8.0, 20))
    assert rep.adam_steps == 40 and rep.lbfgs_history
    assert counts["gram"] == len(rep.lbfgs_history) + (rep.lbfgs_status == "stalled")


@pytest.mark.parametrize("depth,width", [(2, 8), (3, 1)], ids=["depth2_width8", "depth3_width1"])
def test_the_map_of_the_point_stepped_from_outlives_its_trials(monkeypatch, depth, width):
    # jt reads the per-row adjoints of the point LM steps from in place:
    # every later call, after probes and rejected trials have run, gives
    # the bytes it gave when it was made
    counts = {"loss": 0, "jt": 0}
    count_calls(monkeypatch, counts, "loss", optim, "loss_and_grad")
    row_gram = optim.row_gram

    def checked_row_gram(p, ws, seeds):
        gram, jt = row_gram(p, ws, seeds)
        w0 = np.random.default_rng(0).normal(size=seeds.shape[1])
        want = jt(w0).tobytes()

        def checked(w):
            counts["jt"] += 1
            assert jt(w0).tobytes() == want
            return jt(w)
        return gram, checked

    monkeypatch.setattr(optim, "row_gram", checked_row_gram)
    _, rep = train(NetworkConfig(depth=depth, width=width, seed=0), AdamConfig(),
                   LbfgsConfig(max_iters=25), CollocationGrid(0.0, 8.0, 20))
    rejected = counts["loss"] - 1 - len(rep.lbfgs_history)
    assert rep.lbfgs_history and rejected > 0
    assert counts["jt"] >= counts["loss"] - 1


def test_refinement_never_holds_an_array_the_size_of_the_jacobian():
    # the default network's 103 rows and 10,401 parameters: J alone would
    # take 8 m P bytes (8.17 MiB); G = J J' and J'w come from each layer's
    # adjoint factors, so training's peak stays below that
    cfg = NetworkConfig()
    m = 103
    tracemalloc.start()
    try:
        _, rep = train(cfg, AdamConfig(max_steps=3, switch_tol=0.0), LbfgsConfig(max_iters=3),
                       CollocationGrid(0.0, 8.0, 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.adam_steps == 3 and len(rep.lbfgs_history) == 3
    assert peak < 8 * m * cfg.param_count(), peak
