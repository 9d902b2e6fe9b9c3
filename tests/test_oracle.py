import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blasius_pinn import oracle
from blasius_pinn.grad import DivergenceError
from blasius_pinn.oracle import (SHOOT_TOL, SolutionTable, backward_blowup, rk4_shoot,
                                 shoot)
from blasius_pinn.textfmt import CHUNK
from oracle_reference import (backward_blowup_reference, blowup_reference,
                              integrate_end_reference, order_slope, read_solution_csv,
                              rk4_shoot_reference, shoot_reference)
from writer_reference import csv_reference

# wall curvature from the converged secant iteration at h=1e-4; frozen as the
# reference value for every downstream check
S_STAR = 0.33205919173480736


def test_shoot_converges_to_known_curvature(shoot_result):
    assert shoot_result.s_star == pytest.approx(S_STAR, abs=1e-12)
    assert abs(shoot_result.table.fp[-1] - 1.0) <= 1e-10
    assert shoot_result.iterations < 40


def test_shoot_matches_published_three_digit_value(shoot_result):
    assert shoot_result.s_star == pytest.approx(0.332, abs=5e-4)


def test_shoot_matches_literature_constant_at_eta_max_10():
    # f''(0) of f''' + f f''/2 = 0 on the infinite domain; at eta_max = 8 the
    # far-field truncation puts s* 1.86e-6 above it
    res = shoot(h=1e-3, eta_max=10.0)
    assert abs(res.s_star - 0.33205733621) <= 2e-9


def test_normalised_solution_gives_the_literature_constant():
    # Töpfer: f(eta; s) = s^(1/3) F(s^(1/3) eta) with F''(0) = 1, so
    # s*(inf) = F'(inf)^(-3/2); F' is flat to ~1e-15 by eta = 10
    s_inf = oracle._integrate_end(1.0, 1e-3, 10.0)[1] ** -1.5
    assert abs(s_inf - 0.33205733621519630) <= 1e-13


@pytest.mark.parametrize("eta_max", [0.5, 1.0, 2.0, 4.0, 8.0, 10.0, 20.0])
def test_scaled_root_matches_the_secant_root(eta_max):
    # the scaling law's s* against the coarse secant's root, each tabulated
    # at h = 1e-4; the scaled root meets the tolerance without a secant
    res = shoot(h=1e-4, eta_max=eta_max)
    assert abs(res.s_star - shoot_reference(h=1e-4, eta_max=eta_max).s_star) <= 1e-12
    assert abs(res.table.fp[-1] - 1.0) <= SHOOT_TOL
    assert res.iterations == 0


def count_march_yields(monkeypatch) -> list:
    """Wraps oracle._march so that each march appends the number of values
    it yields: 3 for its start and 3 for each node it reaches."""
    yields = []
    march = oracle._march

    def counted(*args):
        yields.append(0)
        for value in march(*args):
            yields[-1] += 1
            yield value

    monkeypatch.setattr(oracle, "_march", counted)
    return yields


@pytest.mark.parametrize("eta_max", [1e-300, 1e-100, 1e-9, 1e-4, 1e-2, 0.5, 1.0, 8.0, 20.0])
def test_normalised_march_takes_the_steps_of_one_coarse_integration(monkeypatch, eta_max):
    # s* -> 1 / eta_max as eta_max -> 0, where the crossing sits at
    # xi ~ eta_max^(2/3): an unscaled march at the coarse step would take
    # eta_max^(-1/3) steps, 10^100 at eta_max = 1e-300
    yields = count_march_yields(monkeypatch)
    h = min(eta_max / 1000.0, 1e-2)
    res = shoot(h=h, eta_max=eta_max)
    # the first march is the normalised one; it yields the start and each node
    taken = yields[0] // 3 - 1
    assert taken <= 1.01 * oracle.step_count(oracle.coarse_step(h, eta_max), eta_max) + 1
    assert abs(res.table.fp[-1] - 1.0) <= SHOOT_TOL


def test_table_endpoint_values(shoot_result):
    t = shoot_result.table
    assert t.eta[0] == 0.0 and t.eta[-1] == pytest.approx(8.0)
    assert t.f[0] == 0.0 and t.fp[0] == 0.0
    assert t.fpp[0] == pytest.approx(S_STAR, abs=1e-12)
    # f' at eta=5 agrees with the classical five-digit table entry 0.99155
    i5 = int(np.argmin(np.abs(t.eta - 5.0)))
    assert t.fp[i5] == pytest.approx(0.99155, abs=5e-6)


def test_profile_monotonicity(shoot_result):
    t = shoot_result.table
    assert np.all(np.diff(t.f) > 0)        # f strictly increasing
    assert np.all(np.diff(t.fp) >= 0)      # f' nondecreasing
    assert np.all(t.fpp >= -1e-15)         # curvature stays nonnegative
    assert np.all(t.fp <= 1.0 + 1e-9)


def test_far_field_linear_growth(shoot_result):
    # f(eta) ~ eta - beta for large eta, with beta ~= 1.72
    t = shoot_result.table
    beta = t.eta[-1] - t.f[-1]
    assert beta == pytest.approx(1.7208, abs=5e-4)


def test_step_size_insensitivity():
    r = shoot(h=1e-3, eta_max=8.0)
    assert r.s_star == pytest.approx(S_STAR, abs=1e-9)


def test_rk4_shoot_validation_and_shape():
    with pytest.raises(ValueError):
        rk4_shoot(S_STAR, h=-0.1, eta_max=8.0)
    t = rk4_shoot(S_STAR, h=0.01, eta_max=2.0)
    assert len(t) == 201
    assert np.all(t.residual == 0.0)


def test_convergence_order_is_four():
    slope = order_slope(S_STAR)
    assert slope == pytest.approx(4.0, abs=0.25)


def test_shoot_on_a_domain_shorter_than_the_coarse_step():
    # eta_max / (10 h) rounds to 0: the coarse pass must still take a step
    res = shoot(h=1e-4, eta_max=4e-4)
    assert abs(res.table.fp[-1] - 1.0) <= 1e-10


@pytest.mark.parametrize("h,eta_max", [(0.0, 8.0), (-1e-4, 8.0), (1e-4, 0.0), (1e-4, -8.0),
                                       (1e-4, 1e-9)])
def test_shoot_rejects_bad_input(h, eta_max):
    # eta_max = 1e-9 at h = 1e-4 rounds to zero RK4 steps
    with pytest.raises(ValueError):
        shoot(h=h, eta_max=eta_max)


@pytest.mark.parametrize("h,eta_max", [(1e-300, 1e300), (1e-4, math.inf), (1e-4, math.nan),
                                       (1e-7, 8.0), (math.nan, 8.0)])
@pytest.mark.parametrize("run", [
    lambda h, eta_max: shoot(h=h, eta_max=eta_max),
    lambda h, eta_max: rk4_shoot(0.33, h, eta_max),
    lambda h, eta_max: rk4_shoot(0.33, h, -eta_max),
    lambda h, eta_max: oracle._integrate_end(0.33, h, eta_max),
], ids=["shoot", "rk4_shoot", "rk4_shoot_negative", "integrate_end"])
def test_step_count_beyond_max_steps_is_a_value_error(run, h, eta_max):
    # |eta_max| / h infinite, NaN or above MAX_STEPS (8 / 1e-7 = 8e7); each
    # raised OverflowError or tried to allocate or run that many steps
    with pytest.raises(ValueError):
        run(h, eta_max)


@pytest.mark.parametrize("h", [1e-300, 1e-7, 0.0, math.nan])
def test_backward_blowup_rejects_steps_beyond_max_steps(h):
    # 10 / h above MAX_STEPS: the coarse loop would run for about 1e299 steps
    with pytest.raises(ValueError):
        backward_blowup(0.33, h)


def test_step_count_at_the_bound():
    assert oracle.step_count(1e-6, 10.0) == oracle.MAX_STEPS
    assert oracle.step_count(1e-4, -8.0) == 80_000


def record_integrations(monkeypatch) -> dict:
    """(s, step) of every _integrate_end and rk4_shoot call shoot makes from
    now on, by function name."""
    calls = {"_integrate_end": [], "rk4_shoot": []}
    for name, log in calls.items():
        def recorded(s, step, eta_max, integrate=getattr(oracle, name), log=log):
            log.append((s, step))
            return integrate(s, step, eta_max)

        monkeypatch.setattr(oracle, name, recorded)
    return calls


def test_shoot_integrates_the_fine_grid_once(monkeypatch):
    # the scaled root meets SHOOT_TOL on the fine grid, so the one fine
    # integration is the table itself and no secant runs
    calls = record_integrations(monkeypatch)
    res = shoot(h=1e-4, eta_max=8.0)
    assert calls == {"_integrate_end": [], "rk4_shoot": [(res.s_star, 1e-4)]}
    assert res.iterations == 0
    ref = rk4_shoot(res.s_star, 1e-4, 8.0)
    for a, b in zip((res.table.eta, res.table.f, res.table.fp, res.table.fpp),
                    (ref.eta, ref.f, ref.fp, ref.fpp)):
        assert np.array_equal(a, b)
    assert abs(res.table.fp[-1] - 1.0) <= SHOOT_TOL


def test_shoot_fine_secant_starts_from_the_coarse_table(monkeypatch):
    # at h = 0.1 the scaled root, from a march at 1e-2, misses the tolerance
    # at step h; the fine secant reuses the g its table measured, so it never
    # integrates that root again
    calls = record_integrations(monkeypatch)
    res = shoot(h=0.1, eta_max=8.0)
    s_est = calls["rk4_shoot"][0][0]
    ends = calls["_integrate_end"]
    assert ends[0] == (s_est * (1.0 + 1e-4), 0.1)
    assert {step for _, step in ends} == {0.1}
    assert (s_est, 0.1) not in ends
    assert res.iterations == len(ends) - 1 >= 1
    assert isinstance(res.s_star, float)
    assert abs(res.table.fp[-1] - 1.0) <= SHOOT_TOL
    assert np.array_equal(res.table.fp, rk4_shoot(res.s_star, 0.1, 8.0).fp)


def assert_tables_equal(a: SolutionTable, b: SolutionTable) -> None:
    for x, y in zip((a.eta, a.f, a.fp, a.fpp, a.residual), (b.eta, b.f, b.fp, b.fpp, b.residual)):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("s,h,eta_max", [
    (S_STAR, 1e-4, 8.0), (0.5, 1e-3, 8.0), (S_STAR, 0.1, 8.0), (1.0, 1e-2, 10.0),
    (2500.0, 1e-4, 4e-4), (S_STAR, 1e-3, -1.0), (S_STAR, 1e-3, 0.0),
])
def test_rk4_shoot_matches_the_per_step_loop(s, h, eta_max):
    assert_tables_equal(rk4_shoot(s, h, eta_max), rk4_shoot_reference(s, h, eta_max))
    assert oracle._integrate_end(s, h, eta_max) == integrate_end_reference(s, h, eta_max)


@pytest.mark.parametrize("s,h,eta_max", [
    (S_STAR, 1e-3, -8.0), (S_STAR, 1e-4, -8.0), (2.0, 1e-3, -20.0),
    (1e30, 1e-3, -8.0),     # overflows in the first step: the message says eta=0
    (1e30, 1e-3, 8.0),
])
def test_rk4_shoot_divergence_matches_the_per_step_loop(s, h, eta_max):
    with pytest.raises(DivergenceError) as got:
        rk4_shoot(s, h, eta_max)
    with pytest.raises(DivergenceError) as want:
        rk4_shoot_reference(s, h, eta_max)
    assert str(got.value) == str(want.value)


def test_backward_integration_blows_up_near_minus_5_69():
    eta_4 = backward_blowup(S_STAR, h=1e-4)
    eta_5 = backward_blowup(S_STAR, h=1e-5)
    assert eta_4 == pytest.approx(-5.6901, abs=2e-4)
    assert eta_5 == pytest.approx(-5.6900, abs=2e-4)
    # refining the step moves the estimate by less than 1e-4
    assert abs(eta_4 - eta_5) <= 1e-4


def test_negative_direction_rk4_raises_divergence():
    with pytest.raises(DivergenceError):
        rk4_shoot(S_STAR, h=1e-3, eta_max=-8.0)


def test_backward_blowup_none_when_f_stays_bounded():
    # f(eta) = a F(a eta) with a^3 = s / s*, so the pole sits at -5.69 / a:
    # below ETA_FLOOR = -10 for s = 0.05
    assert backward_blowup(0.05, h=1e-3) is None


@pytest.mark.parametrize("h,slopes", [
    (1e-3, np.geomspace(0.06, 2.0, 12)),    # s = 0.06 puts the pole below ETA_FLOOR
    (1e-4, np.geomspace(0.15, 2.0, 4)),
    (1e-5, [S_STAR]),
], ids=["h=1e-3", "h=1e-4", "h=1e-5"])
def test_backward_blowup_matches_fine_steps(h, slopes):
    # coarse steps while |f| is small land on the node the fine-only loop finds
    for s in slopes:
        assert backward_blowup(float(s), h) == blowup_reference(float(s), h)


@pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-5, 3e-3, 0.1, 7e-4, 2e-2])
def test_backward_blowup_matches_the_per_step_search(h):
    for s in (0.05, 0.1, 0.2, S_STAR, 1.0, 2.0):
        assert backward_blowup(s, h) == backward_blowup_reference(s, h)


@pytest.mark.parametrize("s,h,expected", [
    (0.0, 1e-3, None),          # f stays 0: 1 / d = 0, one step to ETA_FLOOR
    (5e-324, 1e-3, None),
    (-0.33, 1e-3, None),
    (1e9, 1e-4, -0.004),        # 1% of d at the wall is under 2 h: steps of h only
    (1e12, 1e-5, -0.0004),
    (1e6, 1e-5, -0.0394),
    # large slopes where coarse steps of the earlier search ended on another node
    (21981.849412682514, 0.00013319290534111156, -0.14065170804021382),
    (185667.46275129993, 2.468285411199315e-05, -0.06906262580535683),
    (89902.44630196421, 1.9544661885078895e-05, -0.08795097848285503),
    (172831.54356731413, 0.000285239166507794, -0.07073931329393292),
    (98656.51996932543, 6.232887726379026e-05, -0.08526590409686507),
])
def test_backward_blowup_edge_inputs_match_fine_steps(s, h, expected):
    # inputs where the step rule's distance d is degenerate or short
    got = backward_blowup(s, h)
    assert got == blowup_reference(s, h)
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.06, 2.5), st.floats(1e-3, 2e-2))
def test_backward_blowup_lands_on_the_fine_step_node(s, h):
    # at most 10 / h = 10,000 steps of h for the reference search
    assert backward_blowup(s, h) == blowup_reference(s, h)


# the pole of f at s*(inf), from a 50-digit Taylor march; eta_s(s) scales as
# s^(-1/3) by Töpfer's law
POLE_S_INF = -5.690038054522639991
S_INF = 0.33205733621519630


@pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("s", [0.2, S_INF, 1.0, 2.0])
def test_backward_blowup_is_within_one_step_of_the_literature_pole(s, h):
    pole = POLE_S_INF * (S_INF / s) ** (1.0 / 3.0)
    assert abs(backward_blowup(s, h) - pole) <= h


def test_backward_blowup_at_a_large_slope_is_within_one_step_of_the_pole():
    # the earlier search returned -0.0710245524604407 here, 1.009 h past it
    s, h = 172831.54356731413, 0.000285239166507794
    pole = POLE_S_INF * (S_INF / s) ** (1.0 / 3.0)
    assert abs(backward_blowup(s, h) - pole) <= h


@pytest.mark.parametrize("h", [1e-6, 1e-5, 1e-4])
@pytest.mark.parametrize("s", [0.2, S_INF, 1.0, 2.0])
def test_backward_blowup_takes_at_most_1400_steps(monkeypatch, s, h):
    # the step is a fixed share of the pole distance, so the count grows
    # with log(1 / h), not with 1 / h
    yields = count_march_yields(monkeypatch)
    backward_blowup(s, h)
    assert sum(n // 3 - 1 for n in yields) <= 1400


@settings(max_examples=100, deadline=None)
@given(st.floats(3.0, 7.0).map(lambda e: 10.0 ** e), st.floats(1e-5, 3e-4))
def test_backward_blowup_at_large_slopes_lands_on_the_fine_step_node(s, h):
    # about 10,000 steps of h at most for the reference search
    assume(-POLE_S_INF * (S_INF / s) ** (1.0 / 3.0) / h <= 10_000)
    assert backward_blowup(s, h) == blowup_reference(s, h)


def test_backward_blowup_validation():
    with pytest.raises(ValueError):
        backward_blowup(S_STAR, h=0.0)


def test_wrong_curvature_misses_far_field():
    t = rk4_shoot(0.5, h=1e-3, eta_max=8.0)
    assert abs(t.fp[-1] - 1.0) > 0.1


def test_solution_table_csv_round_trip(tmp_path, shoot_result):
    t = shoot_result.table
    sub = SolutionTable(t.eta[::1000], t.f[::1000], t.fp[::1000], t.fpp[::1000], t.residual[::1000])
    path = tmp_path / "table.csv"
    sub.to_csv(path)
    back = read_solution_csv(path)
    for a, b in zip((sub.eta, sub.f, sub.fp, sub.fpp, sub.residual),
                    (back.eta, back.f, back.fp, back.fpp, back.residual)):
        assert np.array_equal(a, b)
    header = path.read_text().splitlines()[0]
    assert header == "eta,f,fp,fpp,residual"


@pytest.mark.parametrize("rows", [1, CHUNK // 5, CHUNK // 5 + 1, 5000])
def test_csv_bytes_match_the_per_value_formatting(tmp_path, rows):
    # tables of one formatter pass (CHUNK // 5 rows), one row past it and
    # several passes; -0.0, the smallest subnormal and 1e300 test the 17-digit
    # formatting at its edges, on both sides of a pass boundary where the
    # table has one
    rng = np.random.default_rng(0)
    cols = [rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows) for _ in range(5)]
    edges = [i for i in (0, CHUNK // 5 - 1, CHUNK // 5) if i < rows]
    cols[1][edges] = (-0.0, 5e-324, 1e300)[:len(edges)]
    table = SolutionTable(*cols)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    assert path.read_text() == csv_reference(table)


def test_from_csv_rejects_wrong_width(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_solution_csv(path)


def test_shoot_is_deterministic(shoot_result):
    r2 = shoot(h=1e-2, eta_max=8.0)
    r3 = shoot(h=1e-2, eta_max=8.0)
    assert r2.s_star == r3.s_star
    assert math.isfinite(r2.s_star)
