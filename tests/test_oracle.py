import math

import numpy as np
import pytest

from blasius_pinn import oracle
from blasius_pinn.grad import DivergenceError
from blasius_pinn.oracle import SHOOT_TOL, SolutionTable, backward_blowup, rk4_shoot, shoot
from oracle_reference import blowup_reference, order_slope, read_solution_csv
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


def record_integrations(monkeypatch) -> list:
    """(s, step) of every _integrate_end call shoot makes from now on."""
    calls = []
    integrate = oracle._integrate_end

    def recorded(s, step, eta_max):
        calls.append((s, step))
        return integrate(s, step, eta_max)

    monkeypatch.setattr(oracle, "_integrate_end", recorded)
    return calls


def test_shoot_integrates_the_fine_grid_once(monkeypatch):
    # the coarse root meets SHOOT_TOL on the fine grid, so the one fine
    # integration is the table itself
    calls = record_integrations(monkeypatch)
    res = shoot(h=1e-4, eta_max=8.0)
    assert calls and {step for _, step in calls} == {1e-3}
    ref = rk4_shoot(res.s_star, 1e-4, 8.0)
    for a, b in zip((res.table.eta, res.table.f, res.table.fp, res.table.fpp),
                    (ref.eta, ref.f, ref.fp, ref.fpp)):
        assert np.array_equal(a, b)
    assert abs(res.table.fp[-1] - 1.0) <= SHOOT_TOL


def test_shoot_fine_secant_starts_from_the_coarse_table(monkeypatch):
    # at h = 0.1 the coarse step is 1e-2, finer than h: its root misses the
    # tolerance at step h, and the fine secant reuses the coarse root's g
    calls = record_integrations(monkeypatch)
    res = shoot(h=0.1, eta_max=8.0)
    s_coarse = [s for s, step in calls if step == 1e-2][-1]
    assert any(step == 0.1 for _, step in calls)
    assert (s_coarse, 0.1) not in calls
    assert isinstance(res.s_star, float)
    assert abs(res.table.fp[-1] - 1.0) <= SHOOT_TOL
    assert np.array_equal(res.table.fp, rk4_shoot(res.s_star, 0.1, 8.0).fp)


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


def test_csv_bytes_match_the_per_value_formatting(tmp_path):
    # 5,000 rows cross a block boundary; -0.0, the smallest subnormal and
    # 1e300 test the 17-digit formatting at its edges
    rng = np.random.default_rng(0)
    cols = [rng.standard_normal(5000) * 10.0 ** rng.integers(-20, 20, 5000) for _ in range(5)]
    cols[1][[0, 4095, 4096]] = (-0.0, 5e-324, 1e300)
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
