import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blasius_pinn.oracle import SolutionTable
from blasius_pinn.plotting import _hundredths, _ticks, plot_solution_table, write_curves_svg
from writer_reference import polyline_reference


def test_write_curves_svg_basic(tmp_path):
    x = np.linspace(0, 8, 50)
    path = tmp_path / "curves.svg"
    write_curves_svg(path, x, [("sin", np.sin(x)), ("cos", np.cos(x))], title="demo")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "demo" in text and "sin" in text and "cos" in text
    assert text.rstrip().endswith("</svg>")


def test_plot_solution_table(tmp_path):
    eta = np.linspace(0, 8, 30)
    t = SolutionTable(eta, eta ** 2, 2 * eta, np.full_like(eta, 2.0), np.zeros_like(eta))
    path = tmp_path / "sol.svg"
    plot_solution_table(t, path)
    assert path.read_text().count("<polyline") == 3


def test_empty_inputs_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_curves_svg(tmp_path / "x.svg", [], [("a", [])])
    empty = SolutionTable(*(np.array([]) for _ in range(5)))
    with pytest.raises(ValueError):
        plot_solution_table(empty, tmp_path / "y.svg")
    with pytest.raises(ValueError):
        write_curves_svg(tmp_path / "z.svg", [1.0, 1.0], [("a", [0.0, 1.0])])
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("inputs", ["random", "oracle_eta_max_8"])
def test_polylines_match_the_per_value_formatting(tmp_path, request, inputs):
    if inputs == "random":
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(-3.0, 9.0, 5000))
        curves = [("a", rng.standard_normal(5000)), ("b", np.cumsum(rng.standard_normal(5000)))]
        curves[0][1][[0, 1, 2]] = (-0.0, 5e-324, 1e300)
    else:
        # sx = 60 + 75 eta (eta = i * 1e-4) puts 20,000 of these x pixels
        # within 1e-6 of a hundredths tie, where rint of 100 sx can misround
        t = request.getfixturevalue("shoot_result").table
        x = np.arange(80001) * 1e-4
        curves = [("f", t.f), ("f'", t.fp), ("f''", t.fpp)]
    path = tmp_path / "curves.svg"
    write_curves_svg(path, x, curves)
    lines = [ln for ln in path.read_text().splitlines() if ln.startswith("<polyline")]
    got = [ln.split('points="')[1].split('"')[0] for ln in lines]
    assert got == polyline_reference(x, curves)


def test_hundredths_round_ties_as_percent_format():
    # exact binary ties, then doubles nearest to decimal ties, whose product
    # with 100 rounds onto the half-integer (333.335 -> 33333.5), then every
    # 7th hundredths tie across the pixel range, and uniform pixels
    ties = np.concatenate([[60.125, 60.375, 100.375, 127.625, 333.875, 659.875,
                            60.015, 100.005, 333.335, 612.345, 659.995],
                           (np.arange(6000, 66001, 7) + 0.5) / 100])
    uniform = np.random.default_rng(3).uniform(60.0, 660.0, 10 ** 5)
    v = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
                        [60.0, 660.0], uniform])
    assert _hundredths(v).tolist() == [int(("%.2f" % t).replace(".", "")) for t in v.tolist()]


def test_curve_lengths_must_match_x(tmp_path):
    with pytest.raises(ValueError, match=r"^curve 'a' has 3 values for 5 x$"):
        write_curves_svg(tmp_path / "short.svg", np.arange(5.0), [("b", np.ones(5)), ("a", np.ones(3))])
    assert not (tmp_path / "short.svg").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("bad", ["nan_y", "inf_y", "inf_x", "wide_y"])
def test_non_finite_values_rejected(tmp_path, bad):
    x = np.linspace(0.0, 8.0, 20)
    y = np.sin(x)
    if bad == "nan_y":
        y[3] = np.nan
    elif bad == "inf_y":
        y[3] = -np.inf
    elif bad == "inf_x":
        x[-1] = np.inf
    else:
        y[:2] = (-1e308, 1e308)      # each finite, the span not
    with pytest.raises(ValueError, match="non-finite|wider"):
        write_curves_svg(tmp_path / "bad.svg", x, [("y", y)])
    assert not (tmp_path / "bad.svg").exists()


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=2000, deadline=None)
@given(finite, finite)
@example(1e17, 1e17 + 16)                           # 1e17 + 5 == 1e17
@example(0.0, 5e-324)                               # the span's fifth is 0
@example(4.4e-323, 8e-323)                          # its fifth is a rounded subnormal
@example(0.0, 1.7976931348623157e308)               # hi + 1e-12 (hi - lo) is inf
@example(-1.7976931348623157e308, 0.0)
def test_ticks_are_few_increasing_and_inside_the_range(a, b):
    lo, hi = min(a, b), max(a, b)
    assume(lo < hi and math.isfinite(hi - lo))
    ticks = _ticks(lo, hi)
    assert 1 <= len(ticks) <= 7
    assert all(t0 < t1 for t0, t1 in zip(ticks, ticks[1:]))
    # k * step rounds once, and k may be one off where lo / step rounds
    slack = 2 * math.ulp(max(abs(lo), abs(hi)))
    assert lo - slack <= ticks[0] and ticks[-1] <= hi + 1e-12 * (hi - lo) + slack


def test_ticks_step_by_one_two_or_five():
    assert _ticks(0.0, 8.0) == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert _ticks(-4.5, 7.0) == [0.0, 5.0]
    assert _ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]
    assert _ticks(3.0, 3.0) == [3.0]


def test_constant_curve_past_2_53(tmp_path):
    # y + 1.0 == y there: the y range must still widen, or every pixel is nan
    path = tmp_path / "flat.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_curves_svg(path, np.arange(5.0), [("a", np.full(5, 1e17))])
    text = path.read_text()
    assert "nan" not in text and ">1e+17</text>" in text
