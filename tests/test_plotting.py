import numpy as np
import pytest

from blasius_pinn.oracle import SolutionTable
from blasius_pinn.plotting import plot_solution_table, write_curves_svg
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


def test_polylines_match_the_per_value_formatting(tmp_path):
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(-3.0, 9.0, 5000))
    curves = [("a", rng.standard_normal(5000)), ("b", np.cumsum(rng.standard_normal(5000)))]
    curves[0][1][[0, 1, 2]] = (-0.0, 5e-324, 1e300)
    path = tmp_path / "curves.svg"
    write_curves_svg(path, x, curves)
    lines = [ln for ln in path.read_text().splitlines() if ln.startswith("<polyline")]
    got = [ln.split('points="')[1].split('"')[0] for ln in lines]
    assert got == polyline_reference(x, curves)


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
