import math

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fd_oracle import central_d1, central_d2, central_d3
from jet_reference import Jet3, add, constant, mul, scale, seed, tanh_jet

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
jets = st.builds(Jet3, finite, finite, finite, finite)


def jet_of(expr, x, x0: float) -> Jet3:
    """Symbolic-differentiation oracle: jet of a sympy expression at x0."""
    vals = [float(sp.diff(expr, x, k).subs(x, x0)) for k in range(4)]
    return Jet3(*vals)


def assert_jets_close(a: Jet3, b: Jet3, rel: float = 1e-10):
    for got, want in zip((a.v, a.d1, a.d2, a.d3), (b.v, b.d1, b.d2, b.d3)):
        assert got == pytest.approx(want, rel=rel, abs=1e-12)


def test_seed_examples():
    assert seed(0.0) == Jet3(0.0, 1.0, 0.0, 0.0)
    assert seed(8.0) == Jet3(8.0, 1.0, 0.0, 0.0)
    assert seed(-5.69) == Jet3(-5.69, 1.0, 0.0, 0.0)


def test_add_scale_examples():
    assert add(Jet3(1, 2, 3, 4), Jet3(4, 3, 2, 1)) == Jet3(5, 5, 5, 5)
    assert scale(Jet3(1, 2, 3, 4), 0.0) == Jet3(0, 0, 0, 0)
    assert scale(Jet3(1, 2, 3, 4), -1.0) == Jet3(-1, -2, -3, -4)


def test_mul_monomials():
    assert mul(seed(1.0), seed(1.0)) == Jet3(1.0, 2.0, 2.0, 0.0)
    assert mul(seed(2.0), mul(seed(2.0), seed(2.0))) == Jet3(8.0, 12.0, 12.0, 6.0)


def test_mul_matches_symbolic_oracle():
    x = sp.Symbol("x")
    rng_coeffs = [(3, -1, 2, 0.5), (-2, 0, 1, 1.5), (0.3, 0.7, -0.9, 0.1)]
    for ca in rng_coeffs:
        for cb in reversed(rng_coeffs):
            pa = sum(c * x ** k for k, c in enumerate(ca))
            pb = sum(c * x ** k for k, c in enumerate(cb))
            for x0 in (-1.3, 0.0, 0.8, 2.5):
                got = mul(jet_of(pa, x, x0), jet_of(pb, x, x0))
                assert_jets_close(got, jet_of(pa * pb, x, x0))


def test_tanh_examples():
    assert tanh_jet(Jet3(0, 1, 0, 0)) == Jet3(0.0, 1.0, 0.0, -2.0)
    for v in (-3.0, 0.0, 1.7):
        assert tanh_jet(constant(v)) == constant(math.tanh(v))
    t = math.tanh(1.0)
    want = Jet3(t, 1 - t * t, -2 * t * (1 - t * t), -2 * (1 - t * t) * (1 - 3 * t * t))
    assert_jets_close(tanh_jet(seed(1.0)), want)


def test_tanh_matches_symbolic_oracle():
    x = sp.Symbol("x")
    for x0 in (-2.0, -0.4, 0.0, 0.9, 3.1):
        inner = 0.7 * x ** 3 - 1.2 * x + 0.3
        got = tanh_jet(jet_of(inner, x, x0))
        assert_jets_close(got, jet_of(sp.tanh(inner), x, x0))


def test_composed_battery_matches_symbolic_oracle():
    # tanh(p(x)) * q(x) + x^2, built from the jet ops only
    x = sp.Symbol("x")
    p_expr = 0.5 * x ** 2 - x
    q_expr = 2 * x + 1
    for x0 in (-1.5, 0.2, 1.1):
        e = seed(x0)
        p_jet = add(scale(mul(e, e), 0.5), scale(e, -1.0))
        q_jet = add(scale(e, 2.0), constant(1.0))
        got = add(mul(tanh_jet(p_jet), q_jet), mul(e, e))
        assert_jets_close(got, jet_of(sp.tanh(p_expr) * q_expr + x ** 2, x, x0))


@settings(max_examples=200, deadline=None)
@given(jets, jets)
def test_mul_commutes_exactly(a, b):
    assert mul(a, b) == mul(b, a)


@settings(max_examples=100, deadline=None)
@given(finite, finite, jets)
def test_constants_annihilate(c1, c2, a):
    # every op applied to constant jets yields a constant jet
    for j in (
        add(constant(c1), constant(c2)),
        scale(constant(c1), c2),
        mul(constant(c1), constant(c2)),
        tanh_jet(constant(c1)),
    ):
        assert j.d1 == j.d2 == j.d3 == 0.0


@settings(max_examples=100, deadline=None)
@given(jets, jets, finite)
def test_linearity_and_finiteness(a, b, c):
    assert add(a, b) == add(b, a)
    s = scale(add(a, b), c)
    assert s == add(scale(a, c), scale(b, c)) or all(
        math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)
        for x, y in zip((s.v, s.d1, s.d2, s.d3),
                        (add(scale(a, c), scale(b, c)).v,
                         add(scale(a, c), scale(b, c)).d1,
                         add(scale(a, c), scale(b, c)).d2,
                         add(scale(a, c), scale(b, c)).d3))
    )
    for j in (add(a, b), scale(a, c), mul(a, b), tanh_jet(a)):
        assert j.is_finite()


def _expr_value(eta: float) -> float:
    # value channel of the composed expression used for the chain-rule check
    return math.tanh(eta * math.tanh(eta)) + 0.25 * eta * eta


def _expr_jet(eta: float) -> Jet3:
    e = seed(eta)
    return add(tanh_jet(mul(e, tanh_jet(e))), scale(mul(e, e), 0.25))


@pytest.mark.parametrize("eta", [-1.2, 0.4, 0.9, 1.8])
def test_chain_rule_consistency_with_finite_differences(eta):
    j = _expr_jet(eta)
    d1 = central_d1(_expr_value, eta)
    d2 = central_d2(_expr_value, eta)
    d3 = central_d3(_expr_value, eta, h=5e-3)
    assert j.d1 == pytest.approx(d1, rel=1e-5)
    assert j.d2 == pytest.approx(d2, rel=1e-4, abs=1e-6)
    assert j.d3 == pytest.approx(d3, rel=1e-3, abs=1e-5)
