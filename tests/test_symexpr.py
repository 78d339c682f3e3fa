"""Exact multivariate polynomials with exponential prefactors."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weinorman import RationalComplex, SymbolicExpr

a, u = SymbolicExpr.a, SymbolicExpr.u


def _combine(pair):
    (x, y), op = pair
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    return x * y


_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)

_atoms = st.one_of(
    st.integers(-3, 3).map(SymbolicExpr.number),
    st.builds(RationalComplex, _fractions, _fractions).map(SymbolicExpr.number),
    st.integers(1, 4).map(SymbolicExpr.a),
    st.integers(1, 4).map(SymbolicExpr.u),
    st.dictionaries(
        st.integers(1, 4), st.integers(-2, 2).filter(bool), max_size=2
    ).map(SymbolicExpr.exp_u),
)

exprs = st.recursive(
    _atoms,
    lambda kids: st.tuples(st.tuples(kids, kids), st.sampled_from("+-*")).map(
        _combine
    ),
    max_leaves=8,
)

_vals = st.lists(
    st.floats(min_value=-0.8, max_value=0.8), min_size=4, max_size=4
).map(np.array)


# -- ring laws ---------------------------------------------------------------


@given(exprs, exprs, exprs)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == SymbolicExpr.zero()
    assert x + SymbolicExpr.zero() == x
    assert x * SymbolicExpr.number(1) == x
    assert (x * SymbolicExpr.number(0)).is_zero


@given(exprs, exprs, _vals, _vals)
def test_evaluate_is_a_homomorphism(x, y, av, uv):
    scale = max(abs(x.evaluate(av, uv)), abs(y.evaluate(av, uv)), 1.0)
    assert abs((x + y).evaluate(av, uv) - (x.evaluate(av, uv) + y.evaluate(av, uv))) < 1e-10 * scale
    assert abs((x * y).evaluate(av, uv) - x.evaluate(av, uv) * y.evaluate(av, uv)) < 1e-9 * scale * scale
    assert abs((-x).evaluate(av, uv) + x.evaluate(av, uv)) < 1e-12 * scale


@given(exprs, st.integers(0, 3))
def test_json_roundtrip(x, depth):
    text = json.dumps(x.to_json_obj())
    assert SymbolicExpr.from_json_obj(json.loads(text)) == x
    # the direct writer gives json.dumps's indent-2 text, nested depth deep
    nested = json.dumps(x.to_json_obj(), indent=2).replace("\n", "\n" + "  " * depth)
    assert x.to_json_text(depth) == nested


def test_exponential_forms_merge_and_cancel():
    f = SymbolicExpr.exp_u({1: 1, 2: -1}) * SymbolicExpr.exp_u({2: 1, 3: 2})
    assert f == SymbolicExpr.exp_u({1: 1, 3: 2})
    assert f.render_plain() == "exp(u1 + 2*u3)"
    assert SymbolicExpr.exp_u({}) == SymbolicExpr.number(1)
    g = SymbolicExpr.exp_u({1: 2}) * SymbolicExpr.exp_u({1: -2})
    assert g == SymbolicExpr.number(1)


def test_times_exp_matches_multiplication():
    x = a(1) + u(2) * a(3)
    assert x.times_exp({4: 2, 5: -1}) == x * SymbolicExpr.exp_u({4: 2, 5: -1})


@given(
    st.dictionaries(st.integers(1, 4), st.integers(-2, 2).filter(bool), max_size=3),
    _vals,
    _vals,
)
def test_exp_form_evaluation(form, av, uv):
    val = SymbolicExpr.exp_u(form).evaluate(av, uv)
    expected = np.exp(sum(c * uv[i - 1] for i, c in form.items()))
    assert abs(val - expected) < 1e-12 * abs(expected)


# -- rendering ----------------------------------------------------------------


def test_plain_rendering():
    e = a(1) + 2 * a(2) * u(1) - a(3) * u(1) * u(1)
    assert e.render_plain() == "a1 + 2*a2*u1 - a3*u1^2"
    assert (a(3) * SymbolicExpr.exp_u({2: 2})).render_plain() == "a3*exp(2*u2)"
    assert SymbolicExpr.zero().render_plain() == "0"


def test_latex_rendering():
    e = a(1) + 2 * a(2) * u(1) - a(3) * u(1) * u(1)
    assert e.render_latex() == "a_{1} + 2 a_{2} u_{1} - a_{3} u_{1}^{2}"
    half = SymbolicExpr.number(Fraction(1, 2)) * u(2)
    assert half.render_latex() == r"\frac{1}{2} u_{2}"


def test_rational_and_complex_coefficients():
    assert (SymbolicExpr.number(Fraction(1, 2)) * u(1)).render_plain() == "1/2*u1"
    i = RationalComplex(Fraction(0), Fraction(1))
    assert (SymbolicExpr.number(i) * a(1)).render_plain() == "i*a1"
    mixed = RationalComplex(Fraction(1), Fraction(-2))
    assert (SymbolicExpr.number(mixed) * a(1)).render_plain() == "(1-2i)*a1"
    assert i * i == RationalComplex(Fraction(-1))
    # parts are ints when integral, Fractions otherwise
    two = RationalComplex(Fraction(4, 2))
    assert type(two.re) is int and two.re == 2 and type(two.im) is int
    assert two == RationalComplex(2) and hash(two) == hash(RationalComplex(2))
    half = RationalComplex(Fraction(1, 2))
    assert half.re == Fraction(1, 2) and type(half.re) is Fraction
    # a 1/2 coefficient that comes out integral is an int again
    assert type((half * RationalComplex(2)).re) is int
    assert type((half + half).re) is int
    ((_, coeff),) = (SymbolicExpr.number(Fraction(1, 2)) * 2 * u(1)).terms()
    assert type(coeff.re) is int and coeff == RationalComplex(1)
    # a 1/2 coefficient keeps its [num, den] pair and round-trips
    obj = (SymbolicExpr.number(half) * u(1)).to_json_obj()
    assert obj[0]["coeff"] == {"re": [1, 2], "im": [0, 1]}
    assert SymbolicExpr.from_json_obj(obj) == SymbolicExpr.number(half) * u(1)


def test_rational_complex_is_immutable():
    x = RationalComplex(1, 2)
    with pytest.raises(AttributeError):
        x.re = 3
    with pytest.raises(AttributeError):
        del x.im
    assert x == RationalComplex(1, 2)


def test_rendering_is_deterministic():
    # same terms assembled in different orders render identically
    e1 = a(1) * u(2) + u(3) * a(2)
    e2 = a(2) * u(3) + u(2) * a(1)
    assert e1 == e2
    assert e1.render_plain() == e2.render_plain()


# -- term structure queries ----------------------------------------------------


def test_structure_queries():
    e = u(1) * u(2) + a(1) * SymbolicExpr.exp_u({3: 1})
    assert e.u_indices() == {1, 2}
    assert e.exp_indices() == {3}
    q = a(1) + u(2) * u(2) * a(2)
    assert q.degree_in({2}) == 2
    assert q.degree_in({1}) == 0


def test_coerce_rejects_junk():
    with pytest.raises(TypeError):
        SymbolicExpr.number(1.5)
    with pytest.raises(TypeError):
        RationalComplex.coerce(True)
    with pytest.raises(TypeError):
        RationalComplex(0.5)
