"""Arithmetic and composition laws for the exact polynomial type.

Composition is checked pointwise: ``substitute`` and ``restrict_curve``
(curves are 1-variable Polynomials) must agree with evaluating the
images first and the outer polynomial at their values.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tetravol.exact_poly import Polynomial


def small_polys(nvars=3, max_deg=3, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    term = st.tuples(exps, st.integers(-50, 50))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Polynomial(nvars, dict(ts)))


points3 = st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                    st.integers(-6, 6))


def test_constructor_drops_zero_terms():
    p = Polynomial(2, {(1, 0): 3, (0, 1): 0})
    assert len(p.terms) == 1
    assert p.terms.get((0, 1), 0) == 0


def test_variable_and_constant():
    x = Polynomial.variable(3, 1)
    assert x.evaluate((5, 7, 11)) == 7
    assert Polynomial.constant(3, -4).evaluate((1, 2, 3)) == -4
    assert Polynomial.zero(3).is_zero()


@given(small_polys(), small_polys(), points3)
def test_add_is_pointwise(p, q, x):
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)


@given(small_polys(), small_polys(), points3)
def test_mul_is_pointwise(p, q, x):
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


@given(small_polys(), points3)
def test_neg_and_sub(p, x):
    assert (-p).evaluate(x) == -p.evaluate(x)
    assert (p - p).is_zero()


@given(small_polys(), st.integers(0, 4), points3)
def test_pow_matches_repeated_product(p, n, x):
    assert (p ** n).evaluate(x) == p.evaluate(x) ** n


@given(small_polys(), st.integers(-7, 7))
def test_scalar_mul(p, c):
    x = (2, -3, 5)
    assert (p * c).evaluate(x) == c * p.evaluate(x)
    assert (c * p) == (p * c)


# small exponents and coefficients, so that terms collide and cancel
tiny_polys = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 1)] * 3), st.integers(-3, 3)),
    max_size=6).map(lambda ts: Polynomial(3, dict(ts)))


@given(tiny_polys, tiny_polys, st.integers(-3, 3))
def test_arithmetic_results_are_canonical(p, q, c):
    for r in (p + q, p - q, p * q, p * c):
        assert r == Polynomial(r.nvars, dict(r.terms))
        assert all(r.terms.values())
        for exps in r.terms:
            assert type(exps) is tuple
            assert all(type(e) is int for e in exps)


def test_partial_derivative_on_monomial():
    p = Polynomial(2, {(3, 2): 5})
    dp = p.partial_derivative(0)
    assert dp == Polynomial(2, {(2, 2): 15})
    assert p.partial_derivative(1) == Polynomial(2, {(3, 1): 10})


@given(small_polys(), small_polys(), points3)
def test_derivative_is_linear(p, q, x):
    left = (p + q).partial_derivative(2)
    right = p.partial_derivative(2) + q.partial_derivative(2)
    assert left == right


@given(small_polys(max_deg=2, max_terms=4))
def test_derivative_product_rule(p):
    q = Polynomial(3, {(1, 0, 0): 2, (0, 0, 1): -3})
    left = (p * q).partial_derivative(0)
    right = p.partial_derivative(0) * q + p * q.partial_derivative(0)
    assert left == right


@given(small_polys(), points3)
def test_evaluate_accepts_fractions(p, x):
    xf = tuple(Fraction(v, 3) for v in x)
    got = p.evaluate(xf)
    scaled = p.evaluate(tuple(3 * v for v in xf))
    assert isinstance(got, (int, Fraction))
    assert scaled == p.evaluate(x)


@given(small_polys(nvars=2, max_deg=2, max_terms=4),
       small_polys(nvars=3, max_deg=2, max_terms=3),
       small_polys(nvars=3, max_deg=2, max_terms=3),
       points3)
def test_substitute_is_composition(p, img0, img1, x):
    composed = p.substitute([img0, img1])
    assert composed.evaluate(x) == p.evaluate(
        (img0.evaluate(x), img1.evaluate(x)))


def test_substitute_arity_mismatch():
    p = Polynomial(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        p.substitute([Polynomial.variable(3, 0)])


small_curves = st.lists(st.integers(-9, 9), min_size=1, max_size=3).map(
    lambda cs: Polynomial(1, {(k,): c for k, c in enumerate(cs)}))


@given(small_polys(), st.tuples(small_curves, small_curves, small_curves),
       st.integers(-5, 5))
def test_restrict_curve_is_pointwise(p, curves, t):
    restricted = p.restrict_curve(list(curves))
    assert restricted.nvars == 1
    assert restricted.evaluate((t,)) == p.evaluate(
        tuple(c.evaluate((t,)) for c in curves))


def evaluate_reference(poly, point):
    """An oracle for ``evaluate`` at a point of ints or Fractions.

    Each term is ``math.prod`` of its coefficient and its powers, each
    power computed afresh (a zero exponent contributes no factor), and
    the terms are summed in sorted exponent order: no power cache and no
    dict-order loop in common with ``evaluate``.
    """
    return sum(math.prod([c] + [x ** e for x, e in zip(point, exps) if e])
               for exps, c in sorted(poly.terms.items()))


def same_value(got, want):
    """Equal and of one type."""
    assert type(got) is type(want)
    assert got == want


def check_composition(poly, images):
    """``poly.evaluate(images)`` against the oracle, pointwise.

    At each integer point t of a small grid the composition's value must
    be the oracle's value of ``poly`` at the images' values at t.  A
    constant ``poly`` composes to an int, anything else to a Polynomial.
    """
    composed = poly.evaluate(images)
    assert (type(composed) is int) == (poly.total_degree() <= 0)
    for t in itertools.product(range(-2, 3), repeat=images[0].nvars):
        values = [evaluate_reference(img, t) for img in images]
        at_t = (composed if type(composed) is int
                else evaluate_reference(composed, t))
        assert at_t == evaluate_reference(poly, values)


fractions3 = st.tuples(*[st.fractions(-5, 5, max_denominator=7)] * 3)


@given(small_polys(), points3, fractions3,
       st.tuples(small_curves, small_curves, small_curves))
def test_evaluate_matches_the_oracle(p, x, q, curves):
    # twice: a call leaves nothing behind that changes the next
    for _ in range(2):
        same_value(p.evaluate(x), evaluate_reference(p, x))
        same_value(p.evaluate(q), evaluate_reference(p, q))
        check_composition(p, curves)


def test_evaluate_on_edge_polynomials():
    y = Polynomial.variable(2, 1)
    canonical = (Polynomial.variable(2, 0) + 1) * y - y ** 3
    polys = [Polynomial.zero(2), Polynomial.constant(2, -7),
             Polynomial._canonical(2, {(0, 0): 5, (2, 1): -3, (0, 4): 1}),
             canonical, -canonical, canonical - canonical]
    points = [(0, 0), (-3, 2), (Fraction(1, 2), Fraction(-4, 3))]
    images = [(Polynomial.variable(1, 0), Polynomial.constant(1, 2)),
              (y + 1, -y)]
    for p in polys:
        for point in points:
            same_value(p.evaluate(point), evaluate_reference(p, point))
        for point in images:
            check_composition(p, point)
    # the composition's terms come out in a fixed order
    assert list(polys[2].evaluate((y + 1, -y)).terms.items()) == [
        ((0, 3), 3), ((0, 2), 6), ((0, 1), 3), ((0, 0), 5), ((0, 4), 1)]
    with pytest.raises(ValueError):
        polys[0].evaluate((1, 2, 3))


def test_restrict_curve_needs_one_variable_curves():
    p = Polynomial(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        p.restrict_curve([Polynomial.variable(2, 0)] * 2)


@given(small_polys())
def test_serialize_parse_roundtrip(p):
    if p.is_zero():
        # empty text holds no term to give the variable count
        with pytest.raises(ValueError):
            Polynomial.parse(p.serialize())
    else:
        assert Polynomial.parse(p.serialize()) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Polynomial.parse("not a polynomial")


def test_degree_accounting():
    p = Polynomial(3, {(2, 0, 3): 1, (4, 1, 0): -2})
    assert p.total_degree() == 5
    assert Polynomial.zero(3).total_degree() == -1


# distinct exponents and nonzero coefficients on both sides of the int64
# range, in the drawn order: the terms as the pullback hands them over
array_terms = st.integers(0, 4).flatmap(lambda nvars: st.lists(
    st.tuples(st.tuples(*[st.integers(0, 6)] * nvars),
              st.integers(-2 ** 70, 2 ** 70).filter(bool)),
    max_size=8, unique_by=lambda t: t[0]).map(lambda ts: (nvars, ts)))


def from_arrays(nvars, ts):
    """The Polynomial of the terms ts, built from arrays, not a dict."""
    exps = np.array([e for e, _ in ts], dtype=np.intp).reshape(len(ts), nvars)
    vals = [c for _, c in ts]
    fits = all(-2 ** 63 <= c < 2 ** 63 for c in vals)
    coeffs = np.array(vals, dtype=np.int64 if fits else object)
    return Polynomial._from_arrays(nvars, exps.T.copy(), coeffs)


@given(array_terms)
@example((0, []))
@example((0, [((), -4)]))
@example((2, [((1, 0), 2 ** 63 - 1), ((0, 0), -(2 ** 63))]))
@example((2, [((0, 3), 2 ** 63), ((1, 1), -1)]))
@settings(max_examples=60)
def test_an_array_built_polynomial_is_its_dict_built_twin(drawn):
    nvars, ts = drawn
    p, twin = from_arrays(nvars, ts), Polynomial(nvars, dict(ts))
    assert p == twin and twin == p
    assert list(p.terms.items()) == list(twin.terms.items()) == ts
    for exps, c in p.terms.items():
        assert type(exps) is tuple and type(c) is int
        assert all(type(e) is int for e in exps)
    assert p.serialize() == twin.serialize()
    assert p.total_degree() == twin.total_degree()
    assert p.is_zero() == twin.is_zero() == (not ts)
    x = tuple(range(2, 2 + nvars))
    assert p.evaluate(x) == twin.evaluate(x)
    assert p + twin == 2 * twin and p * twin == twin * twin
    # the dict-built twin's arrays are the same arrays, computed once
    exps, coeffs = twin.arrays()
    assert twin.arrays()[0] is exps
    assert exps.shape == (nvars, len(ts)) and exps.flags.c_contiguous
    assert np.array_equal(exps, p.arrays()[0])
    assert coeffs.dtype == p.arrays()[1].dtype
    assert coeffs.tolist() == p.arrays()[1].tolist() == [c for _, c in ts]
