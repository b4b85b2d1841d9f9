"""Determinant, derivative, and edge-subset checks against known values."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from tetravol.anti_certification import f_value_bordered
from tetravol.cayley_menger import (
    AXIS_PAIRS, EDGES, FACES, VERTEX_EDGES, EdgeIndex, EdgeSubset,
    clear_denominators, directional_derivative, f_hat_value, f_polynomial,
    is_tetrahedral, strict_faces, tetrahedral_f,
)
from tetravol.exact_poly import Polynomial

REGULAR = (1, 1, 1, 1, 1, 1)
CENTER = (4, 4, 4, 4, 4, 4)


def cofactor_det(matrix):
    """Determinant by cofactor expansion along the first row.

    Entries are Polynomials, so this gives a determinant as a polynomial.
    """
    if len(matrix) == 1:
        return matrix[0][0]
    total = Polynomial.zero(matrix[0][0].nvars)
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        cof = entry * cofactor_det(minor)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def bordered_determinant(s):
    """The bordered 5x5 Cayley-Menger determinant with squared lengths s.

    The oracle for ``f_hat_value``: s holds six Polynomials, entry (i, j)
    of the inner 4x4 block is s[EdgeIndex.of(i, j)].
    """
    one, zero = Polynomial.constant(6, 1), Polynomial.zero(6)
    m = [[zero, one, one, one, one]]
    for i in range(1, 5):
        m.append([one] + [zero if i == j else s[EdgeIndex.of(i, j)]
                          for j in range(1, 5)])
    return cofactor_det(m)


def volume_squared(d):
    """Exact squared volume f(d)/288 as a Fraction."""
    ints, scale = clear_denominators(d)
    return Fraction(f_polynomial().evaluate(ints), 288 * scale ** 6)


def test_edge_order_is_lexicographic():
    assert EDGES == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    for k, (i, j) in enumerate(EDGES):
        assert EdgeIndex.of(i, j) == k
        assert EDGES[k] == (i, j)


def test_axis_pairs_are_disjoint_edges():
    assert AXIS_PAIRS == ((0, 5), (1, 4), (2, 3))
    for k1, k2 in AXIS_PAIRS:
        assert not set(EDGES[k1]) & set(EDGES[k2])


def test_vertex_edges_cover_each_star():
    for v, ks in VERTEX_EDGES.items():
        assert all(v in EDGES[k] for k in ks)
        assert len(ks) == 3


def test_faces_list_their_boundary_edges():
    for face, ks in FACES.items():
        for k in ks:
            assert set(EDGES[k]) <= set(face)
        assert len(ks) == 3


def test_f_shape():
    f = f_polynomial()
    assert len(f.terms) == 22
    assert f.total_degree() == 6
    assert max(map(max, f.terms)) == 4


def test_f_factors_through_squares():
    squares = [Polynomial.variable(6, k) ** 2 for k in range(6)]
    assert bordered_determinant(squares) == f_polynomial()


def test_each_accessor_returns_the_same_object():
    # callers share one polynomial; a rebuild per call would be waste
    assert f_polynomial() is f_polynomial()


def test_known_values():
    f = f_polynomial()
    assert f.evaluate(REGULAR) == 4
    assert f.evaluate(CENTER) == 16384
    assert f.evaluate((6, 3, 3, 3, 3, 6)) == -93312


def test_degenerate_configurations_vanish():
    f = f_polynomial()
    for d in [(0, 6, 6, 6, 6, 0), (6, 0, 6, 6, 0, 6), (6, 6, 0, 0, 6, 6),
              (8, 8, 8, 0, 0, 0), (8, 0, 0, 8, 8, 0), (0, 8, 0, 8, 0, 8),
              (0, 0, 8, 0, 8, 8)]:
        assert f.evaluate(d) == 0


def test_volume_of_regular_unit_tetrahedron():
    assert volume_squared(REGULAR) == Fraction(1, 72)
    assert volume_squared(CENTER) == Fraction(16384, 288)


@given(st.tuples(*[st.integers(1, 9)] * 6), st.integers(1, 4))
def test_f_is_homogeneous_degree_six(d, lam):
    f = f_polynomial()
    scaled = tuple(lam * v for v in d)
    assert f.evaluate(scaled) == lam ** 6 * f.evaluate(d)


@given(st.tuples(*[st.integers(1, 9)] * 6), st.integers(1, 4))
def test_g_is_homogeneous_degree_five(d, lam):
    g = directional_derivative(EdgeSubset.parse("12,13"))
    scaled = tuple(lam * v for v in d)
    assert g.evaluate(scaled) == lam ** 5 * g.evaluate(d)


def test_directional_derivative_is_additive():
    singles = [directional_derivative(EdgeSubset((k,))) for k in range(6)]
    # cached by the edge indices, however the subset was built
    assert directional_derivative(EdgeSubset.parse("12")) is singles[0]
    f = f_polynomial()
    for k in range(6):
        assert singles[k] == f.partial_derivative(k)
    assert directional_derivative(EdgeSubset((0, 2, 5))) == (
        singles[0] + singles[2] + singles[5])
    total = Polynomial.zero(6)
    for s in singles:
        total = total + s
    assert directional_derivative(EdgeSubset.full()) == total


def test_directional_derivative_known_value():
    g = directional_derivative(EdgeSubset.full())
    assert g.evaluate(CENTER) == 24576
    assert g.evaluate((6, 3, 3, 3, 3, 6)) == -62208


def test_is_tetrahedral_known_cases():
    assert is_tetrahedral(REGULAR)
    assert is_tetrahedral(CENTER)
    assert is_tetrahedral((3, 4, 5, 4, 5, 3))
    # flat: one length equal to the sum of two others on a face
    assert not is_tetrahedral((1, 1, 1, 1, 1, 4))
    assert not is_tetrahedral((0, 6, 6, 6, 6, 0))


def test_is_tetrahedral_needs_positive_volume():
    # all face triangles fine but negative determinant
    d = (6, 3, 3, 3, 3, 6)
    assert f_polynomial().evaluate(d) < 0
    assert not is_tetrahedral(d)


def test_rational_lengths_are_exact_and_floats_are_refused():
    d = (3, 4, 5, 4, 5, 3)
    mixed = (Fraction(3, 2), 2, Fraction(5, 2), Fraction(4, 2), Fraction(5, 2),
             Fraction(3, 2))
    assert is_tetrahedral(mixed)
    assert volume_squared(mixed) == volume_squared(d) / 64
    for bad in ((4.0, 4, 4, 4, 4, 4), (4, 4, 4, 4, 4, "4")):
        for fn in (is_tetrahedral, volume_squared):
            with pytest.raises(TypeError, match="int or Fraction"):
                fn(bad)


def test_clear_denominators_takes_ints_and_fractions_only():
    assert clear_denominators((4, 4, 4, 4, 4, 4)) == ([4] * 6, 1)
    assert clear_denominators((Fraction(1, 2), 1, 2, Fraction(2, 3), 0,
                               -1)) == ([3, 6, 12, 4, 0, -6], 6)
    # a float anywhere, even among ints, is refused, not truncated
    for k in range(6):
        for bad in (4.0, 0.5, "4"):
            d = [4] * 6
            d[k] = bad
            with pytest.raises(TypeError, match="int or Fraction, not %s"
                               % type(bad).__name__):
                clear_denominators(tuple(d))


def test_closed_form_is_f_hat():
    # the 22 terms written out are the determinant's cubic
    variables = [Polynomial.variable(6, k) for k in range(6)]
    fhat = bordered_determinant(variables)
    assert fhat.total_degree() == 3
    assert len(fhat.terms) == 22
    assert f_hat_value(variables) == fhat


def _squared(s, i, j):
    """s_ij among the six squared-length variables s, with s_ii = 0."""
    return Polynomial.zero(6) if i == j else s[EdgeIndex.of(i, j)]


def test_lengthening_identities_hold_as_polynomials():
    # Euler's identity for f, homogeneous of degree 6; and with S the sum
    # of the six lengths, S * sum_k df/dd_k - 36 f, the sign of the
    # derivative of f / S^6 along d + t (1, ..., 1), is the homogenized
    # 12 (2 (S/24) g - 3 f) of the full-K4 g, here times 24
    d = [Polynomial.variable(6, k) for k in range(6)]
    f = f_polynomial()
    partials = [f.partial_derivative(k) for k in range(6)]
    euler = Polynomial.zero(6)
    for x, p in zip(d, partials):
        euler = euler + x * p
    assert euler == 6 * f
    total = sum(d, Polynomial.zero(6))
    g = directional_derivative(EdgeSubset.full())
    margin = total * sum(partials, Polynomial.zero(6)) - 36 * f
    assert not margin.is_zero()
    assert 24 * margin == 12 * (2 * total * g - 72 * f)


def test_f_hat_is_the_determinant_of_the_border_eliminated_matrix():
    # M_ab = s_1a + s_1b - s_ab for a, b in 2..4, twice the Gram matrix
    # of the edge vectors from vertex 1, so det M = 8 det G
    s = [Polynomial.variable(6, k) for k in range(6)]
    m = [[_squared(s, 1, a) + _squared(s, 1, b) - _squared(s, a, b)
          for b in (2, 3, 4)] for a in (2, 3, 4)]
    assert cofactor_det(m) == f_hat_value(s)


def test_each_face_heron_form_is_four_times_its_gram_determinant():
    # the Gram matrix G of a face's edge vectors from any of its vertices
    # i is 2x2, so 4 det G is det 2G, whose entries are 2 s_ij, 2 s_ik
    # and s_ij + s_ik - s_jk
    s = [Polynomial.variable(6, k) for k in range(6)]
    for face, slots in FACES.items():
        x, y, z = (s[k] for k in slots)
        heron = 2 * (x * y + y * z + z * x) - x * x - y * y - z * z
        for i in face:
            j, k = (v for v in face if v != i)
            off = _squared(s, i, j) + _squared(s, i, k) - _squared(s, j, k)
            gram = [[2 * _squared(s, i, j), off],
                    [off, 2 * _squared(s, i, k)]]
            assert cofactor_det(gram) == heron


def test_closed_form_matches_the_bordered_determinant():
    # flat, zero-length and negative-volume lists, then random ones,
    # small enough to hit degenerate lists often, and large
    points = [(0, 6, 6, 6, 6, 0), (8, 8, 8, 0, 0, 0), (1, 1, 1, 1, 1, 2),
              (1, 1, 1, 1, 1, 4), (0,) * 6, (6, 3, 3, 3, 3, 6), REGULAR]
    rng = random.Random(9)
    for bound in (3, 9, 2 ** 40):
        points += [tuple(rng.randint(-bound, bound) for _ in range(6))
                   for _ in range(200)]
    for d in points:
        value = f_hat_value([x * x for x in d])
        assert value == f_value_bordered(d)
        assert value == f_polynomial().evaluate(d)
    assert 0 in {f_value_bordered(d) for d in points[7:]}


def test_strict_faces_is_the_face_loop():
    # what tetrahedral_f tested before the f sign: positive lengths and a
    # strict triangle inequality on each face
    rng = random.Random(10)
    for _ in range(3000):
        d = tuple(rng.randint(-2, 9) for _ in range(6))
        if rng.random() < 0.2:
            d = tuple(Fraction(x, rng.randint(1, 3)) for x in d)
        want = all(x > 0 for x in d) and all(
            d[i] + d[j] > d[k] and d[i] + d[k] > d[j] and d[j] + d[k] > d[i]
            for i, j, k in FACES.values())
        assert strict_faces(d) == want
        f = f_polynomial().evaluate(d)
        assert tetrahedral_f(d) == (f if want and f > 0 else None)


# -- edge subsets --------------------------------------------------------

def test_parse_spec_roundtrip():
    for text in ["12", "12,34", "12,13,14", "12,13,24,34"]:
        assert EdgeSubset.parse(text).spec() == text
    with pytest.raises(ValueError):
        EdgeSubset.parse("15")
    with pytest.raises(ValueError):
        EdgeSubset(())
    # an edge named twice, in either order of its ends, is refused
    for text in ("12,21", "12,12,34", "34,13,43"):
        with pytest.raises(ValueError, match="repeated edge"):
            EdgeSubset.parse(text)


def test_classification_tags():
    cases = {
        "12": "single-edge",
        "12,34": "opposite-pair",
        "12,13": "incident-pair",
        "12,13,14": "tripod",
        "12,13,23": "3-cycle",
        "12,14,23": "3-path",
        "12,13,24,34": "4-cycle",
        "12,13,14,23": "complement-of-incident-pair",
        "12,13,14,23,24": "complement-of-edge",
        "12,13,14,23,24,34": "full-K4",
    }
    for text, tag in cases.items():
        assert EdgeSubset.parse(text).classify() == tag


def test_classification_counts_over_all_subsets():
    tags = {}
    for n in range(1, 7):
        for idx in combinations(range(6), n):
            tag = EdgeSubset(idx).classify()
            tags[tag] = tags.get(tag, 0) + 1
    assert tags == {
        "single-edge": 6, "opposite-pair": 3, "incident-pair": 12,
        "tripod": 4, "3-cycle": 4, "3-path": 12, "4-cycle": 3,
        "complement-of-incident-pair": 12, "complement-of-edge": 6,
        "full-K4": 1,
    }

