"""The cube engine against the object oracle, and its one instance.

``NumpyBackend`` is the package's one engine: float64 limbs holding box
partial sums. ``ObjectEngine`` in ``_object_engine.py`` computes on
Python ints in the coefficient basis and is the oracle; ``to_poly``
beside it decodes a limb cube. The limb engine is checked against the
oracle operation by operation on coefficients at the limb boundaries,
its per-axis maps are rebuilt in Python ints, its root cubes are pinned
to a construction by ``np.cumsum``, and its cubes, which span only the
root's degree box, are checked to keep that box along whole walks. A
multi-limb half is made as its top limb first and its lower limbs only
when the walk needs them; its answers are checked against the full
product at the carry bounds that decide them. The run-level tests
compare whole certify runs with the oracle's walk.
"""

import dataclasses
import hashlib
import sys
import threading
import weakref
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm, prod
from operator import le
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from tetravol._kernels import (
    DILATE, DILATE_REFLECT, HALVES_T, LIMB, LIMB_BITS, PREFIX, REFLECT,
    SETTLES, MemoryCapError, NumpyBackend, _value, _Views, get_backend,
)
from tetravol import _kernels, positive_dominance
from tetravol.case_suite_cli import case_registry
from tetravol.cayley_menger import EdgeSubset, directional_derivative
from tetravol.chamber_geometry import build_partitions
from tetravol.cli import main
from tetravol.exact_poly import Polynomial
from tetravol.positive_dominance import (_traverse, certify, replay,
                                         tree_shape)
from tetravol.simplex_pullback import pullback

from _object_engine import (ObjectEngine, fit_cube, normalize_cube,
                            to_poly, turn)


def test_backend_selection(monkeypatch):
    monkeypatch.delenv("TETRAVOL_BACKEND", raising=False)
    eng = get_backend()
    assert isinstance(eng, NumpyBackend) and eng.name == "numpy"
    # TETRAVOL_BACKEND is ignored: one cached instance
    for env in ("numpy", " numpy ", "", "numba", "fortran"):
        monkeypatch.setenv("TETRAVOL_BACKEND", env)
        assert get_backend() is eng


def test_two_limb_range_is_enforced():
    # every limb stays in its 43-bit range: a coefficient past it takes
    # another limb, so the engine has no coefficient ceiling
    eng = get_backend()
    for bits in (42, 43, 55, 56, 86, 90, 111, 112, 129, 200):
        for c in (2 ** bits - 1, 2 ** bits, -2 ** bits):
            p = Polynomial(5, {(0, 0, 0, 0, 0): c})
            cube = eng.from_poly(p)
            assert meets_limb_invariant(cube)
            assert len(cube) * LIMB_BITS > bits
            assert to_poly(cube) == p


def test_roundtrip_through_each_engine():
    x = Polynomial.variable(5, 2)
    p = 5 * x * x - 3 * x + Polynomial.constant(5, 11)
    eng = get_backend()
    assert to_poly(eng.from_poly(p)) == p


def small_polys5():
    exps = st.tuples(*[st.integers(0, 2) for _ in range(5)])
    term = st.tuples(exps, st.integers(-30, 30))
    return st.lists(term, max_size=5).map(
        lambda ts: Polynomial(5, dict(ts)))


# bit sizes on both sides of one, two and three 43-bit limbs and of one
# and two 40-, 48- and 56-bit limbs, and four limbs or more of each
LIMB_EDGE_BITS = (39, 40, 41, 42, 43, 44, 47, 48, 49, 55, 56, 57, 79, 80,
                  81, 85, 86, 87, 95, 96, 97, 111, 112, 113, 128, 129, 130,
                  200)


def limb_edge_coeffs():
    magnitude = st.sampled_from(LIMB_EDGE_BITS).flatmap(
        lambda b: st.one_of(st.sampled_from((2 ** b - 1, 2 ** b)),
                            st.integers(2 ** (b - 1), 2 ** b - 1)))
    return st.tuples(st.booleans(), magnitude).map(
        lambda t: -t[1] if t[0] else t[1])


def limb_edge_polys5():
    exps = st.tuples(*[st.integers(0, 6) for _ in range(5)])
    return st.dictionaries(exps, limb_edge_coeffs(), min_size=1,
                           max_size=6).map(lambda ts: Polynomial(5, ts))


def meets_limb_invariant(cube, top_bound=LIMB):
    # lower limbs are fractions r / 2^43, exact in float64, so scaling
    # them back by 2^43 gives their integers r
    low, top = cube[:-1] * LIMB, cube[-1]
    return (cube.dtype == np.float64 and cube.flags.c_contiguous
            and (low == np.floor(low)).all()
            and ((low >= 0) & (low < LIMB)).all()
            and (top == np.floor(top)).all()
            and (abs(top) < top_bound).all())


# a product's output keeps the top limb its carry leaves: below
# 320 * 2^43 + 320 in magnitude, from an input whose top is below 2^43,
# until the next product's input is fitted back into range
PRODUCT_TOP = 321 * LIMB


def made_whole(eng):
    """A copy of eng's cube under test with every limb made, as eng makes
    a half's lower limbs and carry, leaving eng and its cube as they
    are."""
    twin = NumpyBackend()
    twin._tested = _Views(eng._tested.cube.copy())
    twin._unmade = eng._unmade
    return twin._made().cube


def record(cube, depth):
    """A record of cube, an array outside any engine's buffers, as an
    engine keeps for a cube it made at depth."""
    views = _Views(cube)
    views.depth = depth
    return views


def put_under_test(eng, views):
    """Make a record's cube eng's cube under test, whole, as from_poly
    leaves a root; returns the record."""
    eng._tested, eng._unmade, eng._least = views, None, -np.inf
    return views


def full_product(parent, side):
    """The half of parent, a cube, on side, made whole at once."""
    return NumpyBackend()._product(_Views(parent), HALVES_T[side]).cube


# dilating axis 0 multiplies its box sums by 2^6 (the rows of DILATE[7]
# sum to 64), so the largest box sum 2^85, a top limb of 2^42, leaves
# the two-limb range and the cube must take a third limb
WIDENS_ON_DILATE = Polynomial(5, {(0, 0, 0, 0, 0): 2 ** 85 - 1,
                                  (6, 0, 0, 0, 0): 1})
# coefficients [2, -3, 1] along axis 0, stored as box sums [2, -1, 0]:
# the top slab of S is zero although x0^2 is the top term
ZERO_TOP_SUM = Polynomial(5, {(0, 0, 0, 0, 0): 2, (1, 0, 0, 0, 0): -3,
                              (2, 0, 0, 0, 0): 1})
# 3^53, about 2^84, sets low bits all through its top limb, unlike
# 2^85 - 1, so once a split's output leaves the range its walk's next
# product is exact only on an input that was fitted back into it
FITS_A_PRODUCT_OUTPUT = Polynomial(5, {(0, 0, 0, 0, 0): 3 ** 53,
                                       (6, 0, 0, 0, 0): 1}) * (
    Polynomial.variable(5, 1) - Polynomial.variable(5, 3)) ** 2


@given(limb_edge_polys5())
@example(WIDENS_ON_DILATE)
@example((Polynomial.variable(5, 1) - Polynomial.variable(5, 3)) ** 2)
@example(ZERO_TOP_SUM)
@example(FITS_A_PRODUCT_OUTPUT)
# no shrink phase: on a broken engine, shrinking these polynomials ran
# for minutes per failure, and the first failing example is report enough
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_limb_engine_agrees_with_the_object_oracle(p):
    eng, oracle = NumpyBackend(), ObjectEngine()
    cube, ref = eng.from_poly(p), oracle.from_poly(p)
    before = cube.copy()
    assert meets_limb_invariant(cube)
    assert to_poly(cube) == p
    assert eng.wpd() == oracle.wpd()
    assert eng.origin_negative() == oracle.origin_negative()
    assert eng.corner_value() == oracle.corner_value()
    for axis in range(5):
        # x_axis leads after axis turns, and every operation adds a turn
        turned = turn(cube, axis)
        reflected = eng.reflect(turned, axis)
        dilated = eng.dilate(turned, axis)
        assert meets_limb_invariant(reflected, PRODUCT_TOP)
        assert meets_limb_invariant(dilated, PRODUCT_TOP)
        assert to_poly(reflected, axis + 1) == oracle.to_poly(
            oracle.reflect(ref, axis))
        assert to_poly(dilated, axis + 1) == oracle.to_poly(
            oracle.dilate(ref, axis))
        # each half of a split, and the half brought back in range, as
        # the walk fits a cube before it makes its halves: turned is a
        # cube at depth axis, its halves at depth axis + 1, and ref, the
        # oracle's root, is taken as its cube at depth axis
        put_under_test(eng, record(turned, axis))
        oracle._cube, oracle._depth = ref, axis
        parent, ref_parent = eng.fit(), oracle.fit()
        assert parent.cube is turned and ref_parent[0] is ref
        for side in (0, 1):
            # the walk's tests read the half as child makes it, its lower
            # limbs perhaps unmade, and must answer as the full product
            whole = full_product(turned, side)
            child = eng.child(parent, side)
            assert eng.origin_negative() == (whole[-1, 0, 0, 0, 0, 0] < 0)
            assert eng.wpd() == (whole[-1].min() >= 0)
            want = oracle.to_poly(oracle.child(ref_parent, side))
            assert eng._made().cube is child
            assert np.array_equal(child, whole)
            assert meets_limb_invariant(child, PRODUCT_TOP)
            assert to_poly(child, axis + 1) == want
            fitted = eng.fit().cube
            assert meets_limb_invariant(fitted)
            assert to_poly(fitted, axis + 1) == want
        # no product writes to its input
        assert np.array_equal(turned, turn(before, axis))
    assert np.array_equal(cube, before)
    assert _traverse(p, 60, eng) == _traverse(p, 60, oracle)


def cumsum_from_poly(p):
    """The root cube by five normalized ``np.cumsum`` passes.

    The reference for ``from_poly``, which makes the same passes as
    PREFIX products, each on an input ``_fit`` has brought in range.
    """
    axes = [list(col) for col in zip(*p.terms)] or [[]] * 5
    shape = tuple(max(col, default=0) + 1 for col in axes)
    vals = list(p.terms.values())
    bits = max(max(vals, default=0), -min(vals, default=0)).bit_length()
    k = bits // LIMB_BITS + 1
    cube = np.zeros((k,) + shape)
    for i in range(k - 1):
        cube[(i, *axes)] = [v % (1 << LIMB_BITS) / LIMB for v in vals]
        vals = [v >> LIMB_BITS for v in vals]
    cube[(k - 1, *axes)] = vals
    for a in range(5):
        cube = normalize_cube(np.cumsum(fit_cube(cube), axis=a + 1))
    return fit_cube(cube)


class ProductSpy(NumpyBackend):
    """The limb engine, checking the input and output of every product.

    A product's input, a half's parent included, is fitted unless
    ``from_poly`` has bounded its top limb; either way it, and the root,
    must meet the limb invariant, so its top limb is in range. Its
    output, each half made whole whether or not the walk has its lower
    limbs made, may keep a top limb past it, below PRODUCT_TOP.
    ``limbs`` lists the inputs' and roots' limb counts, ``past`` counts
    the outputs whose top limb left the range, ``fits`` the calls to
    ``fit``, from_poly's and the walk's.
    """

    def __init__(self):
        super().__init__()
        self.limbs, self.past, self.fits = [], 0, 0

    def from_poly(self, p):
        cube = super().from_poly(p)
        assert meets_limb_invariant(cube)
        self.limbs.append(len(cube))
        return cube

    def fit(self):
        self.fits += 1
        return super().fit()

    def _product(self, views, table, depth=None):
        assert meets_limb_invariant(views.cube)
        self.limbs.append(len(views.cube))
        out = super()._product(views, table, depth)
        self._output(out.cube)
        return out

    def child(self, parent, side):
        assert meets_limb_invariant(parent.cube)
        self.limbs.append(len(parent.cube))
        half = super().child(parent, side)
        self._output(made_whole(self))
        return half

    def _output(self, out):
        assert meets_limb_invariant(out, PRODUCT_TOP)
        self.past += bool(abs(out[-1]).max() >= LIMB)
        return out


def assert_cumsum_cube(p):
    """from_poly gives the cumsum cube, in depth 0's buffer alone."""
    eng = NumpyBackend()
    cube, want = eng.from_poly(p), cumsum_from_poly(p)
    assert cube.shape == want.shape
    assert np.array_equal(cube, want)
    assert meets_limb_invariant(cube)
    # the passes ran between the buffers of depths 1 and 0
    assert sorted(eng._slots) == [0, 1]
    assert cube.base is eng._slots[0]
    assert not np.shares_memory(eng._slots[1], cube)
    return cube


def test_registry_roots_match_the_cumsum_construction():
    roots = [pullback(task.func.polynomial(spec.beta),
                      spec.simplices[task.simplex])
             for spec in case_registry().values() for task in spec.tasks]
    assert len(roots) == 36
    for p in roots:
        assert_cumsum_cube(p)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_endpoint_scan_roots_match_the_cumsum_construction(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    ctx = SimpleNamespace(partitions=build_partitions())
    ops = workloads.make_ops("endpoint-scan", ctx, 1801, 20)
    shapes = {assert_cumsum_cube(workloads.endpoint_run(ctx, op)[0]).shape
              for op in ops}
    # roots of full and of shrunken degree boxes
    assert shapes == {(1, 7, 7, 7, 7, 5), (1, 6, 6, 6, 6, 4),
                      (1, 6, 6, 6, 6, 5)}


def test_roots_from_arrays_are_bit_identical_to_roots_from_dicts():
    # a pulled-back polynomial reaches from_poly as the pullback's arrays,
    # its dict-built twin as arrays read off its dict; scaling the
    # registry's polynomials takes coefficients past 2^43 (several limbs)
    # and past 2^63 (object dtype), and the pullback keeps the object
    # dtype for some that would fit int64; 2^45 x_1 has a cheap bound
    # below 2^53, so its pullback comes back int64, with box sums past 2^43
    registry = case_registry()
    polys = []
    for case, k in (("3-cycle", 0), ("full-K4", 1), ("opposite-pair", 3)):
        spec = registry[case]
        task = spec.tasks[k]
        cell = spec.simplices[task.simplex]
        polys += [(task.func.polynomial(spec.beta) * scale, cell)
                  for scale in (1, 2 ** 18, 2 ** 30, 2 ** 45, -(2 ** 80))]
    polys.append((2 ** 45 * Polynomial.variable(6, 0), cell))
    seen = set()
    for p, cell in polys:
        q = pullback(p, cell)
        twin = Polynomial(5, dict(q.terms))
        assert q.arrays()[0].flags.c_contiguous
        roots = [NumpyBackend().from_poly(r) for r in (q, twin)]
        want = cumsum_from_poly(twin)
        for root in roots:
            assert root.dtype == want.dtype and root.shape == want.shape
            assert root.tobytes() == want.tobytes()
        seen.add((q.arrays()[1].dtype.name, twin.arrays()[1].dtype.name,
                  len(want)))
    assert seen >= {("int64", "int64", 1), ("int64", "int64", 2),
                    ("object", "int64", 2), ("object", "object", 3)}


def test_zero_polynomial_is_one_nonnegative_entry():
    zero = Polynomial.zero(5)
    assert assert_cumsum_cube(zero).shape == (1,) * 6
    cert = certify(zero)
    assert (cert.status, cert.steps) == ("Nonnegative", 1)


def test_multi_limb_roots_match_the_cumsum_construction():
    # WIDENING_WALK's top coefficient is about 2^86: three limbs
    assert len(assert_cumsum_cube(WIDENING_WALK)) == 3
    # 2^42 - 1 fits one limb, but its box sums reach 12,005 times that,
    # about 2^55.6: the first prefix pass takes its top past 2^43, so
    # the second pass's input widens to two limbs
    full = Polynomial(5, {e: 2 ** 42 - 1 for e in product(
        range(7), range(7), range(7), range(7), range(5))})
    spy = ProductSpy()
    cube = spy.from_poly(full)
    # the five passes' inputs, then the root, all fitted
    assert spy.limbs == [1, 2, 2, 2, 2, 2] and spy.fits == 6
    assert np.array_equal(cube, assert_cumsum_cube(full))
    assert cube.shape == (2, 7, 7, 7, 7, 5)
    assert to_poly(cube) == full
    # a last pass that leaves the range widens the root itself: 2^42 - 1
    # along the last axis alone sums to 7 times that, about 2^44.8
    last = Polynomial(5, {(0, 0, 0, 0, e): 2 ** 42 - 1 for e in range(7)})
    spy = ProductSpy()
    cube = spy.from_poly(last)
    assert spy.limbs == [1, 1, 1, 1, 1, 2] and spy.fits == 6
    assert np.array_equal(cube, cumsum_from_poly(last))
    assert len(cube) == 2 and meets_limb_invariant(cube)
    assert to_poly(cube) == last
    # from_poly skips _fit when its top limbs t, plus one unit per
    # coefficient, total below 2^43. At 2^43 - 1 the total box sum of
    # the n positive coefficients is 2^43 - n - 1, one limb; at 2^43 the
    # bound no longer holds, though the root still fits one limb, and
    # the five passes' inputs and the root are all fitted. n
    # coefficients of 2^50 start at two limbs, their top limbs 2^7 each
    box = list(product(range(7), range(7), range(7), range(7), range(5)))
    n = len(box)
    for total, k, fits in ((2 ** 43 - n - 1, 1, 0), (2 ** 43 - n, 1, 6),
                           (n * 2 ** 50, 2, 0)):
        q, r = divmod(total, n)
        p = Polynomial(5, {e: q + (i < r) for i, e in enumerate(box)})
        spy = ProductSpy()
        cube = spy.from_poly(p)
        assert (len(cube), spy.fits) == (k, fits)
        assert cube.tobytes() == cumsum_from_poly(p).tobytes()


@pytest.mark.parametrize("p, message", [
    (Polynomial.variable(4, 0), "5-variable"),
    (Polynomial.variable(6, 5), "5-variable"),
    (Polynomial(5, {(0, 0, 7, 0, 0): 1}), "degree exceeds 6"),
])
def test_from_poly_rejects_what_a_cube_cannot_hold(p, message):
    with pytest.raises(ValueError, match=message):
        NumpyBackend().from_poly(p)


def test_dilate_takes_a_limb_past_the_edge():
    eng, oracle = NumpyBackend(), ObjectEngine()
    cube = eng.from_poly(WIDENS_ON_DILATE)
    # the dilated child keeps two limbs, its top past the edge
    dilated = eng.dilate(cube, 0)
    assert (len(cube), len(dilated)) == (2, 2)
    assert dilated[-1].max() >= LIMB
    assert meets_limb_invariant(dilated, PRODUCT_TOP)
    assert len(eng.child(eng.fit(), 0)) == 2
    # and takes the third limb when fitted for its own split
    ref = oracle.dilate(oracle.from_poly(WIDENS_ON_DILATE), 0)
    put_under_test(eng, record(dilated, 1))
    parent = eng.fit()
    assert len(parent.cube) == 3 and meets_limb_invariant(parent.cube)
    for side in (0, 1):
        eng.child(parent, side)
        half = eng._made().cube
        assert len(half) == 3
        assert meets_limb_invariant(half, PRODUCT_TOP)
        assert to_poly(half, 2) == oracle.to_poly(oracle.child((ref, 1), side))


def test_limb_width_leaves_float64_headroom():
    # a top limb is an integer below 2^B in magnitude and a lower limb a
    # multiple of 2^-B in [0, 1), an integer below 2^B in units of 2^-B.
    # Summed with integer weights whose absolute values total m, either
    # gives partial sums below m * 2^B units in any order; normalizing
    # then adds a carry of at most m units from the limb below. float64
    # holds exactly every integer below 2^53 times a power of two
    def fits(m):
        units = m * 2 ** LIMB_BITS + m
        low = Fraction(units, 2 ** LIMB_BITS)
        return (units < 2 ** 53 and Fraction(float(units)) == units
                and Fraction(float(low)) == low)

    # reflect, dilate and a split's halves: one row of REFLECT[n],
    # DILATE[n] or DILATE[n] @ REFLECT[n]
    rows = [int(abs(t).sum(axis=1).max())
            for table in (REFLECT, DILATE, DILATE_REFLECT)
            for t in table.values()]
    assert max(rows) == 320
    assert fits(max(rows))
    # from_poly: one row of PREFIX[n] sums at most the longest axis
    prefix = max(int(abs(t).sum(axis=1).max()) for t in PREFIX.values())
    assert prefix == 7
    assert fits(prefix)
    # to_poly: a difference pass subtracts two entries
    assert fits(2)
    # _fit: a product's top, below 320 * 2^43 + 320, splits by floor
    # division by 2^43 into a fraction limb and a top of at most 321,
    # exactly: the value and every limb survive
    edge = 320 * 2 ** LIMB_BITS + 320
    for top in (edge - 1, 1 - edge, 2 ** LIMB_BITS, -2 ** LIMB_BITS,
                2 ** 51 + 2 ** 43 - 1, -2 ** 51 - 1):
        assert abs(top) < PRODUCT_TOP
        cube = np.array([[0.5, 0.0], [float(top), -1.0]])
        wide = fit_cube(cube)
        assert len(wide) == 3 and meets_limb_invariant(wide)
        assert abs(wide[-1, 0]) <= 321
        assert [_value(limbs) for limbs in wide.T.tolist()] == [
            (top << LIMB_BITS) + 2 ** 42, -1 << LIMB_BITS]
    # a cube in range is its own fit
    cube = np.array([[0.5], [LIMB - 1]])
    assert fit_cube(cube) is cube


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("n", range(1, 8))
def test_per_axis_maps_move_coefficient_maps_to_box_sums(n):
    ones = [[int(j <= i) for j in range(n)] for i in range(n)]
    delta = [[(i == j) - (i == j + 1) for j in range(n)] for i in range(n)]
    assert _matmul(ones, delta) == [[int(i == j) for j in range(n)]
                                    for i in range(n)]
    # from_poly's map: coefficients to box sums
    assert PREFIX[n].tolist() == ones
    # coefficient maps: x -> 1 - x and x -> x / 2 times 2^(n - 1)
    flip = [[(-1) ** i * comb(j, i) for j in range(n)] for i in range(n)]
    halve = [[2 ** (n - 1 - i) * (i == j) for j in range(n)]
             for i in range(n)]
    assert REFLECT[n].tolist() == _matmul(_matmul(ones, flip), delta)
    d = DILATE[n].tolist()
    assert d == _matmul(_matmul(ones, halve), delta)
    # the right half of a split: both maps in one
    assert DILATE_REFLECT[n].tolist() == _matmul(d, REFLECT[n].tolist())
    # lower-triangular with positive entries, and row i < n - 1 is the
    # last row's first i entries, then twice its i-th
    for i, j in product(range(n), repeat=2):
        assert (d[i][j] > 0) == (j <= i)
        assert j > i or i == n - 1 or d[i][j] == (1 + (i == j)) * d[-1][j]


def half_map(side, n):
    """The map of a split's half, left (0) or right (1), in Python ints."""
    return [[int(a) for a in row] for row in (DILATE, DILATE_REFLECT)[side][n]]


def row_bounds(m):
    """Per row of m: the magnitude sums of its negative and of its
    positive entries, F and C, and the gcd of its entries, g."""
    return ([sum(-a for a in row if a < 0) for row in m],
            [sum(a for a in row if a > 0) for row in m],
            [gcd(*row) for row in m])


def solve(m, y):
    """The rational x with m x = y, by Gauss-Jordan elimination."""
    n = len(m)
    rows = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(m, y)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [a / rows[c][c] for a in rows[c]]
        for i in range(n):
            if i != c:
                rows[i] = [a - rows[i][c] * b
                           for a, b in zip(rows[i], rows[c])]
    return [row[-1] for row in rows]


def egcd(a, b):
    """(d, s, t) with a s + b t = d = gcd(a, b)."""
    if b == 0:
        return (abs(a), (a > 0) - (a < 0), 0)
    d, s, t = egcd(b, a % b)
    return d, t, s - (a // b) * t


def parent_top(m, r, v, others=2 ** 30):
    """Integers x with (m x)_r = v, a multiple of row r's gcd, and every
    other entry of m x in (others - D, others], for D the least integer
    that clears the denominators of m's inverse."""
    n = len(m)
    g, x = 0, [0] * n
    for j, a in enumerate(m[r]):
        g, s, t = egcd(g, a)
        x = [s * b for b in x]
        x[j] = t
    assert v % g == 0
    x = [v // g * b for b in x]
    inverse = [solve(m, [int(i == j) for i in range(n)]) for j in range(n)]
    d = lcm(*(q.denominator for col in inverse for q in col))
    for j in range(n):
        if j != r:
            shift = (others - sum(a * b for a, b in zip(m[j], x))) // d
            x = [b + shift * d * q for b, q in zip(x, inverse[j])]
    assert all(Fraction(b).denominator == 1 for b in x)
    return [int(b) for b in x]


# the largest lower limb, (2^43 - 1) / 2^43
LOW_MAX = (LIMB - 1) / LIMB


def lower_limbs(m, r, pattern):
    """One lower limb along the parent's leading axis: all 0, all
    LOW_MAX, or LOW_MAX only where row r of m is negative ("neg", the
    least carry into entry r) or positive ("pos", the greatest)."""
    return {"zero": [0.0] * len(m), "max": [LOW_MAX] * len(m),
            "neg": [LOW_MAX * (a < 0) for a in m[r]],
            "pos": [LOW_MAX * (a > 0) for a in m[r]]}[pattern]


def assert_half_matches_the_full_product(parent, side):
    """child's half of parent answers origin_negative and wpd as the full
    product does, fits to the same cube, and leaves its lower limbs
    unmade exactly when its top before the carry, t, settles wpd.
    Returns t, the carry into the top and the walk's answers."""
    k, n = parent.shape[:2]
    w, s, _ = SETTLES[side][n]
    whole = full_product(parent, side)
    want = fit_cube(whole.copy())
    eng = NumpyBackend()
    half = eng.child(record(parent, 0), side)
    t = half[-1].copy()
    negative = eng.origin_negative()
    assert negative == (whole[-1, 0, 0, 0, 0, 0] < 0)
    assert negative == (t[0, 0, 0, 0, 0] < 0)
    leaf = eng.wpd()
    assert leaf == (whole[-1].min() >= 0)
    least = t.min()
    assert (eng._unmade is not None) == (k > 1 and (least >= w or least < s))
    fitted = eng.fit().cube
    assert fitted.shape == want.shape and np.array_equal(fitted, want)
    assert meets_limb_invariant(fitted)
    return t, whole[-1] - t, leaf, len(fitted)


@pytest.mark.parametrize("side", (0, 1))
@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_a_half_is_settled_by_its_top_exactly_at_the_carry_bounds(k, n, side):
    # each row i of a half's map gives a carry into the top in
    # [-F_i, C_i - 1] from a fitted parent, and a top t_i before the
    # carry in g_i Z; SETTLES's bounds w and s, and f, the largest F_i,
    # are tight, as each edge below shows
    m = half_map(side, n)
    f_row, c_row, g_row = row_bounds(m)
    w, s, f = SETTLES[side][n]
    assert w == 1 + max(a - b for a, b in zip(f_row, g_row))
    assert s == min(b - c for b, c in zip(g_row, c_row))
    assert f == max(f_row)
    # row 0, the origin's, is 2^(n - 1) times a unit vector
    assert (f_row[0], c_row[0], g_row[0]) == (0, 2 ** (n - 1), 2 ** (n - 1))
    r_w = max(range(n), key=lambda i: f_row[i] - g_row[i])
    r_s = min(range(n), key=lambda i: g_row[i] - c_row[i])
    r_f = max(range(n), key=lambda i: f_row[i])
    edge = 1 << LIMB_BITS

    def at(r, v):
        # row n - 1 ends in 1, so it takes any top
        return (r, v) if v % g_row[r] == 0 else (n - 1, v)

    tops = [at(r_w, w - 1), at(r_w, w), at(r_w, w + 1),
            at(r_s, s - 1), at(r_s, s), at(r_s, s + 1),
            (0, 0), (0, -g_row[0])]
    if n > 1:
        # a made top of -2^43 needs a map entry past 1 in magnitude
        tops += [(r_f, f - edge), (r_f, f - edge + g_row[r_f])]
    patterns = ("zero", "max", "neg", "pos") if k > 1 else ("zero",)
    for (r, v), pattern in product(tops, patterns):
        x = parent_top(m, r, v)
        parent = np.empty((k, n, 1, 1, 1, 1))
        parent[:-1, :, 0, 0, 0, 0] = lower_limbs(m, r, pattern)
        parent[-1, :, 0, 0, 0, 0] = x
        assert meets_limb_invariant(parent)
        t, carry, leaf, limbs = assert_half_matches_the_full_product(
            parent, side)
        t, carry = t.ravel().tolist(), carry.ravel().tolist()
        assert t == [sum(a * b for a, b in zip(row, x)) for row in m]
        assert min(t) == t[r] == v
        for i in range(n):
            assert (-f_row[i] <= carry[i] <= c_row[i] - 1) if k > 1 else (
                carry[i] == 0)
        if k == 1:
            continue
        if pattern == "neg":
            assert carry[r] == -f_row[r]
        if pattern == "pos":
            assert carry[r] == c_row[r] - 1
        # one below w, a carry of -F makes a negative top; at s, a carry
        # of C - 1 keeps the top nonnegative
        if (r, v, pattern) == (r_w, w - 1, "neg"):
            assert not leaf
        if (r, v, pattern) == (r_s, s, "pos"):
            assert leaf
        # a top of -2^43 must widen, -2^43 + g need not
        if (r, pattern) == (r_f, "neg") and v < 0:
            assert limbs == k + (v == f - edge)


def parents(k, n):
    """Fitted parents of k limbs with n entries along the leading axis,
    tops near the carry bounds, and lower limbs mostly at their ends."""
    trail = st.tuples(st.integers(1, 3), st.integers(1, 2))
    top = st.one_of(st.integers(-3, 6), st.integers(-400, 400),
                    st.integers(1 - 2 ** 43, 2 ** 43 - 1))
    low = st.one_of(st.sampled_from((0, 2 ** 43 - 1)),
                    st.integers(0, 2 ** 43 - 1))

    def cube(shape):
        size = prod(shape[1:])
        return st.tuples(st.lists(low, min_size=(k - 1) * size,
                                  max_size=(k - 1) * size),
                         st.lists(top, min_size=size, max_size=size)).map(
            lambda lt: np.concatenate(
                [np.array(lt[0], dtype=float) / LIMB,
                 np.array(lt[1], dtype=float)]).reshape(shape))

    return trail.flatmap(lambda tr: cube((k, n) + tr + (1, 1)))


@given(st.integers(1, 3), st.integers(1, 7), st.integers(0, 1), st.data())
@settings(max_examples=150, deadline=None)
def test_random_halves_match_the_full_product(k, n, side, data):
    parent = data.draw(parents(k, n))
    assert meets_limb_invariant(parent)
    assert_half_matches_the_full_product(parent, side)


class UnmadeSpy(NumpyBackend):
    """The limb engine, counting the multi-limb halves it makes and those
    whose lower limbs the walk never had made: the half before each new
    one, and the last, may still be unmade."""

    def __init__(self):
        super().__init__()
        self.multi = self.unmade = 0

    def child(self, parent, side):
        self.unmade += self._unmade is not None
        self.multi += len(parent.cube) > 1
        return super().child(parent, side)


def test_most_multi_limb_halves_are_settled_by_their_top(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import reference
    key = "3-cycle/B_1/3g-f"
    want = reference.load()[0][key]
    spec = case_registry()["3-cycle"]
    task, = (t for t in spec.tasks if reference.task_key("3-cycle", t) == key)
    p = pullback(task.func.polynomial(spec.beta), spec.simplices[task.simplex])
    spy = UnmadeSpy()
    assert _traverse(p, want.budget, spy) == want
    # of 1,274 halves, 1,220 have more than one limb, and 490 of those
    # are WPD leaves whose lower limbs were never made; a walk back on
    # whole products would leave none
    assert (want.steps, spy.multi) == (1275, 1220)
    assert spy.unmade + (spy._unmade is not None) == 490


@given(limb_edge_polys5())
# box sums [2^43, 1], [2^43, 0] and [2^43, -1] along axis 0
@example(Polynomial(5, {(0, 0, 0, 0, 0): 2 ** 43,
                        (1, 0, 0, 0, 0): 1 - 2 ** 43}))
@example(Polynomial(5, {(0, 0, 0, 0, 0): 2 ** 43,
                        (1, 0, 0, 0, 0): -2 ** 43}))
@example(Polynomial(5, {(0, 0, 0, 0, 0): 2 ** 43,
                        (1, 0, 0, 0, 0): -1 - 2 ** 43}))
@settings(max_examples=25, deadline=None)
def test_wpd_is_the_sign_of_every_box_sum(p):
    eng = NumpyBackend()
    cube = eng.from_poly(p)
    q = to_poly(cube)
    box = [range(max(e[a] for e in q.terms) + 1) for a in range(5)]
    sums = (sum(c for e, c in q.terms.items() if all(map(le, e, i)))
            for i in product(*box))
    assert eng.wpd() == all(s >= 0 for s in sums)


@given(small_polys5())
@settings(max_examples=15, deadline=None)
def test_certificates_are_backend_identical(p):
    a = certify(p, budget=200)
    b = _traverse(p, 200, ObjectEngine())
    assert a == b


def _single_edge_cell():
    return case_registry()["single-edge"].simplices["S1"]


def test_recorded_workload_agrees_across_backends():
    q = pullback(directional_derivative(EdgeSubset((0,))),
                 _single_edge_cell())
    a = certify(q)
    b = _traverse(q, 10 ** 6, ObjectEngine())
    assert a.status == b.status == "Nonnegative"
    assert a.steps == b.steps == 421
    assert a.actions == b.actions
    assert a.histogram == b.histogram


class CubeSpy(NumpyBackend):
    """The limb engine, keeping a copy of every cube the walk gets from it.

    Copies, because the engine writes the next cube made at a depth over
    the last, and made whole, as a half's lower limbs may never be; each
    with its depth, the number of times its axes have turned.
    """

    def __init__(self):
        super().__init__()
        self.cubes = []

    def from_poly(self, p):
        cube = super().from_poly(p)
        self.cubes.append((0, cube.copy()))
        return cube

    def child(self, parent, side):
        cube = super().child(parent, side)
        self.cubes.append((parent.depth + 1, made_whole(self)))
        return cube


def test_every_cube_spans_the_root_degree_box():
    x1, x3 = Polynomial.variable(5, 1), Polynomial.variable(5, 3)
    walks = (
        (pullback(directional_derivative(EdgeSubset((0,))),
                  _single_edge_cell()), 10 ** 6, 421),
        ((x1 - x3) ** 2, 60, 60),
        (ZERO_TOP_SUM, 60, 3),
    )
    for p, budget, steps in walks:
        spy = CubeSpy()
        cert = _traverse(p, budget, spy)
        assert cert.steps == steps
        # the root and every child the walk tested
        assert len(spy.cubes) == cert.steps
        root = spy.cubes[0][1]
        for depth, cube in spy.cubes:
            assert cube.shape[1:] == turn(root, depth).shape[1:]
            # the maps read the top exponent as extent - 1 on every axis
            terms = to_poly(cube, depth).terms
            assert [max(e[a] for e in terms) for a in range(5)] == [
                n - 1 for n in root.shape[1:]]


class OracleSpy(ObjectEngine):
    """The object oracle, keeping every cube the walk gets from it."""

    def __init__(self):
        self.cubes = []

    def from_poly(self, p):
        cube = super().from_poly(p)
        self.cubes.append(cube)
        return cube

    def child(self, parent, side):
        cube = super().child(parent, side)
        self.cubes.append(cube)
        return cube


def test_a_walk_over_five_distinct_extents_turns_its_axes():
    # extents 7, 6, 5, 4 and 3, so a turn that goes astray between any
    # two axes changes a shape. (x1 - x3)^2 vanishes on a diagonal, so
    # the walk never certifies: in 60 steps it splits 11 levels deep,
    # and its cubes outgrow one limb
    x = [Polynomial.variable(5, a) for a in range(5)]
    p = ((x[1] - x[3]) ** 2 + x[0] ** 6 + x[1] ** 5 + x[2] ** 4
         + x[3] ** 3 + x[4] ** 2)
    spy, oracle = CubeSpy(), OracleSpy()
    cert = _traverse(p, 60, spy)
    assert cert == _traverse(p, 60, oracle)
    assert (cert.status, cert.max_depth) == ("BudgetExhausted", 11)
    extents = spy.cubes[0][1].shape[1:]
    assert extents == (7, 6, 5, 4, 3)
    # the cubes that left one limb's range are leaves, so they keep one
    # limb; a split of any would take a second
    assert {len(cube) for _, cube in spy.cubes} == {1}
    past = [(depth, cube) for depth, cube in spy.cubes
            if abs(cube[-1]).max() >= LIMB]
    assert past
    for depth, cube in past:
        assert meets_limb_invariant(cube, PRODUCT_TOP)
        eng = NumpyBackend()
        put_under_test(eng, record(cube.copy(), depth))
        parent = eng.fit()
        assert [len(eng.child(parent, side)) for side in (0, 1)] == [2, 2]
    # the walk made the cubes it tested, and no others
    assert len(spy.cubes) == len(oracle.cubes) == cert.steps
    for (depth, cube), ref in zip(spy.cubes, oracle.cubes):
        # a cube at depth d has turned d times (mod 5)
        turns = depth % 5
        assert cube.shape[1:] == extents[turns:] + extents[:turns]
        assert to_poly(cube, depth) == oracle.to_poly(ref)


def digest(cube):
    return cube.shape, hashlib.sha256(cube.tobytes()).digest()


class WalkSpy(NumpyBackend):
    """The limb engine, watching what the walk does with cube memory.

    Every cube the walk gets, a root, a half or a parent widened to be
    split, gets a digest under its record when the engine hands it out,
    and is checked against it whenever the walk reads it: when it tests
    its origin, brings it in range, or makes a half of it. So no cube is
    written while the walk can still read it, although the engine makes
    each cube in the buffer of its depth; only a half's unmade lower
    limbs may be, and then the half must equal the full product. Per
    walk, ``tested`` counts the cubes whose origin the walk read,
    ``products`` the halves made and the root's five PREFIX passes, and
    ``fits`` the cubes the walk brought in range to split. ``fresh``
    counts the buffers the engine makes, across walks.
    """

    def __init__(self):
        super().__init__()
        self.fresh = 0
        self.rooting = False

    def _hand_out(self, views, tested=False, whole=None):
        # each cube views its depth's buffer; held keeps its record, so
        # that no other record takes its id. A half's lower limbs may be
        # made after it is handed out, and must then make it whole, the
        # full product
        cube = views.cube
        assert cube.base is self._slots[views.depth]
        self.held[id(views)] = (views, digest(cube),
                                digest(cube if whole is None else whole),
                                tested)
        return views

    def _read(self, views):
        """Whether the walk has tested the cube of a record, which must be
        unchanged but for its lower limbs, if unmade when handed out, made
        whole."""
        _, handed, whole, tested = self.held[id(views)]
        unmade = views is self._tested and self._unmade is not None
        assert digest(views.cube) == (handed if unmade else whole)
        return tested

    def _slot(self, depth, shape):
        before = self._slots.get(depth)
        views = super()._slot(depth, shape)
        self.fresh += views.cube.base is not before
        return views

    def _product(self, views, table, depth=None):
        self.products += 1
        return super()._product(views, table, depth)

    def from_poly(self, p):
        # id -> (record, digests, tested) of each cube handed out this walk
        self.held = {}
        self.tested = self.products = self.fits = 0
        self.rooting = True
        root = super().from_poly(p)
        self.rooting = False
        self._hand_out(self._tested)
        return root

    def origin_negative(self):
        views = self._tested
        self._read(views)
        self.held[id(views)] = self.held[id(views)][:3] + (True,)
        self.tested += 1
        return super().origin_negative()

    def fit(self):
        if self.rooting:
            return super().fit()
        tested = self._read(self._tested)
        self.fits += 1
        return self._hand_out(super().fit(), tested)

    def child(self, parent, side):
        self._read(parent)
        self.products += 1
        cube = super().child(parent, side)
        assert not np.shares_memory(cube, parent.cube)
        self._hand_out(self._tested, whole=full_product(parent.cube, side))
        return cube


# WIDENS_ON_DILATE is WPD at its root; times (x1 - x3)^2, which never
# certifies, it keeps splitting, from a 3-limb root (its top coefficient
# is about 2^86) to 5-limb cubes within 60 levels
WIDENING_WALK = WIDENS_ON_DILATE * (Polynomial.variable(5, 1)
                                    - Polynomial.variable(5, 3)) ** 2
# 1 - 3 x0 splits once; its right half is negative at the origin, so the
# walk stops there with the left half left unread on its stack
NEGATIVE_AFTER_A_SPLIT = Polynomial(5, {(0, 0, 0, 0, 0): 1, (1, 0, 0, 0, 0): -3})


def assert_walk_accounts(spy, actions):
    """The walk that took actions made the cubes it tested and no more,
    each in the buffer of its depth.

    Making both halves at each split, it made 1 + 2 * subdivisions -
    steps cubes that it never read; making each half when it pops it,
    it reads every cube it makes.
    """
    steps = len(actions)
    assert all(held[-1] for held in spy.held.values())
    assert spy.tested == steps
    # one product per cube tested past the root, after the root's five
    # PREFIX passes, and one range test per split
    assert spy.products == 5 + steps - 1
    assert spy.fits == actions.count("S")
    # one buffer per depth the walk reached, and the two of the passes
    assert sorted(spy._slots) == list(range(max(2, len(tree_shape(
        actions)[0]))))


def test_a_walk_makes_only_the_cubes_it_tests(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    ctx = SimpleNamespace(partitions=build_partitions())
    scans = [workloads.endpoint_run(ctx, op)
             for op in workloads.make_ops("endpoint-scan", ctx, 1801, 20)[:3]]
    # endpoint-scan ops that go negative at the root, after three splits,
    # and spend the budget of 16 steps
    assert [(cert.status, cert.actions) for _, cert in scans] == [
        ("NegativeWitness", "N"), ("NegativeWitness", "SSSN"),
        ("BudgetExhausted", "SSSSSSSWSWSWSWSW")]
    walks = [(p, 16, None, cert.actions) for p, cert in scans]
    # a replay that expects "S" where the walk finds its tenth cube WPD
    # stops after testing it, with no range test for it
    p, cert = scans[2]
    assert cert.actions[9] == "W"
    walks.append((p, 16, cert.actions[:9] + "S" + cert.actions[10:],
                  cert.actions[:10]))
    # a Nonnegative walk makes both halves of each of its 210 splits
    single_edge = pullback(directional_derivative(EdgeSubset((0,))),
                           _single_edge_cell())
    cert = certify(single_edge)
    assert (cert.status, cert.subdivisions) == ("Nonnegative", 210)
    walks.append((single_edge, cert.budget, None, cert.actions))
    for p, budget, expect, actions in walks:
        spy = WalkSpy()
        cert = _traverse(p, budget, spy, expect)
        assert (cert is None) if expect else (cert.actions == actions)
        assert_walk_accounts(spy, actions)


def test_walk_never_writes_a_cube_on_its_stack():
    x1, x3 = Polynomial.variable(5, 1), Polynomial.variable(5, 3)
    walks = (
        (pullback(directional_derivative(EdgeSubset((0,))),
                  _single_edge_cell()), 10 ** 6),
        (WIDENS_ON_DILATE, 60),
        (WIDENING_WALK, 60),
        (NEGATIVE_AFTER_A_SPLIT, 60),
        ((x1 - x3) ** 2, 2),
    )
    spies = []
    for p, budget in walks:
        spy = WalkSpy()
        cert = _traverse(p, budget, spy)
        assert cert == certify(p, budget)
        assert_walk_accounts(spy, cert.actions)
        # a buffer for each depth, and another each time a cube at that
        # depth outgrows it
        assert spy.fresh >= len(spy._slots)
        # the same walk again on the warm engine makes no new array
        first, spy.fresh = spy.fresh, 0
        assert _traverse(p, budget, spy) == cert
        assert_walk_accounts(spy, cert.actions)
        assert spy.fresh == 0
        spies.append((cert, first, spy))
    single_edge, _, widening, negative, budget_two = spies
    # the single-edge walk (421 steps, 12 depths) makes one buffer per
    # depth and grows one, as its cubes take a second limb from depth 7
    assert single_edge[0].steps == 421
    assert (single_edge[1], len(single_edge[2]._slots)) == (13, 12)
    assert negative[0].status == "NegativeWitness"
    assert negative[0].steps == 2
    assert budget_two[0].status == "BudgetExhausted"
    # the widening walk's cubes take more limbs with depth, so some
    # buffers grew
    assert widening[1] > len(widening[2]._slots)


def halves(eng, parent):
    """Both halves, made whole, of a split of a parent record, left
    first: a copy of the left, which the right is written over."""
    eng.child(parent, 0)
    left = eng._made().cube.copy()
    eng.child(parent, 1)
    return [left, eng._made().cube]


def test_cubes_at_other_depths_never_share_memory():
    eng = NumpyBackend()
    root = eng.from_poly(WIDENS_ON_DILATE)
    fitted = eng.fit()
    # both halves of a split are made at one depth, in its buffer, so
    # halves copies the left before the right is written over it
    left, right = halves(eng, fitted)
    assert left.base is None and right.base is eng._slots[1]
    assert not np.array_equal(left, right)
    eng.child(fitted, 0)
    assert np.array_equal(eng._made().cube, left)
    assert np.array_equal(right, left)
    # a parent widened past its depth's buffer gets a larger one; dilate,
    # which the walk never calls, writes to a fresh array
    small, dilated = eng._slots[1], eng.dilate(root, 0)
    assert dilated.base is None
    put_under_test(eng, record(dilated, 1))
    parent = eng.fit()
    assert len(parent.cube) == 3
    assert parent.cube.base is eng._slots[1] is not small
    grand = eng.child(parent, 0)
    assert grand.base is eng._slots[2] and len(grand) == 3
    for a, b in combinations(eng._slots.values(), 2):
        assert not np.shares_memory(a, b)


def test_poisoned_slots_change_no_certificate_and_no_root():
    # a root must not depend on the walk before it: every cube is written
    # whole before it is read
    spec = case_registry()["3-cycle"]
    task = spec.tasks[0]
    walks = (
        (pullback(directional_derivative(EdgeSubset((0,))),
                  _single_edge_cell()), 10 ** 6),
        (pullback(task.func.polynomial(spec.beta),
                  spec.simplices[task.simplex]), 10 ** 6),
        (WIDENING_WALK, 60),
        (NEGATIVE_AFTER_A_SPLIT, 60),
    )
    eng = NumpyBackend()

    def poison():
        assert eng._slots
        for buf in eng._slots.values():
            buf[0::3], buf[1::3], buf[2::3] = np.nan, np.inf, -np.inf

    for p, budget in walks:
        want = certify(p, budget)
        # a first root, then a first walk, leave the buffers the next
        # root and walk of p take; a walk that expects want's actions
        # stops at the first that differs
        eng.from_poly(p)
        poison()
        assert eng.from_poly(p).tobytes() == cumsum_from_poly(p).tobytes()
        assert _traverse(p, budget, eng, want.actions) == want
        poison()
        assert _traverse(p, budget, eng, want.actions) == want


def test_slots_outlive_every_walk_and_never_shrink(monkeypatch):
    eng = NumpyBackend()
    _traverse(WIDENING_WALK, 60, eng)
    slots = dict(eng._slots)
    # a walk over a smaller box, and a root over the same box, take the
    # same buffers
    _traverse(NEGATIVE_AFTER_A_SPLIT, 60, eng)
    root = eng.from_poly(WIDENING_WALK)
    assert root.base is slots[0]
    assert eng._slots.keys() == slots.keys()
    assert all(eng._slots[d] is buf for d, buf in slots.items())
    # an endpoint-scan pass, whose roots span three degree boxes, makes
    # no new array once the engine has run it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    ctx = SimpleNamespace(partitions=build_partitions())
    roots = [workloads.endpoint_run(ctx, op)[0]
             for op in workloads.make_ops("endpoint-scan", ctx, 1801, 20)]
    assert len({p.arrays()[0].max(axis=1).tobytes() for p in roots}) == 3
    spy = WalkSpy()
    for _ in range(2):
        spy.fresh = 0
        for p in roots:
            assert _traverse(p, 16, spy) == certify(p, 16)
    assert spy.fresh == 0


def test_a_grown_buffer_takes_its_depths_records_with_it():
    # WIDENING_WALK's cubes take more limbs with depth, so the buffers of
    # depths that already hold records grow under them
    eng = NumpyBackend()
    grow, replaced = eng._grow, []

    def spy_grow(depth, size):
        if depth in eng._slots:
            assert eng._records[depth]
            replaced.append(weakref.ref(eng._slots[depth]))
        return grow(depth, size)

    eng._grow = spy_grow
    cert = _traverse(WIDENING_WALK, 60, eng)
    assert cert == certify(WIDENING_WALK, 60) and replaced
    # each record views its depth's buffer as it is now, in its shape,
    # and carries its depth
    assert eng._records.keys() == eng._slots.keys()
    for depth, records in eng._records.items():
        for shape, views in records.items():
            assert views.cube.shape == shape
            assert views.depth == depth
            for view in (views.cube, *views.rows, views.top, views.top_in,
                         views.low_in, views.top_out, views.low_out):
                assert view.base is eng._slots[depth]
    # once the engine drops the last walk's cubes, at its next root,
    # nothing keeps a replaced buffer alive
    eng.from_poly(NEGATIVE_AFTER_A_SPLIT)
    assert not any(ref() for ref in replaced)


def test_a_grown_buffer_dies_at_the_call_that_grows_it():
    # from_poly and child drop the cube under test before they take a
    # buffer, so a depth's old buffer is freed by the time _slot returns
    # the record its caller writes, even when the cube under test viewed
    # the old one
    eng = NumpyBackend()
    slot, freed = eng._slot, []

    def spy_slot(depth, shape):
        old = weakref.ref(eng._slots[depth]) if depth in eng._slots else None
        views = slot(depth, shape)
        if old is not None and old() is not eng._slots[depth]:
            freed.append((depth, old() is None))
        return views

    eng._slot = spy_slot
    # the walk stops at its right half, under test at depth 1
    assert _traverse(NEGATIVE_AFTER_A_SPLIT, 60, eng).actions == "SN"
    assert freed == [] and eng._tested.depth == 1
    # a three-limb parent at depth 0, made by hand in a grown buffer;
    # its half takes depth 1's buffer past the one the cube under test
    # views
    parent = eng._slot(0, (3, 2, 1, 1, 1, 1))
    parent.cube.fill(0)
    eng.child(parent, 0)
    assert eng._tested.cube.shape == (3, 1, 1, 1, 1, 2)
    # a larger root, while that half is under test at depth 1 and its
    # lower limbs, unmade, keep the parent
    del parent
    eng.from_poly(WIDENING_WALK)
    assert freed == [(0, True), (1, True), (1, True), (0, True)]


def test_a_warm_walk_makes_no_new_record_and_no_new_array(monkeypatch):
    made = []

    class CountedViews(_kernels._Views):
        def __init__(self, cube):
            made.append(cube.shape)
            super().__init__(cube)

    monkeypatch.setattr(_kernels, "_Views", CountedViews)
    walks = (
        (pullback(directional_derivative(EdgeSubset((0,))),
                  _single_edge_cell()), 10 ** 6),
        (WIDENING_WALK, 60),
        (NEGATIVE_AFTER_A_SPLIT, 60),
    )
    for p, budget in walks:
        eng = NumpyBackend()
        cert = _traverse(p, budget, eng)
        # a record per depth and shape the walk wrote, the root's passes
        # included, and one more for each made again on a grown buffer
        assert len(made) >= sum(map(len, eng._records.values())) > 0
        slots, records = dict(eng._slots), {
            (depth, shape): views for depth, by_shape in eng._records.items()
            for shape, views in by_shape.items()}
        made.clear()
        assert _traverse(p, budget, eng) == cert
        assert made == []
        assert eng._slots.keys() == slots.keys()
        assert all(eng._slots[depth] is slots[depth] for depth in slots)
        assert records == {
            (depth, shape): views for depth, by_shape in eng._records.items()
            for shape, views in by_shape.items()}


def buffer_bytes(eng):
    return sum(buffer.nbytes for buffer in eng._slots.values())


def test_a_walk_past_the_memory_cap_stops_before_it_allocates(monkeypatch):
    eng = NumpyBackend()
    cert = _traverse(WIDENING_WALK, 60, eng)
    need = buffer_bytes(eng)
    assert need < _kernels.MEMORY_CAP
    # at exactly the bytes it needs the walk runs as before; a byte less
    # stops it with the named error, its buffers still within the cap
    monkeypatch.setattr(_kernels, "MEMORY_CAP", need)
    assert _traverse(WIDENING_WALK, 60, NumpyBackend()) == cert
    monkeypatch.setattr(_kernels, "MEMORY_CAP", need - 1)
    eng = NumpyBackend()
    with pytest.raises(MemoryCapError, match="cap of %d" % (need - 1)):
        _traverse(WIDENING_WALK, 60, eng)
    assert 0 < buffer_bytes(eng) <= need - 1
    # certify stops the same way on the shared engine, and frees its lock
    monkeypatch.setattr(_kernels, "_ENGINE", NumpyBackend())
    with pytest.raises(MemoryCapError):
        certify(WIDENING_WALK, 60)
    assert certify(NEGATIVE_AFTER_A_SPLIT, 60).status == "NegativeWitness"


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_certify_file_exits_4_past_the_memory_cap(monkeypatch, tmp_path,
                                                  capsys, mode):
    path = tmp_path / "widening.poly"
    path.write_text(WIDENING_WALK.serialize())
    monkeypatch.setattr(_kernels, "_ENGINE", NumpyBackend())
    monkeypatch.setattr(_kernels, "MEMORY_CAP", 1 << 12)
    assert main(["certify-file", str(path), "--budget", "60", *mode]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "cap of 4096" in out.err


def test_engines_in_two_threads_walk_independently(monkeypatch):
    # each engine keeps its own buffers and carry rows, so two engines
    # may each run a walk at once; this task's cubes take up to three
    # limbs, so every split carries
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import reference
    key = "3-cycle/B_1/3g-f"
    want = reference.load()[0][key]
    spec = case_registry()["3-cycle"]
    task, = (t for t in spec.tasks if reference.task_key("3-cycle", t) == key)
    p = pullback(task.func.polynomial(spec.beta), spec.simplices[task.simplex])
    budget = 2 * want.steps
    results = [[], []]

    def walk(out):
        eng = NumpyBackend()
        for _ in range(4):
            out.append(_traverse(p, budget, eng))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=walk, args=(out,))
                   for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [[dataclasses.replace(cert, budget=want.budget) for cert in out]
            for out in results] == [[want] * 4] * 2


def test_split_never_writes_its_input():
    # cubes of every limb count a walk crosses, each at its depth
    spy = CubeSpy()
    _traverse(WIDENING_WALK, 60, spy)
    cubes = {len(cube): (depth, cube) for depth, cube in spy.cubes}
    assert sorted(cubes) == [3, 4, 5]
    eng = NumpyBackend()
    for depth, before in cubes.values():
        # the cube in its depth's buffer, fitted there, then split
        views = put_under_test(eng, eng._slot(depth, before.shape))
        views.cube[...] = before
        parent = eng.fit()
        children = halves(eng, parent)
        assert not any(np.shares_memory(c, parent.cube) for c in children)
        assert np.array_equal(parent.cube, fit_cube(before))
        # the children of a cube handed in from outside
        children = halves(eng, record(before, depth))
        assert not any(np.shares_memory(c, before) for c in children)
        assert np.array_equal(before, cubes[len(before)][1])


def test_every_product_input_is_in_range():
    walks = (
        (pullback(directional_derivative(EdgeSubset((0,))),
                  _single_edge_cell()), 10 ** 6, 421),
        (WIDENING_WALK, 60, 60),
    )
    for p, budget, steps in walks:
        want = certify(p, budget)
        spy = ProductSpy()
        cert = _traverse(p, budget, spy)
        assert cert == want and cert.steps == steps
        # the five PREFIX passes of from_poly and its root, then the
        # fitted parent of each cube the walk tests past the root
        assert len(spy.limbs) == 5 + cert.steps
        # both roots' top limbs total far below 2^43, so their passes
        # skip fit, and are checked all the same; every split fits
        assert spy.fits == cert.subdivisions
    # WIDENING_WALK's outputs leave the range, and the inputs they feed
    # widen, from the 3-limb root to 5 limbs
    assert spy.past > 0
    assert set(spy.limbs) == {3, 4, 5}


def test_replay_restarts_on_the_fallback(monkeypatch):
    # 2^k times a product of (1 - 2x + 2x^2) factors certifies in 63
    # steps; at k = 37 and 79, the ends of the range where its root
    # takes two 43-bit limbs, it does. There is no
    # fallback engine any more: replay must accept both certificates in
    # one walk on the limb engine, with no restart
    x = [Polynomial.variable(5, a) for a in range(5)]
    one = Polynomial.constant(5, 1)
    base = one
    for xa in x:
        base = base * (one - 2 * xa + 2 * xa * xa)
    traverse, engines = positive_dominance._traverse, []

    def spy_traverse(p, budget, eng, expect=None):
        engines.append(eng.name)
        return traverse(p, budget, eng, expect)

    monkeypatch.setattr(positive_dominance, "_traverse", spy_traverse)
    for k in (37, 79):
        q = Polynomial.constant(5, 2 ** k) * base
        assert len(get_backend().from_poly(q)) == 2
        cert = certify(q)
        assert (cert.status, cert.steps) == ("Nonnegative", 63)
        engines.clear()
        assert replay(q, cert)
        assert engines == ["numpy"]


def test_numpy_engine_never_falls_back_silently():
    eng = get_backend()
    big = Polynomial(5, {(1, 0, 0, 0, 0): 2 ** 90,
                         (0, 0, 0, 0, 0): -2 ** 89})
    eng.from_poly(big)
    assert eng.origin_negative()
