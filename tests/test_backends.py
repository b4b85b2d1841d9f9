"""The cube engine against the object oracle, and its one instance.

``NumpyBackend`` is the package's one engine: float64 limbs holding box
partial sums. ``ObjectEngine`` in ``_object_engine.py`` computes on
Python ints in the coefficient basis and is the oracle; ``to_poly``
beside it decodes a limb cube. The limb engine is checked against the
oracle operation by operation on coefficients at the limb boundaries,
its per-axis maps are rebuilt in Python ints, its root cubes are pinned
to a construction by ``np.cumsum``, and its cubes, which span only the
root's degree box, are checked to keep that box along whole walks. The
run-level tests compare whole certify runs with the oracle's walk.
"""

import hashlib
import weakref
from fractions import Fraction
from itertools import product
from math import comb
from operator import le
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tetravol._kernels import (
    DILATE, DILATE_REFLECT, LIMB, LIMB_BITS, PREFIX, REFLECT, NumpyBackend,
    _normalize, get_backend,
)
from tetravol import positive_dominance
from tetravol.case_suite_cli import case_registry
from tetravol.cayley_menger import EdgeSubset, directional_derivative
from tetravol.chamber_geometry import (
    A_MID, B_MID, CENTER, EXTREME_A, EXTREME_B, LatticeSimplex6,
    build_partitions,
)
from tetravol.exact_poly import Polynomial
from tetravol.positive_dominance import _traverse, certify, replay
from tetravol.simplex_pullback import pullback

from _object_engine import ObjectEngine, to_poly, turn


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


def meets_limb_invariant(cube):
    # lower limbs are fractions r / 2^43, exact in float64, so scaling
    # them back by 2^43 gives their integers r
    low, top = cube[:-1] * LIMB, cube[-1]
    return (cube.dtype == np.float64 and cube.flags.c_contiguous
            and (low == np.floor(low)).all()
            and ((low >= 0) & (low < LIMB)).all()
            and (top == np.floor(top)).all()
            and (abs(top) < LIMB).all())


# dilating axis 0 multiplies its box sums by 2^6 (the rows of DILATE[7]
# sum to 64), so the largest box sum 2^85, a top limb of 2^42, leaves
# the two-limb range and the cube must take a third limb
WIDENS_ON_DILATE = Polynomial(5, {(0, 0, 0, 0, 0): 2 ** 85 - 1,
                                  (6, 0, 0, 0, 0): 1})
# coefficients [2, -3, 1] along axis 0, stored as box sums [2, -1, 0]:
# the top slab of S is zero although x0^2 is the top term
ZERO_TOP_SUM = Polynomial(5, {(0, 0, 0, 0, 0): 2, (1, 0, 0, 0, 0): -3,
                              (2, 0, 0, 0, 0): 1})


@given(limb_edge_polys5())
@example(WIDENS_ON_DILATE)
@example((Polynomial.variable(5, 1) - Polynomial.variable(5, 3)) ** 2)
@example(ZERO_TOP_SUM)
@settings(max_examples=25, deadline=None)
def test_limb_engine_agrees_with_the_object_oracle(p):
    eng, oracle = NumpyBackend(), ObjectEngine()
    cube, ref = eng.from_poly(p), oracle.from_poly(p)
    before = cube.copy()
    assert meets_limb_invariant(cube)
    assert to_poly(cube) == p
    assert eng.wpd(cube) == oracle.wpd(ref)
    assert eng.origin_negative(cube) == oracle.origin_negative(ref)
    assert eng.corner_value(cube) == oracle.corner_value(ref)
    for axis in range(5):
        # x_axis leads after axis turns, and every operation adds a turn
        turned = turn(cube, axis)
        reflected = eng.reflect(turned, axis)
        dilated = eng.dilate(turned, axis)
        assert meets_limb_invariant(reflected)
        assert meets_limb_invariant(dilated)
        assert to_poly(reflected, axis + 1) == oracle.to_poly(
            oracle.reflect(ref, axis))
        assert to_poly(dilated, axis + 1) == oracle.to_poly(
            oracle.dilate(ref, axis))
        children = eng.split(turned, axis)
        for child, want in zip(children, oracle.split(ref, axis)):
            assert meets_limb_invariant(child)
            assert to_poly(child, axis + 1) == oracle.to_poly(want)
        # no operation writes to its input
        assert np.array_equal(turned, turn(before, axis))
    assert np.array_equal(cube, before)
    assert _traverse(p, 60, eng) == _traverse(p, 60, oracle)


def cumsum_from_poly(p):
    """The root cube by five normalized ``np.cumsum`` passes.

    The reference for ``from_poly``, which makes the same passes as
    PREFIX products through ``_apply``.
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
        cube = _normalize(np.cumsum(cube, axis=a + 1))
    return cube


def assert_cumsum_cube(p):
    """from_poly gives the cumsum cube, and a spare apart from it."""
    eng = NumpyBackend()
    cube, want = eng.from_poly(p), cumsum_from_poly(p)
    assert cube.shape == want.shape
    assert np.array_equal(cube, want)
    assert meets_limb_invariant(cube)
    # the buffer the passes left over waits for the first split
    (spare,) = eng._spares[cube.size]
    assert not np.shares_memory(spare, cube)
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


def test_zero_polynomial_is_one_nonnegative_entry():
    zero = Polynomial.zero(5)
    assert assert_cumsum_cube(zero).shape == (1,) * 6
    cert = certify(zero)
    assert (cert.status, cert.steps) == ("Nonnegative", 1)


def test_multi_limb_roots_match_the_cumsum_construction():
    # WIDENING_WALK's top coefficient is about 2^86: three limbs
    assert len(assert_cumsum_cube(WIDENING_WALK)) == 3
    # 2^42 - 1 fits one limb, but its box sums reach 12,005 times that,
    # about 2^55.6: the first prefix pass widens the cube to two limbs
    full = Polynomial(5, {e: 2 ** 42 - 1 for e in product(
        range(7), range(7), range(7), range(7), range(5))})
    cube = assert_cumsum_cube(full)
    assert cube.shape == (2, 7, 7, 7, 7, 5)
    assert to_poly(cube) == full


@pytest.mark.parametrize("p, message", [
    (Polynomial.variable(4, 0), "5-variable"),
    (Polynomial.variable(6, 5), "5-variable"),
    (Polynomial(5, {(0, 0, 7, 0, 0): 1}), "degree exceeds 6"),
])
def test_from_poly_rejects_what_a_cube_cannot_hold(p, message):
    with pytest.raises(ValueError, match=message):
        NumpyBackend().from_poly(p)


def test_dilate_takes_a_limb_past_the_edge():
    eng = NumpyBackend()
    cube = eng.from_poly(WIDENS_ON_DILATE)
    assert (len(cube), len(eng.dilate(cube, 0))) == (2, 3)
    assert len(eng.split(cube, 0)[0]) == 3


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

    # reflect, dilate and split: one row of REFLECT[n], DILATE[n] or
    # DILATE[n] @ REFLECT[n]
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
    assert eng.wpd(cube) == all(s >= 0 for s in sums)


@given(small_polys5())
@settings(max_examples=15, deadline=None)
def test_certificates_are_backend_identical(p):
    a = certify(p, budget=200)
    b = _traverse(p, 200, ObjectEngine())
    assert a == b


def _single_edge_cell():
    return LatticeSimplex6("S1", (
        CENTER, EXTREME_B[3], B_MID[(2, 4)], A_MID[(1, 3)],
        EXTREME_B[2], EXTREME_A[1]))


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

    Copies, because the walk hands its cubes back to be overwritten;
    each with the turns of its axes, which the walk splits on x_axis at
    depth axis (mod 5) and so gives both children axis + 1.
    """

    def __init__(self):
        super().__init__()
        self.cubes = []

    def from_poly(self, p):
        cube = super().from_poly(p)
        self.cubes.append((0, cube.copy()))
        return cube

    def split(self, cube, axis):
        children = super().split(cube, axis)
        self.cubes.extend(((axis + 1) % 5, child.copy())
                          for child in children)
        return children


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
        # the root and both children of every split
        assert len(spy.cubes) == 1 + 2 * cert.subdivisions
        root = spy.cubes[0][1]
        for turns, cube in spy.cubes:
            assert cube.shape[1:] == turn(root, turns).shape[1:]
            # the maps read the top exponent as extent - 1 on every axis
            terms = to_poly(cube, turns).terms
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

    def split(self, cube, axis):
        children = super().split(cube, axis)
        self.cubes.extend(children)
        return children


def test_a_walk_over_five_distinct_extents_turns_its_axes():
    # extents 7, 6, 5, 4 and 3, so a turn that goes astray between any
    # two axes changes a shape. (x1 - x3)^2 vanishes on a diagonal, so
    # the walk never certifies: in 60 steps it splits 11 levels deep,
    # and its cubes widen from one limb to two
    x = [Polynomial.variable(5, a) for a in range(5)]
    p = ((x[1] - x[3]) ** 2 + x[0] ** 6 + x[1] ** 5 + x[2] ** 4
         + x[3] ** 3 + x[4] ** 2)
    spy, oracle = CubeSpy(), OracleSpy()
    cert = _traverse(p, 60, spy)
    assert cert == _traverse(p, 60, oracle)
    assert (cert.status, cert.max_depth) == ("BudgetExhausted", 11)
    extents = spy.cubes[0][1].shape[1:]
    assert extents == (7, 6, 5, 4, 3)
    assert {len(cube) for _, cube in spy.cubes} == {1, 2}
    assert len(spy.cubes) == len(oracle.cubes) == 1 + 2 * cert.subdivisions
    for (turns, cube), ref in zip(spy.cubes, oracle.cubes):
        # a cube at depth d has turned d times (mod 5)
        assert cube.shape[1:] == extents[turns:] + extents[:turns]
        assert to_poly(cube, turns) == oracle.to_poly(ref)


class WalkSpy(NumpyBackend):
    """The limb engine, watching what the walk does with cube memory.

    Every cube gets a digest when the engine hands it out, that is when
    the walk pushes it, and is checked against it when the walk pops it
    and reads its origin. ``fresh`` counts the arrays the engine handed
    out whose memory it had not handed out before in this walk; a
    recycled array comes back as a view of it in its new shape.
    """

    def __init__(self):
        super().__init__()
        self.pushed = {}
        self.seen = {}
        self.fresh = self.popped = 0

    def _hand_out(self, cube):
        self.pushed[id(cube)] = (cube.shape,
                                 hashlib.sha256(cube.tobytes()).digest())
        owner = cube if cube.base is None else cube.base
        known = self.seen.get(id(owner))
        if known is None or known() is not owner:
            self.fresh += 1
            self.seen[id(owner)] = weakref.ref(owner)
        return cube

    def from_poly(self, p):
        return self._hand_out(super().from_poly(p))

    def split(self, cube, axis):
        return tuple(map(self._hand_out, super().split(cube, axis)))

    def origin_negative(self, cube):
        shape, digest = self.pushed.pop(id(cube))
        assert (cube.shape, hashlib.sha256(cube.tobytes()).digest()) == (
            shape, digest)
        self.popped += 1
        return super().origin_negative(cube)

    def recycle(self, cube):
        # a cube still on the stack is never handed back
        assert id(cube) not in self.pushed
        super().recycle(cube)
        # and the engine keeps at most the two spares one split takes
        assert len(self._spares[cube.size]) <= 2


# WIDENS_ON_DILATE is WPD at its root; times (x1 - x3)^2, which never
# certifies, it keeps splitting, from a 3-limb root (its top coefficient
# is about 2^86) to 5-limb cubes within 60 levels
WIDENING_WALK = WIDENS_ON_DILATE * (Polynomial.variable(5, 1)
                                    - Polynomial.variable(5, 3)) ** 2


def test_walk_never_writes_a_cube_on_its_stack():
    walks = (
        (pullback(directional_derivative(EdgeSubset((0,))),
                  _single_edge_cell()), 10 ** 6),
        (WIDENS_ON_DILATE, 60),
        (WIDENING_WALK, 60),
    )
    spies = []
    for p, budget in walks:
        spy = WalkSpy()
        cert = _traverse(p, budget, spy)
        assert cert == certify(p, budget)
        assert spy.popped == cert.steps
        # only the cubes left on the stack were never popped
        assert len(spy.pushed) == 1 + 2 * cert.subdivisions - cert.steps
        # without reuse a walk allocates the root and both halves of
        # every split; with it, fewer, though no cube on the stack and
        # at most two spares per size are kept
        assert spy.fresh < 1 + 2 * cert.subdivisions or spy.fresh == 1
        spies.append(spy)
    single_edge, _, widening = spies
    # the single-edge walk (421 steps) reuses two arrays in three: 132
    # of its 421 cubes are fresh
    assert single_edge.popped == 421 and single_edge.fresh <= 421 // 3
    # the widening walk recycled cubes of every limb count it crossed
    box = NumpyBackend().from_poly(WIDENING_WALK)[0].size
    assert {size // box for size in widening._spares} == {3, 4, 5}


def test_split_never_writes_its_input():
    eng = NumpyBackend()
    # a walk leaves the engine holding spares of the cube sizes it used
    _traverse(WIDENING_WALK, 60, eng)
    sizes = [size for size, cubes in eng._spares.items() if cubes]
    assert len(sizes) >= 3
    for size in sizes:
        # an input of each size that holds spares, not itself a spare
        cube = eng._spares[size][0].copy()
        before = cube.copy()
        for axis in range(5):
            children = eng.split(cube, axis)
            assert not any(np.shares_memory(c, cube) for c in children)
            assert np.array_equal(cube, before)
            # the children become spares for the next split
            for child in children:
                eng.recycle(child)


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
    assert eng.origin_negative(eng.from_poly(big))
