"""Agreement of the cube engines with each other and with the oracle.

``numpy`` is the int64 limb engine and ``numba`` the two-limb jitted
one; ``ObjectEngine`` in ``_object_engine.py`` computes on Python ints
and is the oracle. Every test here runs with or without numba. Engine
resolution never compiles anything, so the selection tests patch
``NUMBA_AVAILABLE`` to check both the numba-present and the numba-absent
rules everywhere. The representation-level tests drive ``NumbaBackend``
directly: without numba its kernels run as plain Python, which still
checks the two-limb arithmetic against the limb engine. The limb engine
stores box partial sums; it is checked against the oracle operation by
operation on coefficients at the limb boundaries, its per-axis maps are
rebuilt in Python ints, and its cubes, which span only the root's
degree box, are checked to keep that box along whole walks. The
run-level tests certify on numba where it can be imported and on the
limb engine otherwise, and compare each run with the oracle's walk. The
replay fallback test installs ``NumbaBackend`` as ``numba`` the same
way; its two-limb runs stop at the first overflow, so they stay short.
"""

from itertools import product
from math import comb
from operator import le

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tetravol import _kernels, positive_dominance
from tetravol._kernels import (
    DILATE, NP_LIMB, NP_LIMB_BITS, NUMBA_AVAILABLE, REFLECT, BackendOverflow,
    BackendUnavailable, NumbaBackend, NumpyBackend, get_backend,
)
from tetravol.cayley_menger import directional_derivative, f_polynomial
from tetravol.chamber_geometry import (
    A_MID, B_MID, CENTER, EXTREME_A, EXTREME_B, LatticeSimplex6,
    build_partitions,
)
from tetravol.exact_poly import Polynomial
from tetravol.positive_dominance import _traverse, certify, is_wpd, replay
from tetravol.simplex_pullback import pullback

from _object_engine import ObjectEngine

# the engine the run-level tests certify on
RUN_ENGINE = "numba" if NUMBA_AVAILABLE else "numpy"


def _numba_importable(monkeypatch, available):
    monkeypatch.setattr(_kernels, "NUMBA_AVAILABLE", available)
    monkeypatch.setattr(_kernels, "_BACKENDS", {})


def test_backend_selection(monkeypatch):
    monkeypatch.delenv("TETRAVOL_BACKEND", raising=False)
    assert get_backend().name == ("numba" if NUMBA_AVAILABLE else "numpy")
    for available in (True, False):
        _numba_importable(monkeypatch, available)
        monkeypatch.delenv("TETRAVOL_BACKEND", raising=False)
        assert get_backend().name == ("numba" if available else "numpy")
        assert get_backend("numpy").name == "numpy"
        if available:
            assert get_backend("numba").name == "numba"
        else:
            with pytest.raises(BackendUnavailable, match="numba"):
                get_backend("numba")
        monkeypatch.setenv("TETRAVOL_BACKEND", "numpy")
        assert get_backend().name == "numpy"
        monkeypatch.setenv("TETRAVOL_BACKEND", "numba")
        if available:
            assert get_backend().name == "numba"
        else:
            with pytest.raises(BackendUnavailable, match="numba"):
                get_backend()
        with pytest.raises(ValueError):
            get_backend("fortran")


def test_explicit_name_beats_the_environment(monkeypatch):
    monkeypatch.setenv("TETRAVOL_BACKEND", "numpy")
    for available in (True, False):
        _numba_importable(monkeypatch, available)
        if available:
            assert get_backend("numba").name == "numba"
        else:
            with pytest.raises(BackendUnavailable):
                get_backend("numba")


def test_two_limb_range_is_enforced():
    big = Polynomial(5, {(0, 0, 0, 0, 0): 2 ** 90})
    with pytest.raises(BackendOverflow):
        NumbaBackend().from_poly(big)
    # the limb engine has no coefficient ceiling: it takes more limbs
    eng = get_backend("numpy")
    assert eng.to_poly(eng.from_poly(big)) == big


def test_roundtrip_through_each_engine():
    x = Polynomial.variable(5, 2)
    p = 5 * x * x - 3 * x + Polynomial.constant(5, 11)
    for eng in (NumbaBackend(), get_backend("numpy")):
        assert eng.to_poly(eng.from_poly(p)) == p


def small_polys5():
    exps = st.tuples(*[st.integers(0, 2) for _ in range(5)])
    term = st.tuples(exps, st.integers(-30, 30))
    return st.lists(term, max_size=5).map(
        lambda ts: Polynomial(5, dict(ts)))


@given(small_polys5())
# 5 - 3*x0 is WPD only if the negative coefficient's low limb carries
@example(Polynomial(5, {(0, 0, 0, 0, 0): 5, (1, 0, 0, 0, 0): -3}))
@settings(max_examples=30, deadline=None)
def test_wpd_decision_is_backend_independent(p):
    eng = NumbaBackend()
    assert eng.wpd(eng.from_poly(p)) == is_wpd(p, backend="numpy")


# bit sizes on both sides of one and two 40-, 48- and 56-bit limbs, and
# four limbs or more of each
LIMB_EDGE_BITS = (39, 40, 41, 47, 48, 49, 55, 56, 57, 79, 80, 81, 95, 96,
                  97, 111, 112, 113, 200)


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
    low, top = cube[:-1], cube[-1]
    return (cube.dtype == np.int64 and cube.flags.c_contiguous
            and ((low >= 0) & (low < NP_LIMB)).all()
            and (abs(top) < NP_LIMB).all())


# dilating axis 0 multiplies its box sums by 2^6 (the rows of DILATE[7]
# sum to 64), so the top limb 2^55 - 1 leaves the 2^56 range and the
# cube must take a third limb
WIDENS_ON_DILATE = Polynomial(5, {(0, 0, 0, 0, 0): 2 ** 111 - 1,
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
    assert eng.to_poly(cube) == p
    assert eng.wpd(cube) == oracle.wpd(ref)
    assert eng.origin_negative(cube) == oracle.origin_negative(ref)
    assert eng.corner_value(cube) == oracle.corner_value(ref)
    for axis in range(5):
        reflected, dilated = eng.reflect(cube, axis), eng.dilate(cube, axis)
        assert meets_limb_invariant(reflected)
        assert meets_limb_invariant(dilated)
        assert eng.to_poly(reflected) == oracle.to_poly(
            oracle.reflect(ref, axis))
        assert eng.to_poly(dilated) == oracle.to_poly(
            oracle.dilate(ref, axis))
    # no operation writes to its input
    assert np.array_equal(cube, before)
    assert _traverse(p, 60, eng) == _traverse(p, 60, oracle)


def test_dilate_takes_a_limb_past_the_edge():
    eng = NumpyBackend()
    cube = eng.from_poly(WIDENS_ON_DILATE)
    assert (len(cube), len(eng.dilate(cube, 0))) == (2, 3)


def test_limb_width_leaves_int64_headroom():
    # limbs below 2^B in magnitude, summed with integer weights whose
    # absolute values total m, stay below m * 2^B; normalizing then adds
    # a carry of at most m from the limb below
    def fits(m):
        return m * 2 ** NP_LIMB_BITS + m < 2 ** 63

    # reflect and dilate: one row of REFLECT[n] or DILATE[n]
    rows = [int(abs(t).sum(axis=1).max())
            for table in (REFLECT, DILATE) for t in table.values()]
    assert fits(max(rows))
    # from_poly: a prefix pass sums at most the longest axis
    assert fits(max(DILATE))
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
    # coefficient maps: x -> 1 - x and x -> x / 2 times 2^(n - 1)
    flip = [[(-1) ** i * comb(j, i) for j in range(n)] for i in range(n)]
    halve = [[2 ** (n - 1 - i) * (i == j) for j in range(n)]
             for i in range(n)]
    assert REFLECT[n].tolist() == _matmul(_matmul(ones, flip), delta)
    d = DILATE[n].tolist()
    assert d == _matmul(_matmul(ones, halve), delta)
    # lower-triangular with positive entries, and row i < n - 1 is the
    # last row's first i entries, then twice its i-th: the running sum
    # dilate applies rests on this
    for i, j in product(range(n), repeat=2):
        assert (d[i][j] > 0) == (j <= i)
        assert j > i or i == n - 1 or d[i][j] == (1 + (i == j)) * d[-1][j]


@given(limb_edge_polys5())
# box sums [2^56, 1], [2^56, 0] and [2^56, -1] along axis 0
@example(Polynomial(5, {(0, 0, 0, 0, 0): 2 ** 56,
                        (1, 0, 0, 0, 0): 1 - 2 ** 56}))
@example(Polynomial(5, {(0, 0, 0, 0, 0): 2 ** 56,
                        (1, 0, 0, 0, 0): -2 ** 56}))
@example(Polynomial(5, {(0, 0, 0, 0, 0): 2 ** 56,
                        (1, 0, 0, 0, 0): -1 - 2 ** 56}))
@settings(max_examples=25, deadline=None)
def test_wpd_is_the_sign_of_every_box_sum(p):
    eng = NumpyBackend()
    cube = eng.from_poly(p)
    q = eng.to_poly(cube)
    box = [range(max(e[a] for e in q.terms) + 1) for a in range(5)]
    sums = (sum(c for e, c in q.terms.items() if all(map(le, e, i)))
            for i in product(*box))
    assert eng.wpd(cube) == all(s >= 0 for s in sums)


@given(small_polys5())
@settings(max_examples=15, deadline=None)
def test_certificates_are_backend_identical(p):
    a = certify(p, budget=200, backend=RUN_ENGINE)
    b = _traverse(p, 200, ObjectEngine())
    assert a == b


def _single_edge_cell():
    return LatticeSimplex6("S1", (
        CENTER, EXTREME_B[3], B_MID[(2, 4)], A_MID[(1, 3)],
        EXTREME_B[2], EXTREME_A[1]))


def test_recorded_workload_agrees_across_backends():
    q = pullback(directional_derivative((0,)), _single_edge_cell())
    a = certify(q, backend=RUN_ENGINE)
    b = _traverse(q, 10 ** 6, ObjectEngine())
    assert a.status == b.status == "Nonnegative"
    assert a.steps == b.steps == 421
    assert a.actions == b.actions
    assert a.histogram == b.histogram


class CubeSpy(NumpyBackend):
    """The limb engine, keeping every cube it returns."""

    def __init__(self):
        self.cubes = []

    def from_poly(self, p):
        self.cubes.append(super().from_poly(p))
        return self.cubes[-1]

    def dilate(self, cube, axis):
        self.cubes.append(super().dilate(cube, axis))
        return self.cubes[-1]

    def reflect(self, cube, axis):
        self.cubes.append(super().reflect(cube, axis))
        return self.cubes[-1]


def test_every_cube_spans_the_root_degree_box():
    x1, x3 = Polynomial.variable(5, 1), Polynomial.variable(5, 3)
    walks = (
        (pullback(directional_derivative((0,)), _single_edge_cell()),
         10 ** 6, 421),
        ((x1 - x3) ** 2, 60, 60),
        (ZERO_TOP_SUM, 60, 3),
    )
    for p, budget, steps in walks:
        spy = CubeSpy()
        assert _traverse(p, budget, spy).steps == steps
        root = spy.cubes[0]
        for cube in spy.cubes:
            assert cube.shape[1:] == root.shape[1:]
            # dilate reads the top exponent as extent - 1 on every axis
            terms = spy.to_poly(cube).terms
            assert [max(e[a] for e in terms) for a in range(5)] == [
                n - 1 for n in root.shape[1:]]


def test_overflowing_workload_restarts_on_the_fallback():
    # deep splits push coefficients past the compiled guard; certify
    # must transparently redo the run on the unbounded engine
    cell = build_partitions().four["B_1"]
    comb = 3 * directional_derivative((0, 1, 3)) - f_polynomial()
    q = pullback(comb, cell)
    cert = certify(q, backend=RUN_ENGINE)
    assert cert.status == "Nonnegative"
    assert cert.steps == 1275


def test_replay_restarts_on_the_fallback(monkeypatch):
    # an uncompiled NumbaBackend where numba is absent; 2^k times a
    # product of (1 - 2x + 2x^2) factors certifies in 63 steps, and its
    # root (k=82) or its first split (k=79) leaves the two-limb range
    _numba_importable(monkeypatch, True)
    x = [Polynomial.variable(5, a) for a in range(5)]
    one = Polynomial.constant(5, 1)
    base = one
    for xa in x:
        base = base * (one - 2 * xa + 2 * xa * xa)
    guard, traverse = NumbaBackend.guard, positive_dominance._traverse
    fired, engines = [], []

    def spy_guard(self, cube):
        try:
            guard(self, cube)
        except BackendOverflow:
            fired.append(True)
            raise

    def spy_traverse(p, budget, eng, expect=None):
        engines.append(eng.name)
        return traverse(p, budget, eng, expect)

    monkeypatch.setattr(NumbaBackend, "guard", spy_guard)
    monkeypatch.setattr(positive_dominance, "_traverse", spy_traverse)
    for k in (79, 82):
        q = Polynomial.constant(5, 2 ** k) * base
        cert = certify(q, backend="numpy")
        assert (cert.status, cert.steps) == ("Nonnegative", 63)
        fired.clear()
        engines.clear()
        assert replay(q, cert, backend="numba")
        assert engines == ["numba", "numpy"]
        assert fired == ([True] if k == 79 else [])


def test_numpy_engine_never_falls_back_silently():
    eng = get_backend("numpy")
    big = Polynomial(5, {(1, 0, 0, 0, 0): 2 ** 90,
                         (0, 0, 0, 0, 0): -2 ** 89})
    cube = eng.from_poly(big)
    eng.guard(cube)
    assert eng.origin_negative(cube)
