"""Pullback of polynomials onto the unit cube over a lattice simplex."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tetravol import simplex_pullback
from tetravol.case_suite_cli import case_registry
from tetravol.cayley_menger import (EdgeSubset, directional_derivative,
                                    f_polynomial)
from tetravol.chamber_geometry import LatticeSimplex6, build_partitions
from tetravol.exact_poly import Polynomial
from tetravol.positive_dominance import certify
from tetravol.simplex_pullback import (_graded_basis, build_pullback,
                                       point_image, pullback)


def _cells():
    parts = build_partitions()
    return [parts.twelve["C_11"], parts.twelve["C_31"],
            parts.four["B_1"], parts.fortyeight["D_1111"]]


def _one_cell_per_level():
    parts = build_partitions()
    return [parts.three["A_1"], parts.four["B_1"], parts.twelve["C_31"],
            parts.fortyeight["D_1111"]]


def _affine_images(cell):
    """The six forms (W V(u))_k as Polynomials, by algebra on V(u).

    The oracle for ``build_pullback``, which reads them off the vertices.
    """
    u = [Polynomial.variable(5, j) for j in range(5)]
    weights = ([Polynomial.constant(5, 1) - u[0]]
               + [u[j] - u[j + 1] for j in range(4)] + [u[4]])
    images = []
    for k in range(6):
        mk = Polynomial.zero(5)
        for v, w in zip(cell.vertices, weights):
            if v[k]:
                mk = mk + v[k] * w
        images.append(mk)
    return images


def _linear_form(q):
    """(c0, c1, ..., c5) for an affine q = c0 + sum c_i u_i."""
    assert q.total_degree() <= 1
    return tuple(q.terms.get(tuple(int(k == i) for k in range(5)), 0)
                 for i in range(-1, 5))


def _stick_rewrite(p):
    """Substitute u_k = x1*...*xk by rewriting exponents as suffix sums.

    The oracle for the stick-breaking table of ``_graded_basis``.  The
    exponent map is injective, so no two source terms collide.
    """
    out = {}
    for exps, c in p.terms.items():
        total = 0
        suffix = []
        for e in reversed(exps):
            total += e
            suffix.append(total)
        key = tuple(reversed(suffix))
        if key in out:
            raise RuntimeError("stick rewrite collision")
        out[key] = c
    return Polynomial(5, out)


def _by_substitution(cell, p):
    """The oracle: compose term by term, then rewrite the exponents."""
    return _stick_rewrite(p.substitute(_affine_images(cell)))


def _apply_reference(cell, p):
    """Direct substitution of the stick-breaking images Z(x); slow oracle."""
    return p.substitute([_stick_rewrite(q) for q in _affine_images(cell)])


DEGREE6_EXPONENTS = [e for e in itertools.product(range(7), repeat=6)
                     if sum(e) <= 6]


def degree6_polys6(max_terms=80, bound=2 ** 100):
    term = st.tuples(st.sampled_from(DEGREE6_EXPONENTS),
                     st.integers(-bound, bound))
    # draw the length first, so that long lists are as likely as short
    return st.integers(0, max_terms).flatmap(
        lambda n: st.lists(term, min_size=n, max_size=n)).map(
        lambda ts: Polynomial(6, dict(ts)))


def small_polys6(max_deg=2, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(6)])
    term = st.tuples(exps, st.integers(-20, 20))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Polynomial(6, dict(ts)))


cube_points = st.tuples(*[
    st.fractions(min_value=0, max_value=1, max_denominator=8)
    for _ in range(5)])


def test_forms_equal_the_polynomial_algebra_on_every_cell():
    parts = build_partitions()
    cells = [c for level in (parts.three, parts.four, parts.twelve,
                             parts.fortyeight) for c in level.values()]
    assert len(cells) == 67
    cells += [c for spec in case_registry().values()
              for c in spec.simplices.values()]
    for cell in cells:
        assert build_pullback(cell) == tuple(
            _linear_form(q) for q in _affine_images(cell))


def test_cube_corners_map_to_first_and_last_vertex():
    for cell in _cells():
        assert point_image(cell, (0,) * 5) == cell.vertices[0]
        assert point_image(cell, (1,) * 5) == cell.vertices[5]


def test_axis_steps_walk_the_vertex_chain():
    cell = _cells()[0]
    # setting the first j coordinates to 1 and the rest to 0 gives vertex j
    for j in range(6):
        x = tuple(1 if k < j else 0 for k in range(5))
        assert point_image(cell, x) == cell.vertices[j]


@given(cube_points)
@settings(max_examples=40)
def test_point_image_stays_inside_the_simplex(x):
    cell = _cells()[0]
    assert cell.contains(point_image(cell, x))


@given(small_polys6(), cube_points)
@settings(max_examples=40, deadline=None)
def test_pullback_evaluates_like_composition(p, x):
    cell = _cells()[1]
    assert pullback(p, cell).evaluate(x) == p.evaluate(point_image(cell, x))


@given(small_polys6(max_deg=2, max_terms=3))
@settings(max_examples=25, deadline=None)
def test_fast_and_reference_paths_agree(p):
    cell = _cells()[2]
    assert pullback(p, cell) == _apply_reference(cell, p)


def test_horner_matches_substitution_on_every_registry_task():
    for spec in case_registry().values():
        for task in spec.tasks:
            cell = spec.simplices[task.simplex]
            p = task.func.polynomial(spec.beta)
            assert pullback(p, cell) == _by_substitution(cell, p)


# Phi >= 2**63 on every cell, so the Horner scheme runs on Python ints
PAST_INT64 = Polynomial(6, {(1, 0, 2, 0, 0, 3): 2 ** 100 - 1,
                            (0, 4, 0, 1, 1, 0): -(2 ** 64), (0,) * 6: 5})


@given(degree6_polys6(), st.sampled_from(range(4)))
@example(PAST_INT64, 0)
@settings(max_examples=40, deadline=None)
def test_horner_matches_substitution_past_int64(p, level):
    cell = _one_cell_per_level()[level]
    assert pullback(p, cell) == _by_substitution(cell, p)


# few terms of mixed degrees, so most tree nodes are not terms of p
@given(degree6_polys6(max_terms=6, bound=2 ** 40), st.sampled_from(range(4)))
@example(Polynomial.constant(6, -3), 0)
@example(Polynomial(6, {(0, 0, 0, 0, 0, 6): 7}), 1)
@example(Polynomial(6, {(6, 0, 0, 0, 0, 0): -1}), 3)
@example(Polynomial(6, {(1, 0, 0, 0, 0, 1): 3, (0, 2, 0, 0, 0, 0): -1,
                        (0, 0, 1, 2, 0, 3): 5, (0,) * 6: 2}), 2)
@example(Polynomial(6, {(0, 0, 0, 0, 0, 6): 2 ** 80 + 1,
                        (1, 0, 1, 0, 1, 0): -(2 ** 70)}), 3)
# 2**53 <= Phi < 2**63, where float64 would round and int64 would not wrap
@example(Polynomial(6, {(0, 0, 0, 0, 0, 1): 2 ** 57 + 1, (0,) * 6: -3}), 1)
@example(Polynomial(6, {(1, 0, 0, 0, 0, 1): -(2 ** 54) - 1}), 1)
@settings(max_examples=60, deadline=None)
def test_level_scheme_matches_substitution_on_sparse_trees(p, level):
    cell = _one_cell_per_level()[level]
    assert pullback(p, cell) == _by_substitution(cell, p)


def test_a_cached_tree_carries_no_coefficients_or_forms():
    # p and q share their exponents, in the same dict order, so the
    # second pullback reuses the tree the first one built
    p = Polynomial(6, {(0, 1, 0, 0, 2, 1): 9, (1, 0, 0, 0, 0, 0): -4,
                       (0, 0, 3, 0, 0, 0): 1, (0,) * 6: -7})
    q = Polynomial(6, dict(zip(p.terms, (-2, 11, 2 ** 70, 5))))
    assert list(q.terms) == list(p.terms)
    first, second = _one_cell_per_level()[1:3]
    hits = simplex_pullback._monomial_tree.cache_info().hits
    assert pullback(p, first) == _by_substitution(first, p)
    assert pullback(q, second) == _by_substitution(second, q)
    assert pullback(p, second) == _by_substitution(second, p)
    assert simplex_pullback._monomial_tree.cache_info().hits >= hits + 2
    assert simplex_pullback._monomial_tree.cache_info().maxsize is not None


def _monomial_tree_by_dicts(exponents):
    """The oracle for ``_monomial_tree``: the tree built node by node,
    each exponent walked down to 1 through dicts of children."""
    kids = {}
    for e in exponents:
        j = 5
        while any(e):
            while not e[j]:
                j -= 1
            up = e[:j] + (e[j] - 1,) + e[j + 1:]
            siblings = kids.setdefault(up, {})
            if e in siblings:
                break
            siblings[e] = j
            e = up
    term = {e: i for i, e in enumerate(exponents)}
    level, levels = [(0,) * 6], []
    while level:
        below, js, spots = [], [], []
        width = len(level)
        for i, m in enumerate(level):
            for child, j in kids.get(m, {}).items():
                k = len(below)
                below.append(child)
                js.append(j)
                spots.append([(6 * k + slot) * width + i
                              for slot in range(6)])
        levels.append((np.array([term.get(m, len(term)) for m in level],
                                dtype=np.intp), np.array(js, dtype=np.intp),
                       np.array(spots, dtype=np.intp).reshape(-1, 6)))
        level = below
    return tuple(levels)


def _tree_nodes(levels):
    """Each node of a tree as (exponent, term), rebuilt from the levels.

    Child k of a level of width nodes has its form's slot i at flat index
    (6 k + i) * width + parent of the (children, 6, width) matrix.
    """
    nodes, out = [(0,) * 6], set()
    for terms, js, spots in levels:
        out |= set(zip(nodes, terms.tolist()))
        width = len(nodes)
        assert spots.shape == (len(js), 6)
        rows, parents = np.divmod(spots, width)
        assert (rows == 6 * np.arange(len(js))[:, None] + range(6)).all()
        assert (parents == parents[:, :1]).all()
        below = []
        for parent, j in zip(parents[:, 0].tolist(), js.tolist()):
            e = list(nodes[parent])
            e[j] += 1
            below.append(tuple(e))
        nodes = below
    assert not nodes
    return out


@given(degree6_polys6(max_terms=30).filter(lambda p: not p.is_zero()))
@example(Polynomial.constant(6, 1))
@example(Polynomial(6, {(2, 0, 0, 0, 1, 0): 1, (1, 0, 0, 0, 0, 0): 1}))
@example(Polynomial(6, {(0, 0, 0, 0, 0, 8): 1, (8, 0, 0, 0, 0, 0): 1,
                        (1, 1, 1, 1, 1, 3): 1}))
@settings(max_examples=60, deadline=None)
def test_monomial_tree_has_the_nodes_of_the_dict_built_tree(p):
    exps = p.arrays()[0]
    levels = simplex_pullback._monomial_tree.__wrapped__(exps.tobytes())
    oracle = _monomial_tree_by_dicts(tuple(p.terms))
    assert [len(level[0]) for level in levels] == [
        len(level[0]) for level in oracle]
    assert _tree_nodes(levels) == _tree_nodes(oracle)


def _dtypes_of(p, cell):
    """The pullback of p and the dtypes its level loop ran on."""
    seen = set()
    fold = simplex_pullback._fold_levels

    def spy(levels, coeffs, forms, down):
        seen.add(forms.dtype)
        return fold(levels, coeffs, forms, down)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(simplex_pullback, "_fold_levels", spy)
        return pullback(p, cell), seen


def _coefficient_bound_by_terms(p, forms):
    """Phi(p) term by term: sum |c| prod_k N_k^e_k."""
    norms = [max(1, sum(map(abs, form))) for form in forms]
    return sum(abs(c) * math.prod(map(pow, norms, e))
               for e, c in p.terms.items())


def _norm_power(p, forms):
    """max_k N_k^deg(p), the cheap bound's weight on every term."""
    norm = max(max(1, sum(map(abs, form))) for form in forms)
    return norm ** max(p.total_degree(), 0)


def _cheap_bound(p, forms):
    """The bound the fold tests: sum |c| max_k N_k^deg(p) >= Phi(p)."""
    return sum(map(abs, p.terms.values())) * _norm_power(p, forms)


def test_dtype_switches_at_the_float64_bound():
    cell = _cells()[0]
    float64, obj = np.dtype(np.float64), np.dtype(object)
    for c, dtype in ((2 ** 53 - 1, float64), (-(2 ** 53 - 1), float64),
                     (2 ** 53, obj), (-(2 ** 53), obj)):
        q, seen = _dtypes_of(Polynomial.constant(6, c), cell)
        assert seen == {dtype}
        assert q == Polynomial.constant(5, c)
        assert q.arrays()[1].dtype == (np.int64 if dtype is float64 else obj)
    forms = build_pullback(cell)
    norm = max(sum(map(abs, form)) for form in forms)
    k = max(range(6), key=lambda k: max(map(abs, forms[k])))
    top = max(map(abs, forms[k]))
    x = [Polynomial.variable(6, i) for i in range(6)]
    cases = [((2 ** 53 // top + 1) * x[k], obj),  # float64 would round
             (PAST_INT64, obj)]
    # c * q has the cheap bound c * sum |q| N^deg(q), N = norm >= 2 here
    for q, bound in ((x[k], norm), (x[k] * x[k], norm ** 2),
                     (x[k] * x[k - 1], norm ** 2), (x[k] + 1, 2 * norm)):
        c = (2 ** 53 - 1) // bound
        cases += [(c * q, float64), ((c + 1) * q, obj)]
    # the cheap bound sums over the terms
    a = (2 ** 53 - 1) // norm // 2
    b = (2 ** 53 - 1) // norm - a
    cases += [(a * x[k] + b, float64), (a * x[k] + b + 1, obj)]
    # Phi < 2**53 <= the cheap bound: the Python-int fold, still exact
    p = 2 ** 52 + x[k] ** 6
    assert _coefficient_bound_by_terms(p, forms) < 2 ** 53 \
        <= _cheap_bound(p, forms)
    cases.append((p, obj))
    for p, dtype in cases:
        assert _cheap_bound(p, forms) >= _coefficient_bound_by_terms(p, forms)
        q, seen = _dtypes_of(p, cell)
        assert seen == {dtype}
        assert q == _by_substitution(cell, p)


def _with_cheap_bound(p, forms, bound):
    """p's terms scaled down to a cheap bound at most bound, with the
    constant term then set to make it the largest multiple of N^deg(p)
    at most bound, keeping its sign."""
    rest = Polynomial(6, {e: c for e, c in p.terms.items() if any(e)})
    weight = sum(map(abs, rest.terms.values()))
    total = bound // _norm_power(rest, forms)
    if weight > total:
        rest = Polynomial(6, {e: c * total // weight if c > 0 else
                              -(-c * total // weight)
                              for e, c in rest.terms.items()})
    # the scaling may have dropped every term of the top degree
    total = bound // _norm_power(rest, forms)
    sign = -1 if p.terms.get((0,) * 6, 0) < 0 else 1
    out = rest + Polynomial.constant(
        6, sign * (total - sum(map(abs, rest.terms.values()))))
    assert _cheap_bound(out, forms) == total * _norm_power(out, forms) \
        <= bound
    return out


@given(degree6_polys6(max_terms=40, bound=2 ** 60),
       st.integers(2 ** 52, 2 ** 53 - 1), st.sampled_from(range(4)))
@example(Polynomial(6, {(0, 0, 0, 0, 0, 6): 1, (1, 1, 1, 1, 1, 1): -1}),
         2 ** 53 - 1, 3)
@example(Polynomial(6, {(2, 0, 1, 0, 3, 0): -1}), 2 ** 52, 0)
@settings(max_examples=60, deadline=None)
def test_float64_fold_is_exact_just_below_two_to_the_53(p, bound, level):
    # every value the float64 fold forms is at most Phi, which is at most
    # the cheap bound, below 2**53 here
    cell = _one_cell_per_level()[level]
    p = _with_cheap_bound(p, build_pullback(cell), bound)
    q, seen = _dtypes_of(p, cell)
    assert seen == {np.dtype(np.float64)}
    assert q == _by_substitution(cell, p)


def test_float64_bound_holds_on_registry_tasks_and_endpoint_scan_range():
    for spec in case_registry().values():
        for task in spec.tasks:
            forms = build_pullback(spec.simplices[task.simplex])
            p = task.func.polynomial(spec.beta)
            assert _cheap_bound(p, forms) < 2 ** 53
    # the cheap bound of a*g + b*f, of degree at most 6, is at most
    # (|a| sum |g| + |b| sum |f|) N^6, so one sum covers every ratio the
    # endpoint scan draws, 1 <= a <= 12 and -6 <= b <= 6
    f = f_polynomial()
    cells = build_partitions().fortyeight.values()
    for mask in range(1, 64):
        g = directional_derivative(
            EdgeSubset(k for k in range(6) if mask >> k & 1))
        for cell in cells:
            forms = build_pullback(cell)
            assert (12 * sum(map(abs, g.terms.values()))
                    + 6 * sum(map(abs, f.terms.values()))) \
                * _norm_power(f, forms) < 2 ** 53


def _graded_basis_by_loops(degree):
    """The oracle for ``_graded_basis``: its tables built by Python loops,
    row by row and then transposed, with the stick-breaking exponents as
    tuples."""
    mons = [tuple(combo.count(i) for i in range(5))
            for t in range(degree + 1)
            for combo in itertools.combinations_with_replacement(range(5), t)]
    index = {e: j for j, e in enumerate(mons)}
    down = {}
    for t in range(degree):
        n, m = math.comb(5 + t, 5), math.comb(6 + t, 5)
        table = np.full((m + 1, 6), n, dtype=np.intp)
        table[:n, 0] = range(n)
        for j, e in enumerate(mons[:m]):
            for i in range(5):
                if e[i]:
                    table[j, i + 1] = index[e[:i] + (e[i] - 1,) + e[i + 1:]]
        down[n + 1] = table.T
    stick = [tuple(itertools.accumulate(reversed(e)))[::-1] for e in mons]
    return stick, down


@pytest.mark.parametrize("degree", range(9))
def test_graded_basis_tables_match_the_oracles(degree):
    stick, down = _graded_basis(degree)
    assert stick.dtype == np.intp and not stick.flags.writeable
    assert stick.shape == (5, math.comb(5 + degree, 5))
    stick = list(zip(*stick.tolist()))
    loop_stick, loop_down = _graded_basis_by_loops(degree)
    assert stick == loop_stick
    assert down.keys() == loop_down.keys()
    # row i of a table holds 6 s + i for each index s it reads
    for n, table in down.items():
        assert table.dtype == np.intp and not table.flags.writeable
        assert (table % 6 == np.arange(6)[:, None]).all()
        assert np.array_equal(table // 6, loop_down[n])
    # the u-exponents, as differences of the suffix sums
    mons = [tuple(a - b for a, b in zip(s, s[1:] + (0,))) for s in stick]
    assert sorted(mons) == [e for e in itertools.product(
        range(degree + 1), repeat=5) if sum(e) <= degree]
    assert list(map(sum, mons)) == sorted(map(sum, mons))
    assert _stick_rewrite(
        Polynomial(5, {e: j + 1 for j, e in enumerate(mons)})) == Polynomial(
        5, {s: j + 1 for j, s in enumerate(stick)})
    index = {e: j for j, e in enumerate(mons)}
    assert len(down) == degree
    for t in range(degree):
        n, m = math.comb(5 + t, 5), math.comb(6 + t, 5)
        table = down[n + 1] // 6
        assert table.shape == (6, m + 1)
        assert (table[:, m] == n).all()
        for j, e in enumerate(mons[:m]):
            assert table[0, j] == (j if j < n else n)
            for i in range(5):
                below = e[:i] + (e[i] - 1,) + e[i + 1:]
                assert table[i + 1, j] == index.get(below, n)


def test_horner_on_the_zero_polynomial_and_a_constant():
    for cell in _one_cell_per_level():
        for p in (Polynomial.zero(6), Polynomial.constant(6, -(2 ** 70))):
            q = pullback(p, cell)
            assert q == _by_substitution(cell, p)
            assert q == Polynomial.constant(5, p.terms.get((0,) * 6, 0))


def test_reference_path_on_the_determinant():
    cell = _cells()[3]
    g = directional_derivative(EdgeSubset((0,)))
    assert pullback(g, cell) == _apply_reference(cell, g)


def test_pullback_keeps_per_variable_degree_bounded():
    # the dominance tester only accepts per-variable degree up to six
    f = f_polynomial()
    for cell in _cells():
        assert max(map(max, pullback(f, cell).terms)) <= 6


def test_pullback_of_constants_and_forms_by_vertices():
    cell = _cells()[0]
    one = Polynomial.constant(6, 7)
    assert pullback(one, cell) == Polynomial.constant(5, 7)
    # the forms depend on the ordered vertices alone, not on the name
    assert build_pullback(cell) == build_pullback(
        LatticeSimplex6("copy", cell.vertices))


def test_pullback_preserves_sign_on_samples():
    f = f_polynomial()
    cell = _cells()[0]
    q = pullback(f, cell)
    for x in [(Fraction(1, 2),) * 5,
              (Fraction(1, 3), Fraction(2, 3), 0, 1, Fraction(1, 4))]:
        assert q.evaluate(x) == f.evaluate(point_image(cell, x))
        assert q.evaluate(x) >= 0


def reversed_terms(p):
    """p with the same terms in reversed dict order."""
    return Polynomial._canonical(p.nvars, dict(reversed(p.terms.items())))


def test_pullback_and_certify_ignore_the_term_order():
    # f's dict order is whatever building it leaves, and every a*g + b*f
    # inherits it; the pulled-back terms and the certificate must not
    registry = case_registry()
    for case, k in (("full-K4", 1), ("incident-pair", 4)):
        spec = registry[case]
        task = spec.tasks[k]
        cell = spec.simplices[task.simplex]
        p = task.func.polynomial(spec.beta)
        flipped = reversed_terms(p)
        assert list(flipped.terms) != list(p.terms)
        q = pullback(p, cell)
        assert list(pullback(flipped, cell).terms.items()) == list(
            q.terms.items())
        cert = certify(q)
        assert cert.steps == task.target
        assert certify(reversed_terms(q)) == cert
