"""Registry integrity, one full case run, and the property suites."""

import dataclasses
import itertools
import operator
import random
from fractions import Fraction

import pytest

from tetravol import case_suite_cli as cli
from tetravol.case_suite_cli import (
    CaseFunction, CertTask, CurveResult, case_names, case_registry,
    curve_result, grade_task, lengthen_check, lengthen_margin,
    quadrature_check, random_tetrahedral, root_face_conditions,
    root_list_check, run_case, symmetry_cover,
)
from tetravol import cayley_menger
from tetravol.anti_certification import f_value_bordered
from tetravol.cayley_menger import (FACES, EdgeSubset,
                                   directional_derivative, f_polynomial,
                                   is_tetrahedral)
from tetravol.chamber_geometry import (CENTER, EXTREME_A, EXTREME_B,
                                      LatticeSimplex6, build_partitions,
                                      certified_chambers, midpoint)
from tetravol.exact_poly import Polynomial
from tetravol.positive_dominance import Certificate, certify, replay
from tetravol.simplex_pullback import pullback

ALL_NAMES = ["full-K4", "single-edge", "incident-pair", "opposite-pair",
             "tripod", "3-path", "4-cycle", "3-cycle"]


def test_registry_names_and_order():
    assert case_names() == ALL_NAMES


def test_registry_shape():
    for name, spec in case_registry().items():
        assert spec.beta.classify() == name
        assert spec.tasks
        for task in spec.tasks:
            assert task.simplex in spec.simplices
        for cell in spec.simplices.values():
            assert len(cell.vertices) == 6


def test_registry_cells_are_partition_cells():
    parts = build_partitions()
    chambers = {
        "single-edge": {"S1": "D_2122", "S2": "D_2112", "S3": "D_2111"},
        "incident-pair": {n: n for n in ("D_3111", "D_3112", "D_3121",
                                         "D_3122")},
        "opposite-pair": {"U1": "D_2122", "U2": "D_2121", "U3": "D_2312",
                          "U4": "D_2311"},
    }
    for name, cells in chambers.items():
        for key, dname in cells.items():
            assert case_registry()[name].simplices[key] is (
                parts.fortyeight[dname])
    # the C cells list their namesakes' vertices in the order that the
    # pinned step counts were recorded at
    for name in ("full-K4", "tripod", "3-path", "4-cycle"):
        for key, cell in case_registry()[name].simplices.items():
            twin = parts.twelve[key]
            assert set(cell.vertices) == set(twin.vertices)
            assert cell.vertices != twin.vertices


def test_labels_and_endpoints_derive_from_the_coefficients():
    want = {(1, 0): ("g", 0), (12, -1): ("12g-f", 2), (3, 1): ("3g+f", -8),
            (2, -3): ("2g-3f", 36), (1, -1): ("g-f", 24)}
    for (a, b), (label, endpoint) in want.items():
        assert CaseFunction(a, b).label == label
        assert CaseFunction(a, b).endpoint == endpoint
    # -24*7/5 is not an integer, and a g weight that is not positive
    # makes a*g + b*f >= 0 bound the other side of E
    for a, b in [(5, 7), (-1, 0)]:
        with pytest.raises(ValueError):
            CaseFunction(a, b).endpoint


def test_all_registered_curves_reproduce_their_pins():
    for name, spec in case_registry().items():
        for check in spec.curves:
            res = curve_result(spec.beta, check)
            assert res.ok, "%s: %s" % (name, check.label)


def test_symmetry_cover_matches_certified_region():
    for name in ALL_NAMES:
        cover, owed = symmetry_cover(name)
        assert cover == owed, name


def _mk_cert(status, steps, **kw):
    return Certificate(status, steps, steps, 0, 0, (0, 0, 0, 0, 0), "",
                       **kw)


def test_grade_task_rules():
    gold = CertTask("S", CaseFunction(1, 0), target=421)
    assert grade_task(gold, _mk_cert("Nonnegative", 421)) == "GOLD"
    assert grade_task(gold, _mk_cert("Nonnegative", 422)) == "PASS-WITH-NOTE"
    assert grade_task(gold, _mk_cert("NegativeWitness", 5)) == "FAIL"
    assert grade_task(gold, _mk_cert("BudgetExhausted", 10 ** 6)) == "FAIL"
    untargeted = CertTask("S", CaseFunction(1, 0))
    assert grade_task(untargeted, _mk_cert("Nonnegative", 99)) == "PASS"
    info = CertTask("S", CaseFunction(3, -3, asserted=False))
    assert grade_task(info, _mk_cert("NegativeWitness", 7)) == "INFO"


def test_run_case_three_cycle_end_to_end():
    report = run_case("3-cycle")
    assert report.passed
    assert report.chamber_count == 36
    assert report.interval == (8, 8)
    assert len(report.tasks) == 1
    task = report.tasks[0]
    assert task.status == "Nonnegative"
    assert task.steps == 1275
    assert task.grade == "GOLD"
    assert all(c.ok for c in report.curves)
    assert report.excluded == 12
    assert report.witnesses_verified == 12
    text = report.to_text()
    assert text.splitlines()[0] == "case: 3-cycle"
    assert text.splitlines()[-1] == "result: PASS"
    again = run_case("3-cycle")
    assert again.to_json() == report.to_json()
    assert again.to_text() == text


def test_three_cycle_upper_end_is_not_8():
    """E = 9 holds on B_1 and E = 721/80 fails there, so the 3-cycle's
    upper end lies in [9, 721/80).

    ``case run 3-cycle`` still prints an exact upper end of 8; the
    reports stay as they are, and this test is the record that no check
    supports that end.  B_1 splits along its three symmetry planes
    lambda_a = lambda_b of the weights at its 6-vertices A1, A2, A3
    into six pieces: the centroid, the midpoint of A_a and A_b, A_a,
    and the 8-vertices B2, B3, B4, in that order.
    """
    b1 = build_partitions().four["B_1"]
    assert b1.vertices[:3] == tuple(EXTREME_A[j] for j in (1, 2, 3))
    rest = tuple(EXTREME_B[j] for j in (2, 3, 4))
    assert b1.vertices[3:] == rest
    pieces = [LatticeSimplex6("B_1/%d%d" % (a, b),
                              (CENTER, midpoint(EXTREME_A[a], EXTREME_A[b]),
                               EXTREME_A[a]) + rest)
              for a, b in itertools.permutations((1, 2, 3), 2)]

    # tiling: each piece lies in B_1 and in exactly one ordering cone of
    # its 6-vertex weights, read through B_1's cofactor rows; the six
    # cones differ, and the volumes add up to B_1's
    orderings = set()
    for piece in pieces:
        weights = [[sum(map(operator.mul, row, v))
                    for row in b1._weight_rows[:3]] for v in piece.vertices]
        assert all(b1.contains(v) for v in piece.vertices)
        held = [order for order in itertools.permutations(range(3))
                if all(w[order[0]] >= w[order[1]] >= w[order[2]]
                       for w in weights)]
        assert len(held) == 1, piece.name
        orderings.add(held[0])
    assert len(orderings) == 6
    assert [piece.volume_scaled() for piece in pieces] == [6144] * 6
    assert b1.volume_scaled() == 36864

    beta = EdgeSubset.parse("12,13,23")
    nine = CaseFunction(8, -3)
    assert nine.endpoint == 9
    for piece in pieces:
        p = pullback(nine.polynomial(beta), piece)
        cert = certify(p)
        assert (cert.status, cert.steps, cert.max_depth) == \
            ("Nonnegative", 793, 17), piece.name
        assert replay(p, cert)

    # E = 721/80, past 9 by 1/80, is refuted on a piece
    above = pullback(CaseFunction(1920, -721).polynomial(beta), pieces[0])
    cert = certify(above)
    assert (cert.status, cert.steps) == ("NegativeWitness", 2654)
    assert cert.witness_corner < 0
    assert replay(above, cert)


def _on_segment(p, q, t):
    """(1 - t) p + t q."""
    return tuple((1 - t) * a + t * b for a, b in zip(p, q))


def test_three_cycle_upper_end_is_exactly_9():
    """E = 9 + 1/1000 fails at a point of D_1311, a certified chamber's
    cell, so with E = 9 certified on B_1 (the test above) the 3-cycle's
    upper end is exactly 9.

    On D_1311's edge from C to (8,4,4,4,4,0), f = 16384 (1-t)^3 (1+t)^3
    and 24g/f = 18/(1+t), which tends to 9 at the far vertex.
    """
    beta = EdgeSubset.parse("12,13,23")
    parts = build_partitions()
    cell = parts.fortyeight["D_1311"]
    far = (8, 4, 4, 4, 4, 0)
    assert CENTER in cell.vertices and far in cell.vertices
    assert parts.decoration_table()["D_1311"].id == "p2143b3"
    assert "p2143b3" in [d.id for d in certified_chambers(beta)]
    f, g = f_polynomial(), directional_derivative(beta)
    edge = cli._curve(CENTER, far, CENTER)
    one_minus, one_plus = cli._t_poly(1, -1), cli._t_poly(1, 1)
    f_edge = f.restrict_curve(edge)
    assert f_edge == 16384 * one_minus ** 3 * one_plus ** 3
    assert one_plus * g.restrict_curve(edge) * 24 == f_edge * 18

    point = _on_segment(CENTER, far, Fraction(9999, 10000))
    assert cell.contains(point)
    fv, gv = f.evaluate(point), g.evaluate(point)
    assert fv > 0 and 24 * gv / fv == Fraction(180000, 19999)
    # 24000 g - 9001 f >= 0 is E = 9001/1000
    assert 24000 * gv - 9001 * fv < 0


def test_three_path_ends_are_bracketed():
    """The 3-path's ends, -8 sqrt 2 and a root E* ~ 16.8693655552 of
    E^4 - 30E^3 + 267E^2 - 776E + 144 (ROADMAP item 34), lie in brackets
    [-11.31371, -11.313708] and [16.869365, 16.869366]: a certificate on
    C_21 at the inner end, and a point of the extremal edge where the
    combination at the outer end is negative.

    The upper end certifies only once its edge, v1v3, is the cell's
    last, in the vertex order (v4, v5, v2, v6, v3, v1).  The registry's
    order and its report stay as they are.
    """
    spec = case_registry()["3-path"]
    v = spec.simplices["C_21"].vertices
    f, g = f_polynomial(), directional_derivative(spec.beta)

    # a g + b f >= 0 is E = -24 b / a
    lower = pullback(g * 6000000 + f * 2828427, spec.simplices["C_21"])
    cert = certify(lower)
    assert (cert.status, cert.steps, cert.max_depth) == \
        ("Nonnegative", 2985, 70)
    assert replay(lower, cert)
    point = _on_segment(v[4], v[5], Fraction(292893, 500000))
    assert 2400000 * g.evaluate(point) + 1131371 * f.evaluate(point) < 0

    edge_last = LatticeSimplex6(
        "C_21/v1v3", tuple(v[j - 1] for j in (4, 5, 2, 6, 3, 1)))
    upper = pullback(g * 4800000 - f * 3373873, edge_last)
    cert = certify(upper)
    assert (cert.status, cert.steps, cert.max_depth) == \
        ("Nonnegative", 1507, 65)
    assert replay(upper, cert)
    point = _on_segment(v[0], v[2], Fraction(150833, 1000000))
    assert 12000000 * g.evaluate(point) - 8434683 * f.evaluate(point) < 0


def _vanishing_curves(spec):
    """spec with both weights of every curve zero, so that each curve's
    combination restricts to 0."""
    return dataclasses.replace(spec, curves=tuple(
        dataclasses.replace(check, g_weight=cli._ZERO, f_weight=cli._ZERO)
        for check in spec.curves))


@pytest.mark.parametrize("name, owner, attr, failing", [
    ("3-cycle", cli, "grade_task", lambda task, cert: "FAIL"),
    ("3-cycle", cli, "curve_result",
     lambda beta, check: CurveResult(check.label, 0, -1, 1, 1, False)),
    ("3-cycle", cli, "case_registry",
     lambda: {"3-cycle": _vanishing_curves(case_registry()["3-cycle"])}),
    ("3-cycle", cli.anticert, "verify_witness", lambda w: False),
    ("full-K4", cli.anticert, "full_k4_campaign",
     lambda trials, seed: ([None], 0)),
    ("tripod", CaseFunction, "polynomial",
     lambda func, beta: Polynomial.constant(6, 1)),
])
def test_one_failed_row_fails_the_case(monkeypatch, name, owner, attr,
                                       failing):
    # certify every task in one step, so that only the row under test fails
    monkeypatch.setattr(cli, "pullback", lambda p, cell: p)
    monkeypatch.setattr(cli, "certify", lambda p: _mk_cert("Nonnegative", 1))
    assert run_case(name).passed
    monkeypatch.setattr(owner, attr, failing)
    report = run_case(name)
    assert not report.passed
    assert report.to_text().splitlines()[-1] == "result: FAIL"


def test_a_curve_whose_combination_vanishes_fails():
    spec = _vanishing_curves(case_registry()["3-cycle"])
    for check in spec.curves:
        res = curve_result(spec.beta, check)
        assert (res.coefficient, res.degree, res.ok) == (0, -1, False)


# -- monotonicity and root properties ------------------------------------

def test_random_tetrahedral_generates_valid_inputs():
    rng = random.Random(0)
    for _ in range(25):
        d = random_tetrahedral(rng)
        assert is_tetrahedral(d)
        assert all(1 <= v <= 100 for v in d)


def randint_tetrahedral(rng, max_entry):
    """Six ``randint`` draws per try: the oracle for ``random_tetrahedral``.

    It decides tetrahedrality on its own, by the face inequalities read
    off FACES and the bordered determinant, not by the closed form.
    """
    while True:
        d = tuple(rng.randint(1, max_entry) for _ in range(6))
        if all(d[i] + d[j] > d[k] and d[i] + d[k] > d[j]
               and d[j] + d[k] > d[i] for i, j, k in FACES.values()) \
                and f_value_bordered(d) > 0:
            return d


class BoundedRandom(random.Random):
    """A ``random.Random`` whose ``getrandbits`` raises after limit calls.

    A draw loop whose face test never accepts, as at ``max_entry`` 1 if
    the all-ones list were rejected, then fails instead of hanging.
    """

    def __init__(self, seed, limit):
        super().__init__(seed)
        self.limit = limit
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > self.limit:
            raise RuntimeError("more than %d getrandbits calls" % self.limit)
        return super().getrandbits(k)


# bounds of one, two and several bits, and draws that take more than
# one 32-bit word of the generator
@pytest.mark.parametrize("max_entry", [1, 2, 3, 7, 50, 64, 100, 128,
                                       2 ** 31 + 1, 2 ** 32, 2 ** 40])
def test_random_tetrahedral_draws_the_randint_stream(max_entry):
    # the lists and the generator's state afterwards, over several seeds;
    # twelve lists take at most 1,932 calls on these seeds
    for seed in (0, 1, 7, 2501):
        want, got = random.Random(seed), BoundedRandom(seed, 20_000)
        for _ in range(12):
            assert random_tetrahedral(got, max_entry) == \
                randint_tetrahedral(want, max_entry)
        assert got.getstate() == want.getstate()


@pytest.mark.parametrize("max_entry", [2, 3, 4, 5, 100])
def test_random_tetrahedral_draws_the_randint_stream_at_tight_bounds(
        max_entry):
    # small bounds put many draws on a face boundary, |a - b| = c or
    # c = a + b, where an off-by-one in the raw-draw face test shows;
    # 2,000 lists take at most 167,515 calls at these bounds
    want, got = random.Random(max_entry), BoundedRandom(max_entry, 2_000_000)
    for _ in range(2000):
        assert random_tetrahedral(got, max_entry) == \
            randint_tetrahedral(want, max_entry)
    assert got.getstate() == want.getstate()


def test_random_tetrahedral_needs_a_positive_bound():
    with pytest.raises(ValueError):
        random_tetrahedral(random.Random(0), 0)


def test_lengthening_grows_normalized_volume():
    rng = random.Random(1)
    for _ in range(20):
        d = random_tetrahedral(rng)
        assert lengthen_check(d)
        assert lengthen_margin(d) >= 0


def test_lengthening_is_tight_exactly_on_regular_inputs():
    for a in (1, 2, 3, 7):
        assert lengthen_margin((a,) * 6) == 0
    assert lengthen_margin((4, 4, 4, 4, 4, 5)) > 0


def test_longer_steps_keep_the_margin_nonnegative():
    rng = random.Random(2)
    for _ in range(10):
        d = random_tetrahedral(rng)
        for t in (1, 2, 5):
            assert lengthen_margin(d, t) >= 0


def test_lengthen_check_evaluates_f_once_per_list(monkeypatch):
    def four_evaluations(d, t):
        # the earlier form: f at both lists for the tetrahedral tests,
        # then at both again for the margin
        if not is_tetrahedral(d):
            raise ValueError(d)
        grown = tuple(x + t for x in d)
        return is_tetrahedral(grown) and lengthen_margin(d, t) >= 0

    rng = random.Random(14)
    cases = []
    for i in range(300):
        d = random_tetrahedral(rng)
        if i % 3 == 0:
            d = tuple(Fraction(x, 7) for x in d)
        # shrinking steps make some grown lists degenerate
        cases.append((d, (1, 2, Fraction(1, 3), -1, -9)[i % 5]))
    want = [four_evaluations(d, t) for d, t in cases]
    assert 0 < sum(want) < len(want)
    f_hat_value, calls = cayley_menger.f_hat_value, []

    def counted(s):
        calls.append(s)
        return f_hat_value(s)

    monkeypatch.setattr(cayley_menger, "f_hat_value", counted)
    for (d, t), ok in zip(cases, want):
        calls.clear()
        assert lengthen_check(d, t) == ok
        # f at d, then at d + t unless a face or sign test rejects it
        assert len(calls) == 2 or (len(calls) == 1 and not ok)
        if t > 0:
            assert len(calls) == 2
    with pytest.raises(ValueError):
        lengthen_check((1, 1, 1, 1, 1, 5))


def _root_triangle(x, y, z):
    """Decide sqrt(x) < sqrt(y) + sqrt(z) exactly on nonnegative ints."""
    d = x - y - z
    if d < 0:
        return True
    return d * d < 4 * y * z


def _root_faces_by_cases(s):
    """The oracle: each face's three square-root triangle inequalities,
    each decided by the case split of ``_root_triangle``."""
    return all(_root_triangle(s[i], s[j], s[k])
               and _root_triangle(s[j], s[k], s[i])
               and _root_triangle(s[k], s[i], s[j])
               for i, j, k in FACES.values())


def _margin_by_expanded_f(d, t):
    """The oracle for lengthen_margin: f from the expanded polynomial."""
    f, s = cayley_menger.f_polynomial(), sum(d)
    return (f.evaluate(tuple(x + t for x in d)) * s ** 6
            - f.evaluate(d) * (s + 6 * t) ** 6)


def test_root_triangle_is_exact_near_the_boundary():
    assert _root_triangle(3, 1, 1)
    assert not _root_triangle(4, 1, 1)
    big = 10 ** 12
    for x, holds in ((4 * big - 1, True), (4 * big, False),
                     (4 * big + 1, False)):
        assert _root_triangle(x, big, big) == holds
        # x in each slot, so on two faces with the sides big and big
        for k in range(6):
            s = [big] * 6
            s[k] = x
            assert root_face_conditions(s) == holds == _root_faces_by_cases(s)


def test_heron_faces_equal_the_case_split_on_small_entries():
    held = 0
    for s in itertools.product(range(8), repeat=6):
        want = _root_faces_by_cases(s)
        assert root_face_conditions(s) == want, s
        held += want
    assert 0 < held < 8 ** 6


def test_lengthen_margin_equals_the_expanded_polynomial_form():
    rng = random.Random(15)
    for i in range(200):
        d = random_tetrahedral(rng)
        if i % 2:
            d = tuple(Fraction(x, 7) for x in d)
        for t in (1, 2, Fraction(1, 3), -1):
            assert lengthen_margin(d, t) == _margin_by_expanded_f(d, t)


def test_root_conditions_on_random_tetrahedra():
    rng = random.Random(3)
    for _ in range(15):
        d = random_tetrahedral(rng)
        assert root_list_check(d)
        assert root_face_conditions(tuple(v * v for v in d))


def test_quadrature_combination():
    rng = random.Random(4)
    for _ in range(12):
        a = random_tetrahedral(rng)
        b = random_tetrahedral(rng)
        assert quadrature_check(a, b)


def test_quadrature_rejects_degenerate_first_argument():
    flat = (1, 1, 1, 1, 1, 4)
    assert not is_tetrahedral(flat)
    with pytest.raises(ValueError):
        quadrature_check(flat, (1, 1, 1, 1, 1, 1))
