"""Registry integrity, one full case run, and the property suites."""

import random
from fractions import Fraction

import pytest

from tetravol.case_suite_cli import (
    CaseFunction, CertTask, case_names, case_registry, curve_result,
    grade_task, lengthen_check, lengthen_margin, quadrature_check,
    random_tetrahedral, root_face_conditions, root_list_check, run_case,
    symmetry_cover, _root_triangle,
)
from tetravol.cayley_menger import is_tetrahedral
from tetravol.chamber_geometry import certified_chambers
from tetravol.exact_poly import Polynomial
from tetravol.positive_dominance import Certificate

ALL_NAMES = ["full-K4", "single-edge", "incident-pair", "opposite-pair",
             "tripod", "3-path", "4-cycle", "3-cycle"]


def test_registry_names_and_order():
    assert case_names() == ALL_NAMES


def test_registry_shape():
    for name, spec in case_registry().items():
        assert spec.name == name
        assert spec.beta.classify() == name
        assert spec.chamber_count == len(certified_chambers(spec.beta))
        assert spec.tasks
        for task in spec.tasks:
            assert task.simplex in spec.simplices
        for cell in spec.simplices.values():
            assert len(cell.vertices) == 6


def test_every_endpoint_is_consistent():
    for spec in case_registry().values():
        for task in spec.tasks:
            assert task.func.endpoint_consistent(), task.func.label


def test_interval_bounds_come_from_task_endpoints():
    for spec in case_registry().values():
        endpoints = {t.func.endpoint for t in spec.tasks
                     if t.func.asserted and t.func.endpoint is not None}
        lo, hi = spec.interval
        assert lo in endpoints
        assert hi in endpoints
        assert lo <= hi


def test_endpoint_consistency_unit():
    assert CaseFunction("a", 2, -3, endpoint=36).endpoint_consistent()
    assert not CaseFunction("b", 2, -1, endpoint=11).endpoint_consistent()
    assert not CaseFunction("c", -1, 0, endpoint=0).endpoint_consistent()
    assert CaseFunction("d", 5, 7).endpoint_consistent()


def test_all_registered_curves_reproduce_their_pins():
    for spec in case_registry().values():
        for check in spec.curves:
            res = curve_result(spec.beta, check)
            assert res.ok, "%s: %s" % (spec.name, check.label)


def test_symmetry_cover_matches_certified_region():
    for name in ALL_NAMES:
        cover, owed = symmetry_cover(name)
        assert cover == owed, name


def _mk_cert(status, steps, **kw):
    return Certificate(status, steps, steps, 0, 0, (0, 0, 0, 0, 0), "",
                       **kw)


def test_grade_task_rules():
    gold = CertTask("S", CaseFunction("g", 1, 0, endpoint=0), target=421)
    assert grade_task(gold, _mk_cert("Nonnegative", 421)) == "GOLD"
    assert grade_task(gold, _mk_cert("Nonnegative", 422)) == "PASS-WITH-NOTE"
    assert grade_task(gold, _mk_cert("NegativeWitness", 5)) == "FAIL"
    assert grade_task(gold, _mk_cert("BudgetExhausted", 10 ** 6)) == "FAIL"
    untargeted = CertTask("S", CaseFunction("g", 1, 0, endpoint=0))
    assert grade_task(untargeted, _mk_cert("Nonnegative", 99)) == "PASS"
    info = CertTask("S", CaseFunction("x", 3, -3, asserted=False))
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


def test_full_k4_campaign_report_shape():
    report = run_case("full-K4", campaign_trials=300)
    assert report.passed
    assert report.campaign == {"trials": 300, "witnesses": 0,
                               "prescreen": 0}
    assert [t.grade for t in report.tasks] == ["GOLD", "GOLD"]
    assert [t.steps for t in report.tasks] == [7455, 1173]


# -- monotonicity and root properties ------------------------------------

def test_random_tetrahedral_generates_valid_inputs():
    rng = random.Random(0)
    for _ in range(25):
        d = random_tetrahedral(rng)
        assert is_tetrahedral(d)
        assert all(1 <= v <= 100 for v in d)


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
    evaluate, calls = Polynomial.evaluate, []

    def counted(self, point):
        calls.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(Polynomial, "evaluate", counted)
    for (d, t), ok in zip(cases, want):
        calls.clear()
        assert lengthen_check(d, t) == ok
        # f at d, then at d + t unless a face or sign test rejects it
        assert len(calls) == 2 or (len(calls) == 1 and not ok)
        if t > 0:
            assert len(calls) == 2
    with pytest.raises(ValueError):
        lengthen_check((1, 1, 1, 1, 1, 5))


def test_root_triangle_is_exact_near_the_boundary():
    assert _root_triangle(3, 1, 1)
    assert not _root_triangle(4, 1, 1)
    big = 10 ** 12
    assert _root_triangle(4 * big - 1, big, big)
    assert not _root_triangle(4 * big, big, big)
    assert not _root_triangle(4 * big + 1, big, big)


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
