"""Acceptance gate: one pass/fail line per recorded criterion.

Each test prints a single summary line tagged PASS or FAIL and then
asserts, so `pytest -v` doubles as the acceptance report. Two recorded
constants could not be reproduced from exact arithmetic and are called
out on their lines; the certified inequalities behind them hold either
way and the discrepancies are noted in the case registry.
"""

import dataclasses
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from tetravol import case_suite_cli
from tetravol.anti_certification import read_witnesses, verify_witness
from tetravol.case_suite_cli import (
    case_names, case_registry, lengthen_check, lengthen_margin,
    quadrature_check, random_tetrahedral, root_list_check, run_case,
)
from tetravol.cayley_menger import (
    EdgeSubset, directional_derivative, f_polynomial, is_tetrahedral,
)
from tetravol.chamber_geometry import (
    build_partitions, partition_check, verify_barycenter_conditions,
)
from tetravol.positive_dominance import certify, replay
from tetravol.simplex_pullback import pullback


def _line(criterion, ok, detail):
    print("%s: %s - %s" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (criterion, detail)


@pytest.fixture(scope="module")
def suite_run():
    """Every case's report, and every certificate it made, in task order."""
    certs = {}

    def recording_certify(p, *args, **kwargs):
        cert = certify(p, *args, **kwargs)
        certs.setdefault(name, []).append(cert)
        return cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(case_suite_cli, "certify", recording_certify)
        reports = {}
        for name in case_names():
            reports[name] = run_case(name)
    return reports, certs


@pytest.fixture(scope="module")
def suite_reports(suite_run):
    return suite_run[0]


def test_criterion_01_exact_evaluations():
    f = f_polynomial()
    g = directional_derivative(EdgeSubset.full())
    got = (f.evaluate((4,) * 6), g.evaluate((4,) * 6),
           f.evaluate((6, 3, 3, 3, 3, 6)),
           g.evaluate((6, 3, 3, 3, 3, 6)))
    want = (16384, 24576, -93312, -62208)
    _line("criterion 1", got == want,
          "f/g values at the center and the A-midpoint: %s" % (got,))


def test_criterion_02_flagship_pair(suite_reports):
    tasks = suite_reports["full-K4"].tasks
    ok = (len(tasks) == 2
          and all(t.status == "Nonnegative" for t in tasks)
          and [t.steps for t in tasks] == [7455, 1173]
          and all(t.grade == "GOLD" for t in tasks))
    _line("criterion 2", ok,
          "full-K4 combinations certify in %s steps (targets 7455/1173)"
          % [t.steps for t in tasks])


def test_criterion_03_case_certifications(suite_reports):
    asserted = gold = noted = 0
    bad = []
    for name, report in suite_reports.items():
        for t in report.tasks:
            if t.grade == "INFO":
                continue
            asserted += 1
            if t.status != "Nonnegative":
                bad.append((name, t.function))
            if t.grade == "GOLD":
                gold += 1
            elif t.grade == "PASS-WITH-NOTE":
                noted += 1
    ok = not bad and asserted == gold + noted
    _line("criterion 3", ok,
          "%d asserted certifications Nonnegative; %d match recorded "
          "counts, %d carry count notes (see case notes)"
          % (asserted, gold, noted))


def test_criterion_04_sharpness_curves(suite_reports):
    results = {}
    for report in suite_reports.values():
        for c in report.curves:
            results[c.label] = (c.coefficient, c.degree, c.ok)
    ok = bool(results) and all(v[2] for v in results.values())
    recorded_exact = sum(
        1 for v in results.values() if v[:2] in
        [(-342144, 3), (-2097152, 7), (-8192, 1), (-8388608, 7),
         (-497664, 5), (663552, 6)])
    _line("criterion 4", ok,
          "%d/%d curve pins reproduce; %d equal the recorded constants "
          "verbatim; one recorded term (-57344 t^5) reconciles to "
          "-8192 t^9 and one (-2097152 t^7) is the t-weighted volume "
          "term, both noted in their cases"
          % (sum(v[2] for v in results.values()), len(results),
             recorded_exact))


def test_full_k4_campaign_report_shape(suite_reports):
    report = suite_reports["full-K4"]
    assert report.campaign.keys() == {"trials", "witnesses", "prescreen"}
    assert report.campaign["witnesses"] == 0
    assert [t.grade for t in report.tasks] == ["GOLD", "GOLD"]
    assert [t.steps for t in report.tasks] == [7455, 1173]


def test_report_json_keys_are_the_result_record_fields(suite_reports):
    """A field added to a result record shows up here before it can leak
    into ``--json`` unnoticed."""
    keys = {"tasks": {"simplex", "function", "status", "steps", "target",
                      "grade", "corner"},
            "curves": {"label", "coefficient", "degree",
                       "expected_coefficient", "expected_degree", "ok"},
            "identities": {"label", "value", "expected", "ok"}}
    seen = dict.fromkeys(keys, 0)
    for report in suite_reports.values():
        payload = report.to_json()
        for part, want in keys.items():
            for row in payload[part]:
                assert row.keys() == want, (report.name, part)
                seen[part] += 1
    assert seen == {"tasks": 36, "curves": 7, "identities": 4}


def test_criterion_05_anti_certification(suite_reports):
    ws = read_witnesses()
    signs = all(w.f_value > 0 and w.g_value < 0 for w in ws)
    reverified = all(verify_witness(w) for w in ws)
    coverage = all(
        r.campaign is not None or r.witnesses_verified == r.excluded
        for r in suite_reports.values())
    campaign = suite_reports["full-K4"].campaign
    empty = (campaign["trials"] == 100000 and campaign["witnesses"] == 0)
    ok = signs and reverified and coverage and len(ws) == 216 and empty
    _line("criterion 5", ok,
          "216 excluded-chamber witnesses have f>0, g<0 and reverify; "
          "full-K4 search finds none in %d trials" % campaign["trials"])


def test_criterion_06_partition_integrity():
    parts = build_partitions()
    volumes = [sum(s.volume_scaled() for s in cells.values())
               for cells in (parts.three, parts.four, parts.twelve,
                             parts.fortyeight)]
    additive = volumes == [147456] * 4
    cover = partition_check(samples=10000, seed=0, cross_check=200)
    bary = verify_barycenter_conditions()
    identities = (bary["face_equality_holds"] and bary["vertex_tie_holds"]
                  and bary["extrema_average_to_center"])
    ok = additive and cover["ok"] and identities
    _line("criterion 6", ok,
          "volume additivity %s, 10000-point coverage misses %d, "
          "barycenter identities %s"
          % (additive, sum(cover["misses"].values()), identities))


def test_criterion_07_lengthening_suite():
    rng = random.Random(0)
    failures = 0
    for _ in range(1000):
        d = random_tetrahedral(rng)
        if not lengthen_check(d):
            failures += 1
    regular = all(lengthen_margin((a,) * 6) == 0 for a in (1, 2, 3, 7))
    ok = failures == 0 and regular
    _line("criterion 7", ok,
          "1000 random lengthenings certify, %d failures; regular lists "
          "hit equality exactly" % failures)


def test_criterion_08_appendix_suite():
    rng = random.Random(0)
    quad_fail = root_fail = 0
    for _ in range(500):
        a = random_tetrahedral(rng, 50)
        b = random_tetrahedral(rng, 50)
        if not quadrature_check(a, b):
            quad_fail += 1
        if not root_list_check(a):
            root_fail += 1
    ok = quad_fail == 0 and root_fail == 0
    _line("criterion 8", ok,
          "500 quadrature pairs and 500 root lists pass "
          "(%d/%d failures)" % (quad_fail, root_fail))


def _rational_simplex_points(rng, cell, n):
    out = []
    for _ in range(n):
        raw = [rng.randint(0, 1000) for _ in range(6)]
        total = sum(raw) or 1
        lam = [Fraction(r, total) for r in raw]
        out.append(tuple(
            sum(w * v[k] for w, v in zip(lam, cell.vertices))
            for k in range(6)))
    return out


def test_criterion_09_soundness_harness(suite_reports):
    rng = random.Random(0)
    f = f_polynomial()
    checked = violations = 0
    for name, spec in case_registry().items():
        g = directional_derivative(spec.beta)
        tasks = [t for t in spec.tasks if t.func.asserted]
        per_task = -(-200 // len(tasks))
        for task in tasks:
            comb = g * task.func.g_coeff + f * task.func.f_coeff
            cell = spec.simplices[task.simplex]
            for z in _rational_simplex_points(rng, cell, per_task):
                checked += 1
                if comb.evaluate(z) < 0:
                    violations += 1
    # the one informational run ends in a negative corner; re-derive it
    spec = case_registry()["3-path"]
    info = next(t for t in spec.tasks if not t.func.asserted)
    p = pullback(info.func.polynomial(spec.beta),
                 spec.simplices[info.simplex])
    cert = certify(p)
    witness_ok = (cert.status == "NegativeWitness"
                  and cert.witness_corner < 0
                  and replay(p, cert)
                  and p.evaluate((0,) * 5) == cert.witness_corner)
    ok = violations == 0 and checked >= 1600 and witness_ok
    _line("criterion 9", ok,
          "%d rational sample points all satisfy the certified "
          "inequalities (%d violations); the informational negative run "
          "re-derives corner value %d" % (checked, violations,
                                          cert.witness_corner))


def test_criterion_10_determinism(suite_reports):
    second = {name: run_case(name) for name in case_names()}
    ok = True
    for name in case_names():
        a, b = suite_reports[name], second[name]
        if a.to_text() != b.to_text():
            ok = False
        if json.dumps(a.to_json(), sort_keys=True) != json.dumps(
                b.to_json(), sort_keys=True):
            ok = False
    _line("criterion 10", ok,
          "two sequential suite runs produce byte-identical text and "
          "JSON reports for all %d cases" % len(case_names()))


CASE_TEXTS = (Path(__file__).resolve().parents[1] / "perfbench" /
              "reference" / "case_texts.json")


def test_reports_match_the_recorded_case_texts(suite_reports):
    """Every report, curve lines included, equals its recorded text."""
    recorded = json.loads(CASE_TEXTS.read_text())
    assert {name: r.to_text() for name, r in suite_reports.items()} == \
        recorded


CERTIFICATES = CASE_TEXTS.with_name("certificates.json")


def test_certificates_match_the_recorded_bundle(suite_run):
    """Every certificate of the suite, action string included, equals its
    recorded one field for field."""
    recorded = json.loads(CERTIFICATES.read_text())
    got = {}
    for name, certs in suite_run[1].items():
        tasks = case_registry()[name].tasks
        assert len(certs) == len(tasks)
        for task, cert in zip(tasks, certs):
            key = "%s/%s/%s" % (name, task.simplex, task.func.label)
            got[key] = dataclasses.asdict(cert)
    for rec in recorded.values():
        # run-length encoded: "S3W2N" is "SSSWWN"
        rec["actions"] = "".join(
            ch * int(n or 1)
            for ch, n in re.findall(r"([NSW])(\d*)", rec["actions"]))
        rec["histogram"] = tuple(rec["histogram"])
    assert got == recorded
