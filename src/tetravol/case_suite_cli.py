"""Pinned lengthening cases, property suites, and the command line.

Each named case bundles one edge subset with the simplices, certified
combinations a*g + b*f, recorded step counts, sharpness curves, corner
identities and witness obligations that together establish its
selective-lengthening statement.  The certified inequalities are the
claims; step counts are bookkeeping, so reproducing a recorded count
exactly grades GOLD while a Nonnegative result with a different count
grades PASS-WITH-NOTE and never fails a run.
"""

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, field

from . import anti_certification as anticert
from .cayley_menger import (EdgeSubset, FACES, directional_derivative,
                            f_hat_polynomial, f_polynomial, is_tetrahedral,
                            tetrahedral_f)
from .chamber_geometry import (A_MID, B_MID, CENTER, EXTREME_A, EXTREME_B,
                               LatticeSimplex6, build_partitions,
                               certified_chambers, chambers_containing,
                               decoration, in_cone, partition_check,
                               stabilizer, verify_barycenter_conditions)
from .exact_poly import Polynomial
from .positive_dominance import certify
from .simplex_pullback import pullback


# -- case registry -------------------------------------------------------

@dataclass(frozen=True)
class CaseFunction:
    """A combination gc*g + fc*f with its interval endpoint, if any.

    A combination a*g + b*f with a > 0 corresponds to the endpoint
    E = -24*b/a of the admissible interval; endpoint None marks
    combinations recorded for information only.
    """

    label: str
    g_coeff: int
    f_coeff: int
    endpoint: int = None
    asserted: bool = True

    def polynomial(self, beta):
        g = directional_derivative(beta)
        f = f_polynomial()
        return g * self.g_coeff + f * self.f_coeff

    def endpoint_consistent(self):
        if self.endpoint is None:
            return True
        return (self.g_coeff > 0
                and -self.endpoint * self.g_coeff == 24 * self.f_coeff)


@dataclass(frozen=True)
class CertTask:
    simplex: str
    func: CaseFunction
    target: int = None


@dataclass(frozen=True)
class CurveCheck:
    """A curve into one simplex on which a t-weighted combination dips.

    coords are six 1-variable Polynomials in t; the check restricts
    wg*g + wf*f along them and pins the lowest-degree nonzero term.
    """

    label: str
    coords: tuple
    g_weight: Polynomial
    f_weight: Polynomial
    expected_coeff: int
    expected_degree: int


@dataclass(frozen=True)
class Identity:
    label: str
    point: tuple
    g_coeff: int
    f_coeff: int
    expected: int = 0


@dataclass(frozen=True)
class CaseSpec:
    name: str
    beta: EdgeSubset
    simplices: dict
    tasks: tuple
    curves: tuple = ()
    identities: tuple = ()
    interval: tuple = (None, None)
    interval_exact: tuple = (True, True)
    chamber_count: int = 0
    campaign_trials: int = 0
    note: str = ""


def _t_poly(*coeffs):
    """c0 + c1 t + c2 t^2 + ... as a 1-variable Polynomial in t."""
    return Polynomial(1, {(k,): c for k, c in enumerate(coeffs)})


def _line(p, q):
    """(1-t)p + tq as six coordinates in t."""
    return tuple(_t_poly(p[c], q[c] - p[c]) for c in range(6))


def _square(p, q):
    """(1-t^2)p + t^2 q."""
    return tuple(_t_poly(p[c], 0, q[c] - p[c]) for c in range(6))


def _bend(p, q, r):
    """(1-t-t^2)p + tq + t^2 r."""
    return tuple(_t_poly(p[c], q[c] - p[c], r[c] - p[c]) for c in range(6))


def _fixed(p):
    return tuple(_t_poly(p[c]) for c in range(6))


_ONE = _t_poly(1)
_ZERO = _t_poly(0)
_T = _t_poly(0, 1)

@functools.cache
def case_registry():
    """The eight pinned cases, keyed by edge-subset type name."""
    C = CENTER
    A1, A2, A3 = EXTREME_A[1], EXTREME_A[2], EXTREME_A[3]
    B1, B2, B3, B4 = (EXTREME_B[j] for j in (1, 2, 3, 4))
    A13 = A_MID[(1, 3)]
    B24 = B_MID[(2, 4)]
    parts = build_partitions()
    specs = []

    c11 = LatticeSimplex6("C_11", (C, B2, B3, B4, A2, A3))
    specs.append(CaseSpec(
        name="full-K4",
        beta=EdgeSubset.full(),
        simplices={"C_11": c11},
        tasks=(
            CertTask("C_11", CaseFunction("2g-3f", 2, -3, endpoint=36), 7455),
            CertTask("C_11", CaseFunction("3g-2f", 3, -2, endpoint=16), 1173),
        ),
        interval=(16, 36),
        chamber_count=48,
        campaign_trials=100000,
        note="one cell per transporter orbit; relabelings cover all 48 "
             "chambers",
    ))

    single = {
        "S1": LatticeSimplex6("S1", (C, B3, B24, A13, B2, A1)),
        "S2": LatticeSimplex6("S2", (C, B3, B24, A13, B4, A1)),
        "S3": LatticeSimplex6("S3", (C, B3, B24, A13, B4, A3)),
    }
    p_single = CaseFunction("g", 1, 0, endpoint=0)
    q_single = CaseFunction("12g-f", 12, -1, endpoint=2)
    specs.append(CaseSpec(
        name="single-edge",
        beta=EdgeSubset.parse("12"),
        simplices=single,
        tasks=(
            CertTask("S1", p_single, 421),
            CertTask("S2", p_single, 421),
            CertTask("S3", p_single, 427),
            CertTask("S1", q_single, 457),
            CertTask("S2", q_single, 469),
            CertTask("S3", q_single, 617),
        ),
        curves=(
            CurveCheck("g + t f on (1-t)A1 + t A13", _line(A1, A13),
                       _ONE, _T, -342144, 3),
            CurveCheck("(12-t)g - f on (1-t^2)B2 + t^2 C", _square(B2, C),
                       _t_poly(12, -1), -_ONE, -8192, 9),
        ),
        interval=(0, 2),
        chamber_count=12,
        note="the recorded constant for the second curve was -57344 t^5; "
             "the exact restriction starts at -8192 t^9 instead, still "
             "negative near 0, so the upper endpoint stays pinned",
    ))

    pair_cells = ("D_3111", "D_3112", "D_3121", "D_3122")
    p_pair = CaseFunction("g", 1, 0, endpoint=0)
    q_pair = CaseFunction("2g-f", 2, -1, endpoint=12)
    r_pair = CaseFunction("3g+f", 3, 1, endpoint=-8)
    A12 = A_MID[(1, 2)]
    specs.append(CaseSpec(
        name="incident-pair",
        beta=EdgeSubset.parse("12,13"),
        simplices={n: parts.fortyeight[n] for n in pair_cells},
        tasks=tuple(CertTask(n, p_pair, 421) for n in pair_cells)
        + tuple(CertTask(n, q_pair, 479) for n in pair_cells)
        + tuple(CertTask(n, r_pair, 489) for n in pair_cells),
        curves=(
            CurveCheck("t f on (1-t-t^2)B2 + t B3 + t^2 B24",
                       _bend(B2, B3, B24), _ZERO, _T, -2097152, 7),
            CurveCheck("(2-t)g - f at the center", _fixed(C),
                       _t_poly(2, -1), -_ONE, -8192, 1),
        ),
        identities=(
            Identity("3g + f at the A1A2 midpoint", A12, 3, 1),
        ),
        interval=(-8, 12),
        chamber_count=4,
        note="the recorded interval starts at 0, but 3g+f is certified "
             "nonnegative and vanishes at the A1A2 midpoint corner, so "
             "the admissible range reaches -8 exactly; the first curve "
             "pins the recorded t-weighted volume term, while the full "
             "combination g + t f starts at +1048576 t^4 and does not dip",
    ))

    opp = {
        "U1": LatticeSimplex6("U1", (C, B3, B24, A13, B2, A1)),
        "U2": LatticeSimplex6("U2", (C, B3, B24, A13, B2, A3)),
        "U3": LatticeSimplex6("U3", (C, B1, B24, A13, B2, A1)),
        "U4": LatticeSimplex6("U4", (C, B1, B24, A13, B2, A3)),
    }
    p_opp = CaseFunction("g", 1, 0, endpoint=0)
    q_opp = CaseFunction("6g-f", 6, -1, endpoint=4)
    specs.append(CaseSpec(
        name="opposite-pair",
        beta=EdgeSubset.parse("12,34"),
        simplices=opp,
        tasks=(
            CertTask("U1", p_opp, 473),
            CertTask("U2", p_opp, 473),
            CertTask("U3", p_opp, 331),
            CertTask("U4", p_opp, 331),
            CertTask("U1", q_opp, 467),
            CertTask("U2", q_opp, 467),
            CertTask("U3", q_opp, 1161),
            CertTask("U4", q_opp, 1161),
        ),
        interval=(0, 4),
        interval_exact=(True, False),
        chamber_count=32,
        note="recorded counts follow the published pairing; this vertex "
             "order reproduces them under the swap U2 <-> U3, with 1161 "
             "read as 1151",
    ))

    c21 = LatticeSimplex6("C_21", (C, B3, B2, B4, A1, A3))
    specs.append(CaseSpec(
        name="tripod",
        beta=EdgeSubset.parse("12,13,14"),
        simplices={"C_21": c21},
        tasks=(
            CertTask("C_21", CaseFunction("4g-3f", 4, -3, endpoint=18), 967),
            CertTask("C_21", CaseFunction("3g-f", 3, -1, endpoint=8), 779),
        ),
        identities=(
            Identity("4g - 3f at the center", C, 4, -3),
            Identity("3g - f at A3", A3, 3, -1),
        ),
        interval=(8, 18),
        chamber_count=12,
    ))

    specs.append(CaseSpec(
        name="3-path",
        beta=EdgeSubset.parse("12,14,23"),
        simplices={"C_21": c21},
        tasks=(
            CertTask("C_21", CaseFunction("4g+f", 4, 1, endpoint=-6), 823),
            CertTask("C_21", CaseFunction("3g-2f", 3, -2, endpoint=16), 1243),
            CertTask("C_21", CaseFunction("3g-3f", 3, -3, asserted=False)),
        ),
        interval=(-6, 16),
        interval_exact=(False, False),
        chamber_count=8,
        note="recorded counts not reproduced at this vertex order (1243 "
             "and 1705 here); 3g - 3f is negative at the center and is "
             "kept as an informational witness run",
    ))

    c31 = LatticeSimplex6("C_31", (C, B4, B2, B3, A1, A2))
    specs.append(CaseSpec(
        name="4-cycle",
        beta=EdgeSubset.parse("12,13,24,34"),
        simplices={"C_31": c31},
        tasks=(
            CertTask("C_31", CaseFunction("g", 1, 0, endpoint=0), 755),
            CertTask("C_31", CaseFunction("g-f", 1, -1, endpoint=24), 1687),
        ),
        curves=(
            CurveCheck("g + t f on (1-t-t^2)B4 + t B2 + t^2 B3",
                       _bend(B4, B2, B3), _ONE, _T, -8388608, 7),
        ),
        identities=(
            Identity("g - f at the center", C, 1, -1),
        ),
        interval=(0, 24),
        chamber_count=16,
    ))

    specs.append(CaseSpec(
        name="3-cycle",
        beta=EdgeSubset.parse("12,13,23"),
        simplices={"B_1": parts.four["B_1"]},
        tasks=(
            CertTask("B_1", CaseFunction("3g-f", 3, -1, endpoint=8), 1275),
        ),
        curves=(
            CurveCheck("(3+t)g - f on (1-t^2)A1 + t^2 A2", _square(A1, A2),
                       _t_poly(3, 1), -_ONE, -497664, 5),
            CurveCheck("(3-t)g - f on (1-t-t^2)B2 + t A1 + t^2 A2",
                       _bend(B2, A1, A2), _t_poly(3, -1), -_ONE,
                       663552, 6),
        ),
        interval=(8, 8),
        chamber_count=36,
    ))

    return {s.name: s for s in specs}


def case_names():
    return list(case_registry())


# -- case execution ------------------------------------------------------

@dataclass
class TaskResult:
    simplex: str
    func: str
    status: str
    steps: int
    target: int
    grade: str
    corner: int = None


@dataclass
class CurveResult:
    label: str
    coeff: int
    degree: int
    expected_coeff: int
    expected_degree: int
    ok: bool


@dataclass
class IdentityResult:
    label: str
    value: int
    expected: int
    ok: bool


@dataclass
class CaseReport:
    name: str
    edges: str
    chamber_count: int
    interval: tuple
    interval_exact: tuple
    tasks: list = field(default_factory=list)
    curves: list = field(default_factory=list)
    identities: list = field(default_factory=list)
    excluded: int = 0
    witnesses_verified: int = 0
    campaign: dict = None
    note: str = ""
    passed: bool = True

    def to_text(self):
        lines = ["case: %s" % self.name,
                 "edges: %s" % self.edges,
                 "chambers: %d" % self.chamber_count]
        lo, hi = self.interval
        tags = tuple("exact" if e else "bound" for e in self.interval_exact)
        lines.append("interval: [%s, %s] (lower %s, upper %s)"
                     % (lo, hi, tags[0], tags[1]))
        lines.append("certification:")
        for t in self.tasks:
            bits = ["  %s %s: %s" % (t.simplex, t.func, t.status)]
            if t.status == "NegativeWitness":
                bits.append("corner=%d" % t.corner)
            else:
                bits.append("steps=%d" % t.steps)
            if t.target is not None:
                bits.append("target=%d" % t.target)
            bits.append(t.grade)
            lines.append(" ".join(bits))
        if self.curves:
            lines.append("curves:")
            for c in self.curves:
                lines.append("  %s: %+d t^%d (expected %+d t^%d) %s"
                             % (c.label, c.coeff, c.degree, c.expected_coeff,
                                c.expected_degree, "ok" if c.ok else "FAIL"))
        if self.identities:
            lines.append("identities:")
            for i in self.identities:
                lines.append("  %s: %d (expected %d) %s"
                             % (i.label, i.value, i.expected,
                                "ok" if i.ok else "FAIL"))
        if self.campaign is not None:
            lines.append("anti-certification: %d trials, %d witnesses, "
                         "%d float candidates rejected"
                         % (self.campaign["trials"],
                            self.campaign["witnesses"],
                            self.campaign["prescreen"]))
        else:
            lines.append("anti-certification: %d/%d excluded chambers "
                         "witnessed and reverified"
                         % (self.witnesses_verified, self.excluded))
        if self.note:
            lines.append("note: %s" % self.note)
        lines.append("result: %s" % ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_json(self):
        return {
            "name": self.name,
            "edges": self.edges,
            "chambers": self.chamber_count,
            "interval": {"lower": self.interval[0],
                         "upper": self.interval[1],
                         "lower_exact": self.interval_exact[0],
                         "upper_exact": self.interval_exact[1]},
            "tasks": [{"simplex": t.simplex, "function": t.func,
                       "status": t.status, "steps": t.steps,
                       "target": t.target, "grade": t.grade,
                       "corner": t.corner} for t in self.tasks],
            "curves": [{"label": c.label, "coefficient": c.coeff,
                        "degree": c.degree,
                        "expected_coefficient": c.expected_coeff,
                        "expected_degree": c.expected_degree,
                        "ok": c.ok} for c in self.curves],
            "identities": [{"label": i.label, "value": i.value,
                            "expected": i.expected, "ok": i.ok}
                           for i in self.identities],
            "anti_certification": self.campaign if self.campaign is not None
            else {"excluded": self.excluded,
                  "verified": self.witnesses_verified},
            "note": self.note,
            "passed": self.passed,
        }


def grade_task(task, cert):
    if not task.func.asserted:
        return "INFO"
    if cert.status != "Nonnegative":
        return "FAIL"
    if task.target is None or cert.steps == task.target:
        return "GOLD" if task.target is not None else "PASS"
    return "PASS-WITH-NOTE"


def curve_result(beta, check):
    f = f_polynomial()
    g = directional_derivative(beta)
    total = (check.g_weight * g.restrict_curve(check.coords)
             + check.f_weight * f.restrict_curve(check.coords))
    if total.is_zero():
        return CurveResult(check.label, 0, -1, check.expected_coeff,
                           check.expected_degree, False)
    (degree,) = min(total.terms)
    coeff = total.terms[(degree,)]
    ok = (coeff == check.expected_coeff and degree == check.expected_degree)
    return CurveResult(check.label, coeff, degree, check.expected_coeff,
                       check.expected_degree, ok)


def run_case(name, seed=0, campaign_trials=None):
    """Execute one pinned case end to end and grade every obligation."""
    spec = case_registry()[name]
    report = CaseReport(name=spec.name, edges=spec.beta.spec(),
                        chamber_count=spec.chamber_count,
                        interval=spec.interval,
                        interval_exact=spec.interval_exact, note=spec.note)
    hard_fail = False
    for task in spec.tasks:
        if not task.func.endpoint_consistent():
            raise ValueError("endpoint mismatch for %s" % task.func.label)
        p = pullback(task.func.polynomial(spec.beta),
                     spec.simplices[task.simplex])
        cert = certify(p)
        grade = grade_task(task, cert)
        if grade == "FAIL":
            hard_fail = True
        report.tasks.append(TaskResult(
            task.simplex, task.func.label, cert.status, cert.steps,
            task.target, grade, cert.witness_corner))
    for check in spec.curves:
        res = curve_result(spec.beta, check)
        if not res.ok:
            hard_fail = True
        report.curves.append(res)
    f = f_polynomial()
    g = directional_derivative(spec.beta)
    for ident in spec.identities:
        value = (g.evaluate(ident.point) * ident.g_coeff
                 + f.evaluate(ident.point) * ident.f_coeff)
        ok = value == ident.expected
        if not ok:
            hard_fail = True
        report.identities.append(IdentityResult(ident.label, value,
                                                ident.expected, ok))
    if spec.campaign_trials:
        trials = campaign_trials or spec.campaign_trials
        found, screened = anticert.full_k4_campaign(trials=trials, seed=seed)
        report.campaign = {"trials": trials, "witnesses": len(found),
                           "prescreen": screened}
        if found:
            hard_fail = True
    else:
        excluded = anticert.excluded_chambers(spec.beta)
        golden = {w.chamber: w for w in anticert.read_witnesses()
                  if w.beta == spec.beta.spec()}
        verified = 0
        for dec in excluded:
            w = golden.get(dec.id)
            if w is not None and anticert.verify_witness(w):
                verified += 1
            else:
                hard_fail = True
        report.excluded = len(excluded)
        report.witnesses_verified = verified
    report.passed = not hard_fail
    return report


def symmetry_cover(name):
    """Chamber ids reached from a case's listed simplices, and those owed.

    Listing is up to relabelings fixing the edge set: the orbit of the
    chambers inside the listed simplices must be exactly the certified
    region.
    """
    spec = case_registry()[name]
    parts = build_partitions()
    table = parts.decoration_table()
    base = set()
    for cell in spec.simplices.values():
        for dname, dec in table.items():
            if all(cell.contains(v) for v in parts.fortyeight[dname].vertices):
                base.add(dec)
    cover = set()
    for dec in base:
        for s in stabilizer(spec.beta.indices):
            cover.add(dec.relabeled(s).id)
    owed = {d.id for d in certified_chambers(spec.beta)}
    return cover, owed


# -- monotonicity and square-root property suites ------------------------

def random_tetrahedral(rng, max_entry=100):
    """A uniformly drawn integer length list that spans a tetrahedron."""
    while True:
        d = tuple(rng.randint(1, max_entry) for _ in range(6))
        if is_tetrahedral(d):
            return d


def lengthen_margin(d, t=1):
    """Exact numerator of the scaled volume gain from lengthening by t."""
    f = f_polynomial()
    s = sum(d)
    grown = f.evaluate(tuple(x + t for x in d))
    return grown * s ** 6 - f.evaluate(d) * (s + 6 * t) ** 6


def lengthen_check(d, t=1):
    """All-edges lengthening never shrinks volume relative to scaling."""
    f_d = tetrahedral_f(d)
    if f_d is None:
        raise ValueError("length list is not tetrahedral: %r" % (d,))
    f_grown, s = tetrahedral_f(tuple(x + t for x in d)), sum(d)
    # lengthen_margin(d, t) >= 0, from the values of f already taken
    return f_grown is not None and f_grown * s ** 6 >= f_d * (s + 6 * t) ** 6


def _root_triangle(x, y, z):
    """Decide sqrt(x) < sqrt(y) + sqrt(z) exactly on nonnegative ints."""
    d = x - y - z
    if d < 0:
        return True
    return d * d < 4 * y * z


def root_face_conditions(s):
    """Strict triangle inequalities for the length list sqrt(s)."""
    for tri in FACES.values():
        x, y, z = (s[k] for k in tri)
        if not (_root_triangle(x, y, z) and _root_triangle(y, z, x)
                and _root_triangle(z, x, y)):
            return False
    return True


def root_list_check(d):
    """A tetrahedral list stays tetrahedral after entrywise square root."""
    if not is_tetrahedral(d):
        raise ValueError("length list is not tetrahedral: %r" % (d,))
    return f_hat_polynomial().evaluate(d) > 0 and root_face_conditions(d)


def quadrature_check(a, b):
    """sqrt(a^2 + b^2) entrywise spans a larger tetrahedron than a.

    Both inputs must be tetrahedral; the combined list is checked via
    the squared-length determinant and exact root triangle tests.
    """
    if not (is_tetrahedral(a) and is_tetrahedral(b)):
        raise ValueError("both length lists must be tetrahedral")
    fh = f_hat_polynomial()
    s = tuple(x * x + y * y for x, y in zip(a, b))
    fa = fh.evaluate(tuple(x * x for x in a))
    return fh.evaluate(s) > fa > 0 and root_face_conditions(s)


# -- command line --------------------------------------------------------

def _print(args, payload, text):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _point_values(args):
    """(point, beta, f, g, in_cone, sorted chamber ids) for eval/explore."""
    point = tuple(args.point)
    cone = in_cone(point)
    return (point, args.beta, f_polynomial().evaluate(point),
            directional_derivative(args.beta).evaluate(point), cone,
            sorted(chambers_containing(point)) if cone else [])


def _cmd_eval(args):
    point, beta, fv, gv, cone, chambers = _point_values(args)
    payload = {"point": list(point), "edges": beta.spec(), "f": fv, "g": gv,
               "in_cone": cone, "chambers": chambers}
    text = ("f = %d\ng_{%s} = %d\nin_cone = %s\nchambers = %s"
            % (fv, beta.spec(), gv, cone, " ".join(chambers) or "(none)"))
    _print(args, payload, text)
    return 0


def _cmd_certify_file(args):
    try:
        with open(args.path) as fh:
            p = Polynomial.parse(fh.read())
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    try:
        cert = certify(p, budget=args.budget)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    lines = ["status: %s" % cert.status, "steps: %d" % cert.steps]
    if cert.status == "NegativeWitness":
        lines.append("corner value: %d" % cert.witness_corner)
        lines.append("lineage: %s" % (cert.witness_lineage,))
    _print(args, asdict(cert), "\n".join(lines))
    return {"Nonnegative": 0, "NegativeWitness": 1, "BudgetExhausted": 2}[
        cert.status]


def _cmd_partition_check(args):
    out = partition_check(samples=args.samples, seed=args.seed,
                          cross_check=args.cross_check)
    bary = verify_barycenter_conditions()
    ok = out["ok"] and bary["face_equality_holds"] and \
        bary["vertex_tie_holds"] and bary["extrema_average_to_center"]
    payload = dict(out)
    payload["barycenter_identities"] = ok
    text = ("samples=%d misses=%s cross_mismatches=%d "
            "barycenter_identities=%s -> %s"
            % (out["samples"], sum(out["misses"].values()),
               out["cross_mismatches"], ok, "ok" if ok else "FAIL"))
    _print(args, payload, text)
    return 0 if ok else 1


def _cmd_anticert(args):
    w = anticert.anti_certify(args.chamber, args.beta, trials=args.trials,
                              seed=args.seed)
    if w is None:
        _print(args, {"found": False},
               "no witness in %d trials" % args.trials)
        return 1
    payload = {"found": True, "witness": w.line(),
               "reverified": anticert.verify_witness(w)}
    _print(args, payload, w.line())
    return 0


def _cmd_case_list(args):
    rows = []
    for name, spec in case_registry().items():
        rows.append({"name": name, "edges": spec.beta.spec(),
                     "chambers": spec.chamber_count,
                     "tasks": len(spec.tasks), "curves": len(spec.curves)})
    text = "\n".join("%-13s edges=%-17s chambers=%-2d tasks=%d curves=%d"
                     % (r["name"], r["edges"], r["chambers"], r["tasks"],
                        r["curves"]) for r in rows)
    _print(args, rows, text)
    return 0


def _cmd_case_run(args):
    report = run_case(args.name, seed=args.seed)
    _print(args, report.to_json(), report.to_text())
    return 0 if report.passed else 1


def _cmd_case_run_all(args):
    reports = [run_case(name, seed=args.seed) for name in case_registry()]
    ok = all(r.passed for r in reports)
    if args.json:
        print(json.dumps({"cases": [r.to_json() for r in reports],
                          "passed": ok}, sort_keys=True))
    else:
        blocks = [r.to_text() for r in reports]
        blocks.append("all cases: %s" % ("PASS" if ok else "FAIL"))
        print("\n\n".join(blocks))
    return 0 if ok else 1


def _cmd_lengthen_check(args):
    import random
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.trials):
        d = random_tetrahedral(rng, args.max_entry)
        if not lengthen_check(d, args.t):
            failures += 1
    regular_ok = all(lengthen_margin((a,) * 6, args.t) == 0
                     for a in (1, 2, 3, 7))
    ok = failures == 0 and regular_ok
    payload = {"trials": args.trials, "failures": failures,
               "regular_equality": regular_ok}
    _print(args, payload,
           "trials=%d failures=%d regular_equality=%s -> %s"
           % (args.trials, failures, regular_ok, "ok" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_appendix_check(args):
    import random
    rng = random.Random(args.seed)
    quad_fail = root_fail = 0
    for _ in range(args.trials):
        a = random_tetrahedral(rng, args.max_entry)
        b = random_tetrahedral(rng, args.max_entry)
        if not quadrature_check(a, b):
            quad_fail += 1
        if not root_list_check(a):
            root_fail += 1
    ok = quad_fail == 0 and root_fail == 0
    payload = {"trials": args.trials, "quadrature_failures": quad_fail,
               "root_failures": root_fail}
    _print(args, payload,
           "trials=%d quadrature_failures=%d root_failures=%d -> %s"
           % (args.trials, quad_fail, root_fail, "ok" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_explore(args):
    point, beta, fv, gv, cone, chambers = _point_values(args)
    try:
        certified = {d.id for d in certified_chambers(beta)}
    except ValueError:
        certified = None
    rows = []
    for cid in chambers:
        inside = "n/a" if certified is None else str(cid in certified)
        rows.append({"chamber": cid, "certified": inside})
    payload = {"point": list(point), "edges": beta.spec(),
               "type": beta.classify(), "f": fv, "g": gv, "in_cone": cone,
               "chambers": rows}
    lines = ["type: %s" % beta.classify(), "f = %d" % fv, "g = %d" % gv,
             "in_cone = %s" % cone]
    for r in rows:
        lines.append("chamber %s certified=%s" % (r["chamber"],
                                                  r["certified"]))
    _print(args, payload, "\n".join(lines))
    return 0


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            "expected an integer of at least 1, got %r" % text)
    return value


def _edge_subset(text):
    try:
        return EdgeSubset.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _chamber_id(text):
    try:
        return decoration(text)
    except KeyError:
        raise argparse.ArgumentTypeError("unknown chamber id %r" % text)


def _add_json(p):
    p.add_argument("--json", action="store_true",
                   help="emit a JSON mirror of the report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tetravol",
        description="exact certificates for tetrahedron edge lengthening")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate f and a directional derivative")
    p.add_argument("--point", nargs=6, type=int, required=True,
                   metavar=("D12", "D13", "D14", "D23", "D24", "D34"))
    p.add_argument("--beta", type=_edge_subset, default="12,13,14,23,24,34",
                   help="edge subset, for example 12,34")
    _add_json(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("certify-file",
                       help="certify a serialized 5-variable polynomial")
    p.add_argument("path")
    p.add_argument("--budget", type=_positive_int, default=10 ** 6)
    _add_json(p)
    p.set_defaults(func=_cmd_certify_file)

    p = sub.add_parser("partition-check",
                       help="sampled coverage and barycenter identities")
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cross-check", type=_positive_int, default=200)
    _add_json(p)
    p.set_defaults(func=_cmd_partition_check)

    p = sub.add_parser("anticert",
                       help="search one chamber for a sign witness")
    p.add_argument("--beta", type=_edge_subset, required=True)
    p.add_argument("--chamber", type=_chamber_id, required=True,
                   help="decoration id, for example p4213b1")
    p.add_argument("--trials", type=_positive_int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    _add_json(p)
    p.set_defaults(func=_cmd_anticert)

    p = sub.add_parser("case", help="run the pinned case suite")
    csub = p.add_subparsers(dest="case_command", required=True)
    q = csub.add_parser("list", help="list the pinned cases")
    _add_json(q)
    q.set_defaults(func=_cmd_case_list)
    q = csub.add_parser("run", help="run one case")
    q.add_argument("name", choices=case_names())
    q.add_argument("--seed", type=int, default=0)
    _add_json(q)
    q.set_defaults(func=_cmd_case_run)
    q = csub.add_parser("run-all", help="run every case")
    q.add_argument("--seed", type=int, default=0)
    _add_json(q)
    q.set_defaults(func=_cmd_case_run_all)

    p = sub.add_parser("lengthen-check",
                       help="sampled all-edges monotonicity check")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-entry", type=_positive_int, default=100)
    p.add_argument("--t", type=_positive_int, default=1)
    _add_json(p)
    p.set_defaults(func=_cmd_lengthen_check)

    p = sub.add_parser("appendix-check",
                       help="sampled quadrature and square-root checks")
    p.add_argument("--trials", type=_positive_int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-entry", type=_positive_int, default=50)
    _add_json(p)
    p.set_defaults(func=_cmd_appendix_check)

    p = sub.add_parser("explore",
                       help="inspect a point and edge subset, no assertions")
    p.add_argument("--point", nargs=6, type=int, required=True,
                   metavar=("D12", "D13", "D14", "D23", "D24", "D34"))
    p.add_argument("--beta", type=_edge_subset, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_explore)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
