"""The ``tetravol`` command line: the parser and one function per command.

Each command returns (exit code, JSON payload, text report), and
``main`` prints one of the two.  The cases, reports and sampled checks
the commands run live in ``case_suite_cli``.
"""

import argparse
import json
import os
import random
import sys
from dataclasses import asdict

from . import anti_certification as anticert
from .case_suite_cli import (case_names, case_registry, lengthen_check,
                             lengthen_margin, quadrature_check,
                             random_tetrahedral, root_list_check, run_case)
from .cayley_menger import EdgeSubset, directional_derivative, f_polynomial
from .chamber_geometry import (certified_chambers, chambers_containing,
                               decoration, in_cone, partition_check,
                               verify_barycenter_conditions)
from .exact_poly import Polynomial
from .positive_dominance import certify


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
    return 0, payload, text


def _cmd_certify_file(args):
    try:
        with open(args.path) as fh:
            source = fh.read()
        cert = certify(Polynomial.parse(source), budget=args.budget)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3, None, None
    lines = ["status: %s" % cert.status, "steps: %d" % cert.steps]
    if cert.status == "NegativeWitness":
        lines.append("corner value: %d" % cert.witness_corner)
        lines.append("lineage: %s" % (cert.witness_lineage,))
    exits = {"Nonnegative": 0, "NegativeWitness": 1, "BudgetExhausted": 2}
    return exits[cert.status], asdict(cert), "\n".join(lines)


def _cmd_partition_check(args):
    out = partition_check(samples=args.samples, seed=args.seed,
                          cross_check=args.cross_check)
    bary = verify_barycenter_conditions()
    identities = bary["face_equality_holds"] and \
        bary["vertex_tie_holds"] and bary["extrema_average_to_center"]
    ok = out["ok"] and identities
    payload = dict(out)
    payload["barycenter_identities"] = identities
    text = ("samples=%d misses=%s cross_mismatches=%d "
            "barycenter_identities=%s -> %s"
            % (out["samples"], sum(out["misses"].values()),
               out["cross_mismatches"], identities, "ok" if ok else "FAIL"))
    return (0 if ok else 1), payload, text


def _cmd_anticert(args):
    w = anticert.anti_certify(args.chamber, args.beta, trials=args.trials,
                              seed=args.seed)
    if w is None:
        return 1, {"found": False}, "no witness in %d trials" % args.trials
    reverified = anticert.verify_witness(w)
    payload = {"found": True, "witness": w.line(), "reverified": reverified}
    return (0 if reverified else 3), payload, w.line()


def _cmd_case_list(args):
    rows = []
    for name, spec in case_registry().items():
        rows.append({"name": name, "edges": spec.beta.spec(),
                     "chambers": len(certified_chambers(spec.beta)),
                     "tasks": len(spec.tasks), "curves": len(spec.curves)})
    text = "\n".join("%-13s edges=%-17s chambers=%-2d tasks=%d curves=%d"
                     % (r["name"], r["edges"], r["chambers"], r["tasks"],
                        r["curves"]) for r in rows)
    return 0, rows, text


def _cmd_case_run(args):
    report = run_case(args.name, seed=args.seed)
    return (0 if report.passed else 1), report.to_json(), report.to_text()


def _cmd_case_run_all(args):
    reports = [run_case(name, seed=args.seed) for name in case_registry()]
    ok = all(r.passed for r in reports)
    payload = {"cases": [r.to_json() for r in reports], "passed": ok}
    blocks = [r.to_text() for r in reports]
    blocks.append("all cases: %s" % ("PASS" if ok else "FAIL"))
    return (0 if ok else 1), payload, "\n\n".join(blocks)


def _cmd_lengthen_check(args):
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
    return (0 if ok else 1), payload, (
        "trials=%d failures=%d regular_equality=%s -> %s"
        % (args.trials, failures, regular_ok, "ok" if ok else "FAIL"))


def _cmd_appendix_check(args):
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
    return (0 if ok else 1), payload, (
        "trials=%d quadrature_failures=%d root_failures=%d -> %s"
        % (args.trials, quad_fail, root_fail, "ok" if ok else "FAIL"))


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
    return 0, payload, "\n".join(lines)


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

    p = sub.add_parser(
        "lengthen-check", help="sampled all-edges monotonicity check",
        description="Sampled all-edges monotonicity check.  Proof: by "
        "homogeneity, s*sum(df/dd_k) - 36f at a list d of sum s is the "
        "homogenized 12(2g - 3f) of the full-K4 g, so the sampled "
        "inequality integrates full-K4's certified 2g - 3f >= 0.  "
        "tests/test_cayley_menger.py checks the identity in "
        "test_lengthening_identities_hold_as_polynomials.")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-entry", type=_positive_int, default=100)
    p.add_argument("--t", type=_positive_int, default=1)
    _add_json(p)
    p.set_defaults(func=_cmd_lengthen_check)

    p = sub.add_parser(
        "appendix-check", help="sampled quadrature and square-root checks",
        description="Sampled quadrature and square-root checks.  "
        "Quadrature: f_hat = det M, with M linear in the squared "
        "lengths, then Minkowski's determinant inequality.  Square roots: "
        "each face's Heron form is 4 times its Gram determinant, and by "
        "Schoenberg's theorem a tetrahedral list, read as squared lengths, "
        "spans a nondegenerate tetrahedron.  tests/test_cayley_menger.py "
        "checks the identities in "
        "test_f_hat_is_the_determinant_of_the_border_eliminated_matrix and "
        "test_each_face_heron_form_is_four_times_its_gram_determinant.")
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
    """Run one subcommand and print its JSON payload under --json, its
    text report otherwise; a command that failed before producing a
    report returns no text and prints nothing on stdout, and one that ran
    out of memory, or whose walk would pass the engine's cap, exits 4."""
    args = build_parser().parse_args(argv)
    try:
        code, payload, text = args.func(args)
    except MemoryError as exc:
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 4
    if text is not None:
        try:
            print(json.dumps(payload, sort_keys=True) if args.json else text,
                  flush=True)
        except BrokenPipeError:
            # the reader closed stdout: exit as a shell reports SIGPIPE,
            # 128 + 13, and keep the flush at exit from raising again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
