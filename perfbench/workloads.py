"""The four seeded workloads of the tetravol benchmark.

Each workload turns (seed, seconds) into a fixed list of ops.  The loop
is closed with one client: ``run`` issues one op at a time against
tetravol's public functions, and ``check`` verifies its output outside
the timed region.  The op counts are sized from costs measured at commit
f108589 on a 2-core machine with the numpy object engine, so that a run
measures about ``seconds`` of work there; the list never depends on how
fast the program turns out to be, which keeps traced counts identical
run to run.
"""

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import tetravol  # noqa: E402
from tetravol import anti_certification as ac  # noqa: E402
from tetravol import case_suite_cli as cli  # noqa: E402
from tetravol import cayley_menger as cm  # noqa: E402
from tetravol import chamber_geometry as cg  # noqa: E402
from tetravol import positive_dominance as pd  # noqa: E402
from tetravol import simplex_pullback as sp  # noqa: E402

import reference  # noqa: E402

if Path(tetravol.__file__).resolve().parent != SRC / "tetravol":
    raise ImportError(f"tetravol was imported from {tetravol.__file__}, "
                      f"not from the checkout's {SRC}")

# suite: (case, seconds at commit f108589).  The whole suite takes ~190 s,
# more than one run may; these two cases fit one run together.
SUITE_CASES = (("3-cycle", 8.0), ("tripod", 11.0))

# replay: strata of tasks with equal pinned steps and depth, cheapest
# first; the seed picks one task per stratum.  Two strata are shallow
# (depth <= 12) and two deep (depth 16).
REPLAY_STRATA = (
    (("incident-pair/D_3111/g", "incident-pair/D_3112/g",
      "incident-pair/D_3121/g", "incident-pair/D_3122/g"), 2.1),
    (("opposite-pair/U1/g", "opposite-pair/U3/g"), 2.1),
    (("opposite-pair/U2/6g-f", "opposite-pair/U4/6g-f"), 7.5),
    (("full-K4/C_11/3g-2f",), 7.2),
)

ENDPOINT_OPS_PER_S = 3.6
ENDPOINT_GROUP = 3
ENDPOINT_BUDGET = 16

CHECK_KINDS = ("partition", "witnesses", "k4-campaign", "lengthen",
               "appendix")
CHECK_OPS_PER_S = 5.5
# Batch sizes scale by these factors in turn.  The host's speed swings
# between two levels; with five near-equal op costs the median op fell
# in the gap between the fast and slow clusters and jumped run to run.
# Spread-out costs make the percentiles move smoothly instead.
CHECK_SCALES = (0.5, 0.75, 1.0, 1.25, 1.5)
PARTITION_SAMPLES, PARTITION_CROSS = 30, 6
WITNESS_PICKS = 450
K4_TRIALS = 20000
LENGTHEN_TRIALS = 420
APPENDIX_TRIALS = 240


@dataclass
class Context:
    """What set-up builds once per process: caches, reference data."""

    registry: dict
    partitions: object
    tasks: dict
    certs: dict
    texts: dict
    witnesses: list


def setup():
    """Everything a run does before its first op."""
    registry = cli.case_registry()
    parts = cg.build_partitions()
    parts.decoration_table()
    cm.f_polynomial()
    certs, texts = reference.load()
    tasks = {reference.task_key(name, task): (spec, task)
             for name, spec in registry.items() for task in spec.tasks}
    return Context(registry, parts, tasks, certs, texts, ac.read_witnesses())


def _fit(costed, seconds):
    """The longest prefix whose costs fit in seconds, at least one item."""
    out, total = [], 0.0
    for item, cost in costed:
        total += cost
        if out and total > seconds:
            break
        out.append(item)
    return out


# -- suite ------------------------------------------------------------------

def suite_ops(ctx, rng, seconds):
    names = _fit(SUITE_CASES, seconds)
    rng.shuffle(names)
    return names


def suite_run(ctx, name):
    return cli.run_case(name)


def suite_check(ctx, name, report):
    return report.to_text() == ctx.texts[name]


def suite_steps(ctx, name, report):
    return sum(t.steps for t in report.tasks)


# -- replay -----------------------------------------------------------------

def replay_ops(ctx, rng, seconds):
    keys = [rng.choice(members) for members in _fit(REPLAY_STRATA, seconds)]
    rng.shuffle(keys)
    return keys


def replay_run(ctx, key):
    spec, task = ctx.tasks[key]
    p = sp.pullback(task.func.polynomial(spec.beta),
                    spec.simplices[task.simplex])
    return pd.replay(p, ctx.certs[key])


def replay_check(ctx, key, ok):
    return ok is True


def replay_steps(ctx, key, ok):
    return len(ctx.certs[key].actions)


# -- endpoint-scan ----------------------------------------------------------

@dataclass(frozen=True)
class Endpoint:
    beta_mask: int
    cell: str
    a: int
    b: int

    def label(self):
        return f"{self.beta_mask}/{self.cell}/{self.a}:{self.b}"


def endpoint_ops(ctx, rng, seconds):
    """Groups that share (beta, cell) and scan a few a:b ratios.

    Pullback cost grows with the size of beta and depends on the cell's
    seed type, so group g takes an edge subset of size 1 + g % 6 and a
    cell of type g // 6 % 4: a 20-second run holds each of the 24
    (size, type) pairs once.  Ops with b < 0 are the ones that tend to
    spend the whole budget; group g has one or two of them, in a
    checkerboard over the (size, type) pairs, so half of all ops do.
    The seed picks the subset, the cell of that type and the ratios;
    every run then has the same mix of costs, which keeps the
    run-to-run spread down.
    """
    n = max(1, round(seconds * ENDPOINT_OPS_PER_S))
    by_size = [[m for m in range(1, 64) if m.bit_count() == k]
               for k in range(1, 7)]
    by_type = [[c for c in sorted(ctx.partitions.fortyeight) if c[-2:] == t]
               for t in ("11", "12", "21", "22")]
    below = [(a, b) for a in range(1, 13) for b in range(-6, 0)]
    above = [(a, b) for a in range(1, 13) for b in range(0, 7)]
    ops = []
    for g in range(-(-n // ENDPOINT_GROUP)):
        size, kind = g % 6, g // 6 % 4
        mask = rng.choice(by_size[size])
        cell = rng.choice(by_type[kind])
        k = 1 + (size + kind) % 2
        ratios = (rng.sample(below, k)
                  + rng.sample(above, ENDPOINT_GROUP - k))
        rng.shuffle(ratios)
        ops += [Endpoint(mask, cell, a, b) for a, b in ratios]
    return ops[:n]


def endpoint_run(ctx, op):
    beta = cm.EdgeSubset(k for k in range(6) if op.beta_mask >> k & 1)
    comb = cm.directional_derivative(beta) * op.a + cm.f_polynomial() * op.b
    p = sp.pullback(comb, ctx.partitions.fortyeight[op.cell])
    return p, pd.certify(p, budget=ENDPOINT_BUDGET)


def lineage_corner(lineage):
    """The cube point whose image is the origin of the named sub-box.

    Tracks each axis as x = offset + scale * y in the box's own
    coordinate y: a left half maps y -> y/2, a right half y -> 1 - y/2.
    """
    offset = [Fraction(0)] * 5
    scale = [Fraction(1)] * 5
    for step in lineage.split(",") if lineage else ():
        side, axis = step[0], int(step[1:])
        if side == "R":
            offset[axis] += scale[axis]
            scale[axis] = -scale[axis]
        scale[axis] /= 2
    return tuple(offset)


def endpoint_check(ctx, op, result):
    p, cert = result
    if cert.status == "NegativeWitness":
        return (cert.witness_corner < 0
                and p.evaluate(lineage_corner(cert.witness_lineage)) < 0)
    if cert.status == "Nonnegative":
        return pd.replay(p, cert)
    return cert.steps == cert.budget == ENDPOINT_BUDGET


def endpoint_steps(ctx, op, result):
    return result[1].steps


# -- checks -----------------------------------------------------------------

def checks_ops(ctx, rng, seconds):
    n = max(len(CHECK_KINDS), round(seconds * CHECK_OPS_PER_S))
    k = len(CHECK_KINDS)
    return [(CHECK_KINDS[i % k], CHECK_SCALES[i // k % len(CHECK_SCALES)],
             rng.randrange(2 ** 31)) for i in range(n)]


def checks_run(ctx, op):
    kind, scale, seed = op
    rng = random.Random(seed)
    if kind == "partition":
        return cg.partition_check(samples=round(PARTITION_SAMPLES * scale),
                                  seed=seed,
                                  cross_check=round(PARTITION_CROSS * scale))
    if kind == "witnesses":
        picks = [rng.choice(ctx.witnesses)
                 for _ in range(round(WITNESS_PICKS * scale))]
        return [ac.verify_witness(w) for w in picks]
    if kind == "k4-campaign":
        return ac.full_k4_campaign(trials=round(K4_TRIALS * scale), seed=seed)
    if kind == "lengthen":
        return [cli.lengthen_check(cli.random_tetrahedral(rng, 100))
                for _ in range(round(LENGTHEN_TRIALS * scale))]
    results = []
    for _ in range(round(APPENDIX_TRIALS * scale)):
        a = cli.random_tetrahedral(rng, 50)
        b = cli.random_tetrahedral(rng, 50)
        results += [cli.quadrature_check(a, b), cli.root_list_check(a)]
    return results


def checks_check(ctx, op, result):
    kind = op[0]
    if kind == "partition":
        return result["ok"]
    if kind == "k4-campaign":
        return not result[0]
    return all(result)


def checks_steps(ctx, op, result):
    return 0


@dataclass(frozen=True)
class Workload:
    ops: object
    run: object
    check: object
    steps: object
    label: object = str


WORKLOADS = {
    "suite": Workload(suite_ops, suite_run, suite_check, suite_steps),
    "replay": Workload(replay_ops, replay_run, replay_check, replay_steps),
    "endpoint-scan": Workload(endpoint_ops, endpoint_run, endpoint_check,
                              endpoint_steps, Endpoint.label),
    "checks": Workload(checks_ops, checks_run, checks_check, checks_steps,
                       lambda op: op[0]),
}


def make_ops(name, ctx, seed, seconds):
    """The op list for one run: a function of workload, seed and seconds."""
    return WORKLOADS[name].ops(ctx, random.Random(f"{name}|{seed}"), seconds)
