"""Certifier behavior on synthetic cube polynomials."""

import dataclasses
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tetravol._kernels import NumpyBackend, get_backend
from tetravol.case_suite_cli import case_registry
from tetravol.exact_poly import Polynomial
from tetravol.positive_dominance import (Certificate, _read, _traverse,
                                         certify, replay, tree_shape)
from tetravol.simplex_pullback import pullback

X = [Polynomial.variable(5, k) for k in range(5)]
ONE = Polynomial.constant(5, 1)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def is_wpd(p):
    """True iff every downward-closed box partial sum is nonnegative."""
    eng = get_backend()
    eng.from_poly(p)
    return eng.wpd()


def test_nonnegative_coefficients_pass_without_splitting():
    p = 3 * X[0] * X[1] + X[4] ** 2 + ONE
    cert = certify(p)
    assert cert.status == "Nonnegative"
    assert cert.subdivisions == 0
    assert cert.steps == 1
    assert cert.actions == "W"
    assert is_wpd(p)


def test_square_needs_one_split():
    p = X[0] * X[0] - 2 * X[0] + ONE
    cert = certify(p)
    assert cert.status == "Nonnegative"
    assert cert.steps == 3
    assert cert.subdivisions == 1
    assert cert.max_depth == 1
    assert cert.actions == "SWW"
    assert cert.histogram == (1, 0, 0, 0, 0)
    assert not is_wpd(p)


def test_negative_corner_is_caught():
    p = 2 * X[0] - ONE
    cert = certify(p)
    assert cert.status == "NegativeWitness"
    assert cert.witness_corner == -1
    assert cert.actions.endswith("N")


def test_interior_negativity_is_found_after_subdividing():
    # nonneg at all corners, negative at the center
    p = (2 * X[2] - ONE) * (2 * X[2] - ONE) * Polynomial.constant(5, 4) - ONE
    cert = certify(p)
    assert cert.status == "NegativeWitness"
    assert cert.witness_corner < 0
    assert cert.subdivisions >= 1
    assert cert.witness_lineage != ""


def polys5_positive_at_origin():
    exps = st.tuples(*[st.integers(0, 2) for _ in range(5)])
    terms = st.dictionaries(exps, st.integers(-30, 30), max_size=4)
    return st.tuples(st.integers(1, 30), terms).map(
        lambda t: Polynomial(5, {**t[1], (0, 0, 0, 0, 0): t[0]}))


@given(polys5_positive_at_origin())
@example(90 * X[0] * X[0] - 60 * X[0] + Polynomial.constant(5, 9))
@settings(max_examples=40, deadline=None)
def test_witness_lineage_splits_the_axes_in_turn(p):
    cert = certify(p, budget=200)
    if cert.status == "NegativeWitness" and cert.witness_lineage:
        axes = [int(step[1:]) for step in cert.witness_lineage.split(",")]
        assert axes == [k % 5 for k in range(len(axes))]


def test_budget_exhaustion():
    p = X[0] * X[0] - 2 * X[0] + ONE
    cert = certify(p, budget=1)
    assert cert.status == "BudgetExhausted"
    assert cert.steps == 1
    assert cert.budget == 1


def test_per_variable_degree_cap():
    with pytest.raises(ValueError):
        certify(X[0] ** 7)
    with pytest.raises(ValueError):
        certify(Polynomial.variable(4, 0))


def test_certify_is_deterministic():
    p = X[0] * X[0] - 2 * X[0] + ONE
    a, b = certify(p), certify(p)
    assert a == b
    assert a.actions == b.actions


def test_diagonal_zero_set_never_terminates():
    # (x2 - x4)^2 vanishes across box interiors, so splitting recurs
    # forever; the budget must cut the chain off deterministically
    p = (X[1] - X[3]) * (X[1] - X[3])
    a = certify(p, budget=300)
    b = certify(p, budget=300)
    assert a.status == "BudgetExhausted"
    assert a.steps == 300
    assert a == b


def test_replay_accepts_genuine_certificates():
    for p, budget in [(X[0] * X[0] - 2 * X[0] + ONE, 10 ** 6),
                      ((ONE - X[2]) * (ONE - X[2]) * X[4], 10 ** 6),
                      (2 * X[0] - ONE, 10 ** 6),
                      (X[0] * X[0] - 2 * X[0] + ONE, 1)]:
        cert = certify(p, budget=budget)
        assert replay(p, cert)


def test_walks_started_by_three_threads_match_the_serial_ones():
    # every walk runs on the engine get_backend() shares, whose per-depth
    # buffers hold one walk's cubes; unserialized, the walks overwrite
    # each other's cubes and come back with wrong certificates
    registry, polys = case_registry(), []
    for name, simplex, label in (("single-edge", "S1", "g"),
                                 ("opposite-pair", "U3", "g"),
                                 ("tripod", "C_21", "3g-f")):
        spec = registry[name]
        (task,) = [t for t in spec.tasks
                   if t.simplex == simplex and t.func.label == label]
        polys.append(pullback(task.func.polynomial(spec.beta),
                              spec.simplices[simplex]))
    serial = [certify(p) for p in polys]
    assert [c.steps for c in serial] == [421, 473, 779]
    start = threading.Barrier(len(polys), timeout=60)

    def walk(p, cert):
        start.wait()
        return certify(p), replay(p, cert)

    with ThreadPoolExecutor(len(polys)) as pool:
        for _ in range(3):
            got = list(pool.map(walk, polys, serial))
            assert got == [(c, True) for c in serial]


def test_replay_rejects_tampering(monkeypatch):
    p = X[0] * X[0] - 2 * X[0] + ONE
    cert = certify(p)
    assert not replay(p, dataclasses.replace(cert, actions="WWW"))
    assert not replay(p, dataclasses.replace(cert, actions="SWS"))
    assert not replay(p, dataclasses.replace(cert, actions=cert.actions[:-1]))
    assert not replay(p, dataclasses.replace(cert, steps=cert.steps + 1))
    assert not replay(p, dataclasses.replace(cert, histogram=(0, 1, 0, 0, 0)))
    # a negative origin claimed to be nonnegative
    neg = 2 * X[0] - ONE
    assert not replay(neg, Certificate("Nonnegative", 1, 0, 0, actions="N"))
    witness = certify(neg)
    assert not replay(neg, dataclasses.replace(
        witness, actions=witness.actions + "WW"))
    assert not replay(neg, dataclasses.replace(
        witness, witness_corner=witness.witness_corner - 1))
    assert not replay(neg, dataclasses.replace(
        witness, witness_lineage="L0"))
    # a raised budget cannot walk replay past the recorded actions
    diag = (X[1] - X[3]) * (X[1] - X[3])
    short = certify(diag, budget=30)
    wpd, tests = NumpyBackend.wpd, []
    monkeypatch.setattr(NumpyBackend, "wpd",
                        lambda self: tests.append(1) or wpd(self))
    assert not replay(diag, dataclasses.replace(short, budget=300))
    assert len(tests) == 31


def test_replay_rejects_certificate_for_a_different_polynomial():
    p = X[0] * X[0] - 2 * X[0] + ONE
    other = 3 * X[0] * X[1] + ONE
    assert not replay(p, certify(other))


CERTIFICATES = PERFBENCH / "reference" / "certificates.json"


def test_reader_rebuilds_every_recorded_certificate():
    # from status, actions, budget and corner alone: no walk runs
    recorded = json.loads(CERTIFICATES.read_text())
    assert len(recorded) == 36
    widest = {}
    for key, rec in recorded.items():
        # run-length encoded: "S3W2N" is "SSSWWN"
        actions = "".join(ch * int(n or 1) for ch, n in
                          re.findall(r"([NSW])(\d*)", rec["actions"]))
        cert = _read(rec["status"], actions, rec["budget"],
                     rec["witness_corner"])
        assert dataclasses.asdict(cert) == {
            **rec, "actions": actions, "histogram": tuple(rec["histogram"])}
        levels, _, _ = tree_shape(actions)
        assert [sum(col) for col in zip(*levels)] == [
            actions.count(act) for act in "SWN"]
        widest[key] = max((sum(level), depth)
                          for depth, level in enumerate(levels))
    # full-K4 2g-3f ends in 2,100 WPD leaves at depth 16; no level of any
    # other pinned tree holds more than 450 nodes
    assert widest.pop("full-K4/C_11/2g-3f") == (2100, 16)
    assert max(widest.values())[0] <= 450


class NoTwins(NumpyBackend):
    """The limb engine, making both halves of every split."""

    def twin(self, parent, actions, start):
        return False


class TreeSpy(NoTwins):
    """The limb engine, recording the split tree as the walk grows it,
    from the cubes it makes, so it makes the twins of a split too.

    Each cube it makes gets its path from the root, one (side, axis)
    pair per split, the left child of a split being "L", kept in ``path``
    while it is the cube under test and, once fitted to be split, in
    ``paths`` under its parent record; ``popped`` is the path of the
    last cube whose origin the walk read. ``nodes``
    lists the depth and action of every cube the walk tested, ``splits``
    the depth of every cube it brought in range to split, and ``peak``
    the most halves and roots pending at once: the root, plus two per
    split, less one per cube tested.
    """

    def __init__(self):
        super().__init__()
        self.paths = {}
        self.path = None
        self.splits = []
        self.nodes = []
        self.wpd_calls = 0
        self.popped = None
        self.peak = 1

    def from_poly(self, p):
        cube = super().from_poly(p)
        self.path = ()
        return cube

    def origin_negative(self):
        self.popped = self.path
        negative = super().origin_negative()
        if negative:
            self.nodes.append((len(self.popped), "N"))
        return negative

    def wpd(self):
        self.wpd_calls += 1
        leaf = super().wpd()
        self.nodes.append((len(self.path), "W" if leaf else "S"))
        return leaf

    def fit(self):
        path = self.path
        depth = self._tested.depth
        assert depth == len(path)
        self.splits.append(depth)
        self.peak = max(self.peak, 1 + 2 * len(self.splits) - len(self.nodes))
        parent = super().fit()
        self.paths[id(parent)] = path
        return parent

    def child(self, parent, side):
        path = self.paths[id(parent)]
        cube = super().child(parent, side)
        assert self._tested.depth == len(path) + 1
        # the walk splits the axes in turn
        self.path = path + (("LR"[side], len(path) % 5),)
        return cube


def assert_read_matches_the_spy(p, budget):
    spy = TreeSpy()
    cert = _traverse(p, budget, spy)
    assert cert == certify(p, budget)
    assert cert.wpd_tests == spy.wpd_calls
    assert cert.subdivisions == len(spy.splits)
    assert cert.histogram == tuple(
        sum(depth % 5 == j for depth in spy.splits) for j in range(5))
    assert cert.max_depth == max(
        (depth + 1 for depth in spy.splits), default=0)
    if cert.status == "NegativeWitness":
        assert cert.witness_lineage == ",".join(
            "%s%d" % step for step in spy.popped)
    else:
        assert cert.witness_lineage is None
    # the tree's levels, the walk's peak stack and the path to the last
    # cube it tested, from the actions alone
    assert [act for _, act in spy.nodes] == list(cert.actions)
    levels, peak, path = tree_shape(cert.actions)
    assert levels == [
        tuple(spy.nodes.count((depth, act)) for act in "SWN")
        for depth in range(max(depth for depth, _ in spy.nodes) + 1)]
    assert peak == spy.peak
    assert path == "".join(side for side, _ in spy.popped)
    return cert


@given(polys5_positive_at_origin(), st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_read_agrees_with_an_instrumented_walk(p, budget):
    assert_read_matches_the_spy(p, budget)


def test_the_instrumented_walk_reaches_every_status():
    square = X[0] * X[0] - 2 * X[0] + ONE
    # WPD leaves come before the witness, whose lineage takes both sides
    dip = Polynomial(5, {(1, 0, 0, 1, 0): 13, (0, 0, 2, 0, 1): 28,
                         (1, 2, 1, 2, 1): 15, (1, 1, 0, 0, 2): -10,
                         (0, 0, 0, 0, 0): 2})
    diag = (X[1] - X[3]) * (X[1] - X[3])
    assert assert_read_matches_the_spy(square, 200).status == "Nonnegative"
    witness = assert_read_matches_the_spy(dip, 200)
    assert (witness.status, witness.steps) == ("NegativeWitness", 32)
    assert witness.witness_lineage == "R0,R1,R2,L3,R4,L0,L1,R2"
    assert assert_read_matches_the_spy(diag, 200).status == "BudgetExhausted"


class TwinSpy(NumpyBackend):
    """The limb engine, listing the W and S steps of a walk that it
    answers from a twin's subtree, where it makes no cube, and the depth
    of each split whose left half it answers so."""

    def from_poly(self, p):
        self.steps, self.answered, self.twins = 0, [], []
        return super().from_poly(p)

    def twin(self, parent, actions, start):
        answered = super().twin(parent, actions, start)
        if answered:
            self.twins.append(parent.depth)
        return answered

    def wpd(self):
        if self._replay:
            self.answered.append(self.steps)
        self.steps += 1
        return super().wpd()


def pinned_walks(monkeypatch):
    """(key, polynomial, certificate) of each of the 36 pinned tasks."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import reference
    certs = reference.load()[0]
    for name, spec in case_registry().items():
        for task in spec.tasks:
            key = reference.task_key(name, task)
            yield key, pullback(task.func.polynomial(spec.beta),
                                spec.simplices[task.simplex]), certs[key]


# the pinned walks whose root is its own mirror image along x4, with the
# steps of the left subtrees of their splits at depth 4
TWIN_STEPS = {"4-cycle/C_31/g": 362, "4-cycle/C_31/g-f": 828,
              "full-K4/C_11/2g-3f": 3712, "full-K4/C_11/3g-2f": 575,
              "tripod/C_21/3g-f": 374, "tripod/C_21/4g-3f": 468}


def test_pinned_walks_answer_exactly_their_twin_subtrees(monkeypatch):
    answered, twins = {}, {}
    spy = TwinSpy()
    for key, p, cert in pinned_walks(monkeypatch):
        assert _traverse(p, cert.budget, spy) == cert
        # the walk still calls wpd once per W or S step
        assert spy.steps == cert.wpd_tests
        if spy.answered:
            answered[key] = len(spy.answered)
            twins[key] = spy.twins
    # of the 30,252 steps, 6,319 are computed no more, and only there
    assert answered == TWIN_STEPS
    assert sum(answered.values()) == 6319
    # every twin split is at depth 4, 9 to 16 of them per walk
    assert {depth for depths in twins.values() for depth in depths} == {4}
    assert sorted(map(len, twins.values())) == [9] + [16] * 5


def test_replay_rejects_a_flip_inside_a_twin(monkeypatch):
    (p, cert), = [(p, cert) for key, p, cert in pinned_walks(monkeypatch)
                  if key == "full-K4/C_11/3g-2f"]
    spy = TwinSpy()
    assert _traverse(p, cert.budget, spy) == cert and replay(p, cert)
    step = spy.answered[len(spy.answered) // 2]
    flip = "SW"[cert.actions[step] == "S"]
    forged = dataclasses.replace(
        cert, actions=cert.actions[:step] + flip + cert.actions[step + 1:])
    assert not replay(p, forged)
    # the walk stops at the flipped step, answered from the right half's
    assert _traverse(p, cert.budget, spy, forged.actions) is None
    assert spy.steps == step + 1 and spy.answered[-1] == step


# prod (2 x_a^2 - 2 x_a + 1) over axes 0 to 3, positive on the cube and
# its own mirror image along each axis
MIRRORED = prod((2 * x * x - 2 * x + ONE for x in X[:4]), start=ONE)


def polys5_mirrored_along_x4():
    """c MIRRORED (k (2 x4 - 1)^2 + 1) + s^2, s = q + q(x4 -> 1 - x4) for a
    random q: positive on the cube, its own mirror image along x4, and
    slow enough to certify that most walks answer a twin."""
    exps = st.tuples(*[st.integers(0, 2) for _ in range(5)])
    terms = st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=3)

    def build(c, k, q):
        s = q + q.substitute(X[:4] + [ONE - X[4]])
        return c * MIRRORED * (k * (2 * X[4] - ONE) ** 2 + ONE) + s * s

    return st.builds(build, st.integers(1, 8), st.integers(1, 8),
                     terms.map(lambda t: Polynomial(5, t)))


@given(polys5_mirrored_along_x4(), st.data())
@settings(max_examples=20, deadline=None)
def test_answered_twins_give_the_walk_that_makes_them(p, data):
    spy = TwinSpy()
    whole = _traverse(p, 10 ** 4, spy)
    assert whole == _traverse(p, 10 ** 4, NoTwins())
    assume(spy.answered)
    # a budget that cuts the walk just after a step answered from a twin
    budget = data.draw(st.sampled_from(spy.answered)) + 1
    assert certify(p, budget) == _traverse(p, budget, NoTwins())
