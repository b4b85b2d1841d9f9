"""Certifier behavior on synthetic cube polynomials."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from tetravol._kernels import NumpyBackend, get_backend
from tetravol.exact_poly import Polynomial
from tetravol.positive_dominance import Certificate, certify, replay

X = [Polynomial.variable(5, k) for k in range(5)]
ONE = Polynomial.constant(5, 1)


def is_wpd(p):
    """True iff every downward-closed box partial sum is nonnegative."""
    eng = get_backend()
    return eng.wpd(eng.from_poly(p))


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
                        lambda self, cube: tests.append(1) or wpd(self, cube))
    assert not replay(diag, dataclasses.replace(short, budget=300))
    assert len(tests) == 31


def test_replay_rejects_certificate_for_a_different_polynomial():
    p = X[0] * X[0] - 2 * X[0] + ONE
    other = 3 * X[0] * X[1] + ONE
    assert not replay(p, certify(other))

