"""Weak positive dominance and the divide-and-conquer certifier.

A polynomial on the unit cube is weakly positive dominant (WPD) when
every downward-closed box partial sum of its coefficients is
nonnegative; WPD implies nonnegativity on the cube.  Polynomials that
fail the test are split in half along axis ``depth % 5``, so the axes
take turns, the two halves being the dilation of the polynomial and the
dilation of its reflection, both rescaled by a power of two to stay
integral.

One walk, ``_traverse``, does all of this: it drives a LIFO work list
of cubes until every leaf is WPD, a cube goes negative at the origin
(yielding an exact negative witness), or a step budget runs out, and it
records one action per step ('S' split, 'W' WPD leaf, 'N' negative
origin).  ``certify`` runs it once.  ``replay`` runs it again under the
certificate's budget, stopping at the first action that differs from
the recorded ones, and accepts only when the walk re-derives the whole
certificate: status, counters, histogram, actions and witness.

Both run on the float64 limb engine of ``_kernels``, which widens a cube
instead of overflowing, so a walk is exact at any coefficient size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ._kernels import get_backend


def _lineage_str(lineage):
    return ",".join("%s%d" % (side, axis) for axis, side in lineage)


@dataclass
class Certificate:
    """Outcome of a certification run."""

    status: str
    steps: int
    wpd_tests: int
    subdivisions: int
    max_depth: int = 0
    histogram: Tuple[int, ...] = (0, 0, 0, 0, 0)
    actions: str = ""
    witness_lineage: Optional[str] = None
    witness_corner: Optional[int] = None
    budget: int = 0

    def to_report(self):
        lines = [
            "status: %s" % self.status,
            "steps: %d" % self.steps,
            "wpd-tests: %d" % self.wpd_tests,
            "subdivisions: %d" % self.subdivisions,
        ]
        if self.status == "Nonnegative":
            lines.append("max-depth: %d" % self.max_depth)
            lines.append("split-histogram: %s"
                         % " ".join(str(h) for h in self.histogram))
        if self.status == "NegativeWitness":
            lines.append("witness-lineage: %s" % (self.witness_lineage or "-"))
            lines.append("witness-corner: %d" % self.witness_corner)
        if self.status == "BudgetExhausted":
            lines.append("budget: %d" % self.budget)
        return "\n".join(lines) + "\n"


def is_wpd(p):
    """True iff every downward-closed box partial sum is nonnegative."""
    eng = get_backend()
    return eng.wpd(eng.from_poly(p))


def certify(p, budget=10 ** 6):
    """Certify p >= 0 on the unit cube, or find a negative corner.

    Deterministic: the same polynomial and budget give the same
    certificate.
    """
    return _traverse(p, budget, get_backend())


def replay(p, certificate):
    """True iff a fresh walk re-derives exactly this certificate.

    The walk runs under the certificate's budget and stops at the first
    action that differs from its recorded ones, so it never takes more
    than one step past them.
    """
    return certificate == _traverse(p, certificate.budget, get_backend(),
                                    certificate.actions)


def _traverse(p, budget, eng, expect=None):
    """The subdivision walk; None as soon as an action differs from expect."""
    stack = [(eng.from_poly(p), ())]
    steps = wpd_tests = subdivisions = 0
    max_depth = 0
    hist = [0] * 5
    actions = []

    def outcome(status, **witness):
        return Certificate(status, steps, wpd_tests, subdivisions,
                           max_depth, tuple(hist), "".join(actions),
                           budget=budget, **witness)

    while stack:
        if steps >= budget:
            return outcome("BudgetExhausted")
        cube, lineage = stack.pop()
        steps += 1
        if eng.origin_negative(cube):
            act = "N"
        else:
            wpd_tests += 1
            act = "W" if eng.wpd(cube) else "S"
        if expect is not None and expect[steps - 1:steps] != act:
            return None
        actions.append(act)
        if act == "N":
            return outcome("NegativeWitness",
                           witness_lineage=_lineage_str(lineage),
                           witness_corner=eng.corner_value(cube))
        if act == "W":
            eng.recycle(cube)
            continue
        subdivisions += 1
        j = len(lineage) % 5
        hist[j] += 1
        left, right = eng.split(cube, j)
        eng.recycle(cube)
        max_depth = max(max_depth, len(lineage) + 1)
        stack.append((left, lineage + ((j, "L"),)))
        stack.append((right, lineage + ((j, "R"),)))
    return outcome("Nonnegative")
