"""Weak positive dominance and the divide-and-conquer certifier.

A polynomial on the unit cube is weakly positive dominant (WPD) when
every downward-closed box partial sum of its coefficients is
nonnegative; WPD implies nonnegativity on the cube.  Polynomials that
fail the test are split in half along axis ``depth % 5``, so the axes
take turns, the two halves being the dilation of the polynomial and the
dilation of its reflection, both rescaled by a power of two to stay
integral.

One walk, ``_traverse``, does all of this: it drives a LIFO work list
until every leaf is WPD, a cube goes negative at the origin (yielding an
exact negative witness), or a step budget runs out, and it records one
action per step ('S' split, 'W' WPD leaf, 'N' negative origin).  A split
brings the cube in range once and pushes its two halves as pending
entries, each the parent and a side; popping one makes that half alone,
so a walk that stops early makes no cube it does not test.
When the root is its own mirror image along a split's axis, the split's
two halves are one cube (``_kernels``' notes), so the left half's
subtree takes the actions the walk has just taken for the right half's.
The walk asks the engine's ``twin`` as it pops a left half, telling it
where the right half's subtree starts in the actions, and for a twin
the engine answers each step of that subtree from those actions,
still one ``wpd`` per 'W' or 'S', and makes none of its cubes: the same
actions at less cost, in ``certify`` and ``replay`` alike.
The actions are the split tree in preorder, so ``tree_shape`` reads the
tree's levels, the walk's peak stack and the path to its last node off
them alone, in one pass, and ``_read`` the counters, the histogram and
the witness lineage from those.  ``certify`` runs the walk once.
``replay`` runs it again under the certificate's budget, stopping at
the first action that differs from the recorded ones, and accepts only
when the walk re-derives the whole certificate: status, counters,
histogram, actions and witness.

Both run on the float64 limb engine of ``_kernels``, which widens a cube
instead of overflowing, so a walk is exact at any coefficient size.  It
answers for the cube it made last, so the walk passes it no cube.
``get_backend`` returns one shared engine whose buffers serve one walk
at a time, so ``certify`` and ``replay`` walk while holding the lock
``_WALK``: walks started by several threads take turns.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

from ._kernels import get_backend

_WALK = threading.Lock()


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


def certify(p, budget=10 ** 6):
    """Certify p >= 0 on the unit cube, or find a negative corner.

    Deterministic: the same polynomial and budget give the same
    certificate.
    """
    with _WALK:
        return _traverse(p, budget, get_backend())


def replay(p, certificate):
    """True iff a fresh walk re-derives exactly this certificate.

    The walk runs under the certificate's budget and stops at the first
    action that differs from its recorded ones, so it never takes more
    than one step past them.
    """
    with _WALK:
        return certificate == _traverse(p, certificate.budget,
                                        get_backend(), certificate.actions)


def _traverse(p, budget, eng, expect=None):
    """The subdivision walk; None as soon as an action differs from expect.

    An entry on the stack is the root, made already, (None, None, 0), or
    a half still to be made: the parent ``fit`` returned, its side, 0
    left or 1 right, and for a left half the index in the actions where
    its right half's subtree starts, since the walk pops the right half
    next.  The engine tests the cube it made last and keeps it until it
    makes the next cube at its depth; the walk is depth first, so a
    parent outlasts its halves, and no cube is read after the next one
    at its depth.  In a twin's subtree ``fit`` returns None, so its
    halves are entries (None, side, start), which the engine answers
    without making them.
    """
    eng.from_poly(p)
    stack = [(None, None, 0)]
    actions = []
    status, corner = "Nonnegative", None
    while stack:
        if len(actions) >= budget:
            status = "BudgetExhausted"
            break
        parent, side, start = stack.pop()
        # the engine answers a left half that twins the right one
        if parent is not None and (
                side or not eng.twin(parent, actions, start)):
            eng.child(parent, side)
        if eng.origin_negative():
            act = "N"
        else:
            act = "W" if eng.wpd() else "S"
        if expect is not None and not expect.startswith(act, len(actions)):
            return None
        actions.append(act)
        if act == "S":
            parent = eng.fit()
            stack += ((parent, 0, len(actions)), (parent, 1, 0))
        elif act == "N":
            status, corner = "NegativeWitness", eng.corner_value()
            break
    return _read(status, actions, budget, corner)


def _read(status, actions, budget, corner=None):
    """The certificate of a walk that stopped in status after actions.

    The actions list the split tree in the walk's preorder, right child
    first, and a witness is the last node visited.
    """
    actions = "".join(actions)
    levels, _, path = tree_shape(actions)
    splits = [level[0] for level in levels]
    lineage = None
    if status == "NegativeWitness":
        # level k splits axis k % 5
        lineage = ",".join("%s%d" % (side, k % 5)
                           for k, side in enumerate(path))
    # every level but the last holds a split
    return Certificate(
        status, len(actions), len(actions) - actions.count("N"), sum(splits),
        len(splits) - splits.count(0),
        tuple(sum(splits[j::5]) for j in range(5)), actions, lineage, corner,
        budget)


def tree_shape(actions):
    """The split tree's levels, the walk's peak stack and the path to the
    last node it visited, from its actions.

    levels[d] counts the 'S', 'W' and 'N' nodes at depth d, in that
    order, peak is the most entries the walk's stack held, the root's
    included, and the path has one "L" or "R" per level above the last
    node.  The walk pops a right half before its left one and finishes
    the right half's subtree first, so when it stops its stack holds
    depth k + 1 exactly where the path went right at level k: the left
    half waits.
    """
    levels, stack, peak, depth = [], [0], 1, 0
    for act in actions:
        depth = stack.pop()
        if depth == len(levels):
            levels.append([0, 0, 0])
        if act == "S":
            levels[depth][0] += 1
            stack += (depth + 1, depth + 1)
            peak = max(peak, len(stack))
        else:
            levels[depth][1 if act == "W" else 2] += 1
    path = "".join("R" if k + 1 in stack else "L" for k in range(depth))
    return [tuple(level) for level in levels], peak, path
