"""The dense coefficient-cube engine behind the dominance certifier.

A 5-variable polynomial with per-variable degree <= 6 lives in a dense
cube, on which the certifier's hot operations (the WPD test, the split
of a cube into two halves along one axis) run.  A cube is one
C-contiguous float64 array of shape (k, D0+1, ..., D4+1) holding each
entry in k limbs (below), D_a being the largest exponent of x_a in the
root.  It stores the box partial sums S of the coefficients c (S[i] sums
c[j] over j <= i), made in ``from_poly`` by one PREFIX product per axis.
Subdivision keeps every degree of c (reflection maps its top slab to
plus or minus itself, dilation scales slabs by nonzero powers of two),
so each descendant spans the root's degree box; past D_a a box sum is
constant along axis a, so WPD, S >= 0, is one sign test on the box.
``origin_negative`` and ``corner_value`` read S at the origin, where it
is c.  Along one axis the halves of a split act on S as the small
integer maps DILATE[n] and DILATE[n] @ REFLECT[n], one BLAS product each.

Limbs 0..k-2 hold fractions r * 2^-43, r an integer in [0, 2^43), and
the signed top limb an integer with |top| < 2^43, so a value is negative
iff its top limb is.  Every float is thus an integer times a power of
two, and float64 arithmetic is exact while every partial sum, counted in
units of 2^-43 below the top, stays below 2^53, as in FFLAS-FFPACK's
exact linear algebra over BLAS (Dumas, Giorgi and Pernet, ACM TOMS
35(3), 2008).  The largest absolute row sums of PREFIX, REFLECT, DILATE
and DILATE_REFLECT are 7, 21, 64 and 320, so a product's partial sums
stay below 320 * 2^43 < 2^51.4 units in whatever order or FMA the BLAS
uses, with room for a carry of at most 320 (44-bit limbs would leave
under one bit to spare, 45 would overflow).  Each operation
ends by carrying low to high, floor(u) passing up from a fraction limb
u, and splitting a top limb out of range alike: exact at any size.

The walk hands back (``recycle``) each cube it has tested or split, and
``split`` writes its halves into those, saving fresh arrays' page faults;
two per shape, what a split takes, are kept until the next ``from_poly``.
"""

from __future__ import annotations

from itertools import chain
from math import comb, prod

import numpy as np

# the limb width
LIMB_BITS = 43
LIMB = float(1 << LIMB_BITS)

# Signed Pascal rows: SIGNED_BINOM[e, j] = (-1)^j * C(e, j), the
# coefficient of x^j in (1-x)^e.
SIGNED_BINOM = np.array([[(-1) ** j * comb(e, j) for j in range(7)]
                         for e in range(7)], dtype=np.int64)
# PREFIX[n], all-ones lower-triangular, takes coefficients to box sums
PREFIX = {n: np.tril(np.ones((n, n))) for n in range(1, 8)}


def _on_box_sums(m):
    """PREFIX · m · Δ: the coefficient map m acting on box sums."""
    n = len(m)
    return PREFIX[n] @ m @ (np.eye(n) - np.eye(n, k=-1))


# REFLECT[n] and DILATE[n] act on the box sums along an axis of extent
# n: x -> 1 - x, and x -> x / 2 with denominators cleared by 2^(n - 1);
# DILATE_REFLECT[n] is their product, the right half of a split
REFLECT = {n: _on_box_sums(SIGNED_BINOM[:n, :n].T) for n in range(1, 8)}
DILATE = {n: _on_box_sums(np.diag(1 << np.arange(n - 1, -1, -1)))
          for n in range(1, 8)}
DILATE_REFLECT = {n: DILATE[n] @ REFLECT[n] for n in range(1, 8)}


def _value(limbs):
    """The Python int held by one coefficient's limbs, lowest first."""
    v = int(limbs[-1])
    for limb in reversed(limbs[:-1]):
        v = (v << LIMB_BITS) + int(limb * LIMB)
    return v


def _axis_view(cube, axis):
    """A (k, outer, n, inner) view; index 2 is the exponent of x_axis."""
    n = cube.shape[axis + 1]
    return cube.reshape(len(cube), prod(cube.shape[1:axis + 1]), n, -1)


def _normalize(cube):
    """Carry limbs low to high, then widen once if the top limb is out.

    Takes a float64 limb array of integers below 2^53, in units of 2^-43
    below the top, whose carries fit in the limb above, and returns an
    array that meets the limb invariant, in place unless it widens.
    """
    carry = np.empty_like(cube[0])
    for i in range(len(cube) - 1):
        np.floor(cube[i], out=carry)
        cube[i] -= carry
        cube[i + 1] += carry if i == len(cube) - 2 else carry / LIMB
    top = cube[-1]
    if top.max() >= LIMB or top.min() <= -LIMB:
        # floor division: a negative top becomes a nonnegative limb
        # under a negative carry, which is at most 2^10 in magnitude
        np.floor(np.divide(top, LIMB, out=top), out=carry)
        top -= carry
        cube = np.concatenate((cube, carry[None]))
    return cube


def _apply(cube, axis, table, out):
    """table[n] applied along axis, written to out and normalized."""
    n = cube.shape[axis + 1]
    if axis == 4:
        np.matmul(cube.reshape(-1, n), table[n].T, out=out.reshape(-1, n))
    else:
        np.matmul(table[n], _axis_view(cube, axis), out=_axis_view(out, axis))
    return _normalize(out)


class NumpyBackend:
    """Exact float64 limb engine; cubes hold box sums over the degree box."""

    name = "numpy"

    def __init__(self):
        self._spares = {}  # shape -> cubes the walk is done with

    def from_poly(self, p):
        if p.nvars != 5:
            raise ValueError("expected a 5-variable polynomial")
        vals = list(p.terms.values())
        exps = np.fromiter(chain(*p.terms), np.intp).reshape(-1, 5)
        shape = tuple((exps.max(axis=0, initial=0) + 1).tolist())
        if max(shape) > 7:
            raise ValueError("per-variable degree exceeds 6")
        k = max(map(abs, vals), default=0).bit_length() // LIMB_BITS + 1
        cube = np.zeros((k,) + shape)
        rows, flat = cube.reshape(k, -1), np.ravel_multi_index(exps.T, shape)
        for i in range(k - 1):
            rows[i, flat] = [v % (1 << LIMB_BITS) / LIMB for v in vals]
            vals = [v >> LIMB_BITS for v in vals]
        rows[k - 1, flat] = vals
        # two buffers take turns; a pass that widens needs a new one
        spare = np.empty_like(cube)
        for a in range(5):
            out = _apply(cube, a, PREFIX, spare)
            cube, spare = out, cube if out is spare else np.empty_like(out)
        self._spares = {cube.shape: [spare]}  # for the walk's first split
        return cube

    def wpd(self, cube):
        return bool(cube[-1].min() >= 0)

    def origin_negative(self, cube):
        return bool(cube[-1, 0, 0, 0, 0, 0] < 0)

    def corner_value(self, cube):
        return _value(cube[:, 0, 0, 0, 0, 0].tolist())

    # the walk only splits; only perfbench/tracer.py binds dilate and
    # reflect by name, until the benchmark drops them (ROADMAP item 5)
    def dilate(self, cube, axis):
        return _apply(cube, axis, DILATE, np.empty_like(cube))

    def reflect(self, cube, axis):
        return _apply(cube, axis, REFLECT, np.empty_like(cube))

    def split(self, cube, axis):
        """The dilation and dilated reflection along axis, in spares."""
        spares = self._spares.get(cube.shape, [])
        left = spares.pop() if spares else np.empty_like(cube)
        right = spares.pop() if spares else np.empty_like(cube)
        return (_apply(cube, axis, DILATE, left),
                _apply(cube, axis, DILATE_REFLECT, right))

    def recycle(self, cube):
        """Take back a cube the caller will not read again, for split."""
        spares = self._spares.setdefault(cube.shape, [])
        if len(spares) < 2:
            spares.append(cube)

    # a no-op that only perfbench/tracer.py binds, until the benchmark
    # drops it (ROADMAP item 5)
    def guard(self, cube):
        pass


# perfbench/run.py records this in every run's environment block
NUMBA_AVAILABLE = False

_ENGINE = NumpyBackend()


def get_backend():
    """The one engine instance, shared by every walk."""
    return _ENGINE
