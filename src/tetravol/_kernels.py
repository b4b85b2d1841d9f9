"""The dense coefficient-cube engine behind the dominance certifier.

A 5-variable polynomial with per-variable degree <= 6 lives in a cube:
one C-contiguous float64 array holding in k limbs (below) the box
partial sums S of its coefficients c (S[i] sums c[j] over j <= i) on
the root's degree box, D_a + 1 entries along x_a for D_a the top
exponent of x_a.  Subdivision keeps every degree of c (reflection maps
its top slab to plus or minus itself, dilation scales slabs by nonzero
powers of two), so each descendant spans that box; past D_a a box sum
is constant along axis a, so WPD, S >= 0, is one sign test, and
``origin_negative`` and ``corner_value`` read S at the origin, where it
is c.  A small integer map acts on the leading axis, as one BLAS product
with its transpose, and turns the axes by one, that axis last (the
cyclic layout of sum factorization: Deville, Fischer and Mund, CUP
2002).  So the five PREFIX products of ``from_poly`` leave the root in
natural order, (k, D0+1, ..., D4+1), and a cube at depth d has turned d
times: x_(d mod 5), which the walk splits into DILATE[n] and DILATE[n] @
REFLECT[n] of S, leads.

Limbs 0..k-2 hold fractions r * 2^-43, r an integer in [0, 2^43), and
the signed top limb an integer with |top| < 2^43, so a value is negative
iff its top limb is.  Every float is thus an integer times a power of
two, and float64 arithmetic is exact while every partial sum, counted in
units of 2^-43 below the top, stays below 2^53, as in FFLAS-FFPACK's
exact linear algebra over BLAS (Dumas, Giorgi and Pernet, ACM TOMS
35(3), 2008).  The largest absolute row sums of PREFIX, REFLECT, DILATE
and DILATE_REFLECT, whose transposes are the products' right factors,
are 7, 21, 64 and 320, so a product's partial sums stay below
320 * 2^43 < 2^51.4 units in whatever order or FMA the BLAS uses, with
room for a carry of at most 320 (44-bit limbs would leave under one bit
to spare, 45 would overflow).  Each operation ends by carrying low to
high, floor(u) passing up from a fraction limb u, and splitting a top
limb out of range alike: exact at any size.

The walk hands back (``recycle``) each cube it has tested or split, and
products write into those, saving fresh arrays' page faults; two per
element count, what a split takes, are kept until the next ``from_poly``.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import comb

import numpy as np

LIMB_BITS = 43
LIMB = float(1 << LIMB_BITS)

# Signed Pascal rows: (-1)^j * C(e, j), the x^j coefficient of (1-x)^e
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
# the right factors of _apply: each map's C-contiguous transpose
PREFIX_T, REFLECT_T, DILATE_T, DILATE_REFLECT_T = (
    {n: np.ascontiguousarray(m.T) for n, m in table.items()}
    for table in (PREFIX, REFLECT, DILATE, DILATE_REFLECT))
# _normalize's carry, one scratch slab per size: calls must not overlap
_carry_slab = cache(np.empty)


def _value(limbs):
    """The Python int held by one coefficient's limbs, lowest first."""
    v = int(limbs[-1])
    for limb in reversed(limbs[:-1]):
        v = (v << LIMB_BITS) + int(limb * LIMB)
    return v


def _normalize(cube):
    """Carry limbs low to high, then widen once if the top limb is out.

    Takes a float64 limb array of integers below 2^53, in units of 2^-43
    below the top, whose carries fit in the limb above, and returns an
    array that meets the limb invariant, in place unless it widens.
    """
    carry = _carry_slab(cube[0].size).reshape(cube.shape[1:])
    for i in range(len(cube) - 1):
        np.floor(cube[i], out=carry)
        cube[i] -= carry
        cube[i + 1] += carry if i == len(cube) - 2 else np.divide(
            carry, LIMB, out=carry)
    top = cube[-1]
    if top.max() >= LIMB or top.min() <= -LIMB:
        # floor division: a negative top becomes a nonnegative limb
        # under a negative carry, which is at most 2^10 in magnitude
        np.floor(np.divide(top, LIMB, out=top), out=carry)
        top -= carry
        cube = np.concatenate((cube, carry[None]))
    return cube


def _apply(cube, table, out):
    """table[n], a map's transpose, on the leading axis, into out turned."""
    k, n = cube.shape[:2]
    np.matmul(cube.reshape(k, n, -1).transpose(0, 2, 1), table[n],
              out=out.reshape(k, -1, n))
    return _normalize(out)


class NumpyBackend:
    """Exact float64 limb engine; cubes hold box sums over the degree box."""

    name = "numpy"

    def __init__(self):
        self._spares = {}  # element count -> cubes the walk is done with

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
        self._spares = {}  # two buffers take turns, then one is left
        for _ in range(5):
            cube, done = self._turn(cube, PREFIX_T), cube
            self.recycle(done)
        return cube

    def wpd(self, cube):
        return bool(cube[-1].min() >= 0)

    def origin_negative(self, cube):
        return bool(cube[-1, 0, 0, 0, 0, 0] < 0)

    def corner_value(self, cube):
        return _value(cube[:, 0, 0, 0, 0, 0].tolist())

    # like split; only perfbench/tracer.py binds them (ROADMAP item 5)
    def dilate(self, cube, axis):
        return self._turn(cube, DILATE_T)

    def reflect(self, cube, axis):
        return self._turn(cube, REFLECT_T)

    def split(self, cube, axis):
        """Both halves along the leading axis, x_axis for the walk."""
        return self._turn(cube, DILATE_T), self._turn(cube, DILATE_REFLECT_T)

    def _turn(self, cube, table):
        """_apply into a spare, reshaped to the turned axes, if one is left."""
        shape = cube.shape[:1] + cube.shape[2:] + cube.shape[1:2]
        spares = self._spares.get(cube.size)
        out = spares.pop().reshape(shape) if spares else np.empty(shape)
        return _apply(cube, table, out)

    def recycle(self, cube):
        """Take back a cube the caller will not read again, for split."""
        spares = self._spares.setdefault(cube.size, [])
        if len(spares) < 2:
            spares.append(cube)

    # a no-op that only perfbench/tracer.py binds (ROADMAP item 5)
    def guard(self, cube):
        pass


# perfbench/run.py records this in every run's environment block
NUMBA_AVAILABLE = False

_ENGINE = NumpyBackend()


def get_backend():
    """The one engine instance, shared by every walk."""
    return _ENGINE
