"""The dense coefficient-cube engine behind the dominance certifier.

A 5-variable polynomial with per-variable degree <= 6 lives in a dense
cube, on which the certifier's hot operations (the WPD test, axis
dilation, axis reflection) run.  A cube is one C-contiguous int64 array
of shape (k, D0+1, ..., D4+1) holding sum_i cube[i] * 2^(56*i), D_a
being the largest exponent of x_a in the root.  It stores the box
partial sums S of the coefficients c (S[i] sums c[j] over j <= i), made
by five prefix passes in ``from_poly`` and undone by five difference
passes in ``to_poly``.  Subdivision keeps every degree of c (reflection
maps its top slab to plus or minus itself, dilation scales slabs by
nonzero powers of two), so each descendant spans the root's degree box
and ``dilate`` reads its top exponent from the shape; past D_a a box sum
is constant along axis a, so WPD, S >= 0, is one sign test on the box.
``origin_negative`` and ``corner_value`` read S at the origin, where it
is c.  Reflection and dilation act along one axis, so on S they are the
small integer maps REFLECT[n] and DILATE[n], which commute with the
prefix sums along the other axes.

Limbs 0..k-2 lie in [0, 2^56) and the signed top limb has
|top| < 2^56, so a value is negative iff its top limb is.  56 bits
keeps every intermediate inside int64: the maps' largest absolute row
sums are 21 and 64, and 64 * 2^56 = 2^62 leaves room for a carry; a
prefix pass grows entries at most 7 times and a difference pass 2
times.  Each pass and operation ends with a normalization that carries
limbs low to high and appends a limb while the top one is out of range,
so a run is exact at any size.

``get_backend`` returns the one engine instance.  It accepts the name
"numpy", by argument or by the TETRAVOL_BACKEND environment variable,
and raises ValueError for any other name.
"""

from __future__ import annotations

import os
from math import prod

import numpy as np

from .exact_poly import Polynomial

# the limb width
NP_LIMB_BITS = 56
NP_LIMB = 1 << NP_LIMB_BITS
NP_MASK = NP_LIMB - 1

# Signed Pascal rows: SIGNED_BINOM[e, j] = (-1)^j * C(e, j), the
# coefficient of x^j in (1-x)^e.
_BINOM = [[0] * 7 for _ in range(7)]
for _e in range(7):
    _BINOM[_e][0] = 1
    for _j in range(1, _e + 1):
        _BINOM[_e][_j] = _BINOM[_e - 1][_j - 1] + _BINOM[_e - 1][_j]
SIGNED_BINOM = np.array(
    [[(-1) ** j * _BINOM[e][j] for j in range(7)] for e in range(7)],
    dtype=np.int64)


def _on_box_sums(m):
    """P · m · Δ, m acting on box sums; P is all-ones lower-triangular."""
    n = len(m)
    delta = np.eye(n, dtype=np.int64) - np.eye(n, k=-1, dtype=np.int64)
    return np.tril(np.ones((n, n), dtype=np.int64)) @ m @ delta


# REFLECT[n] and DILATE[n] act on the box sums along an axis of extent
# n: x -> 1 - x, and x -> x / 2 with denominators cleared by 2^(n - 1)
REFLECT = {n: _on_box_sums(SIGNED_BINOM[:n, :n].T) for n in range(1, 8)}
DILATE = {n: _on_box_sums(np.diag(1 << np.arange(n - 1, -1, -1)))
          for n in range(1, 8)}


def _value(limbs):
    """The Python int held by one coefficient's limbs, lowest first."""
    v = 0
    for limb in reversed(limbs):
        v = (v << NP_LIMB_BITS) + limb
    return v


def _axis_view(cube, axis):
    """A (k, outer, n, inner) view; index 2 is the exponent of x_axis."""
    n = cube.shape[axis + 1]
    return cube.reshape(len(cube), prod(cube.shape[1:axis + 1]), n, -1)


def _normalize(cube):
    """Carry limbs low to high, then widen until the top limb fits.

    Takes any int64 limb array whose entries leave headroom for one
    carry and returns an array that meets the limb invariant, in place
    unless a limb had to be appended.
    """
    for i in range(len(cube) - 1):
        cube[i + 1] += cube[i] >> NP_LIMB_BITS
        cube[i] &= NP_MASK
    while cube[-1].max() >= NP_LIMB or cube[-1].min() <= -NP_LIMB:
        cube = np.concatenate((cube, cube[-1:] >> NP_LIMB_BITS))
        cube[-2] &= NP_MASK
    return cube


class NumpyBackend:
    """Exact int64 limb engine; cubes hold box sums over the degree box."""

    name = "numpy"

    def from_poly(self, p):
        if p.nvars != 5:
            raise ValueError("expected a 5-variable polynomial")
        axes = [list(col) for col in zip(*p.terms)] or [[]] * 5
        shape = tuple(max(col, default=0) + 1 for col in axes)
        if max(shape) > 7:
            raise ValueError("per-variable degree exceeds 6")
        vals = list(p.terms.values())
        bits = max((abs(c).bit_length() for c in vals), default=0)
        k = bits // NP_LIMB_BITS + 1
        cube = np.zeros((k,) + shape, dtype=np.int64)
        for i in range(k - 1):
            cube[(i, *axes)] = [v & NP_MASK for v in vals]
            vals = [v >> NP_LIMB_BITS for v in vals]
        cube[(k - 1, *axes)] = vals
        # each pass grows entries at most 7 times
        for a in range(5):
            cube = _normalize(np.cumsum(cube, axis=a + 1))
        return cube

    def to_poly(self, cube):
        # each pass grows entries at most 2 times
        for a in range(5):
            cube = _normalize(np.diff(cube, axis=a + 1, prepend=0))
        exps = np.nonzero(cube.any(axis=0))
        limbs = cube[(slice(None), *exps)].T.tolist()
        keys = zip(*(e.tolist() for e in exps))
        return Polynomial(5, {e: _value(v) for e, v in zip(keys, limbs)})

    def wpd(self, cube):
        return not (cube[-1] < 0).any()

    def origin_negative(self, cube):
        return bool(cube[-1, 0, 0, 0, 0, 0] < 0)

    def corner_value(self, cube):
        return _value(cube[:, 0, 0, 0, 0, 0].tolist())

    def dilate(self, cube, axis):
        # Row i < n-1 of D_n is its last row's first i entries, then twice
        # its i-th, so with u = D[n-1] S: out[i] = u[0] + ... + u[i] + u[i]
        # and out[n-1] = u[0] + ... + u[n-1]
        n = cube.shape[axis + 1]
        out = _axis_view(cube, axis) * DILATE[n][-1, :, None]
        run = 0
        for i in range(n - 1):
            run += out[:, :, i]
            out[:, :, i] += run
        out[:, :, -1] += run
        return _normalize(out.reshape(cube.shape))

    def reflect(self, cube, axis):
        n = cube.shape[axis + 1]
        out = REFLECT[n] @ _axis_view(cube, axis)
        return _normalize(out.reshape(cube.shape))

    # a no-op kept because perfbench/tracer.py wraps it on the instance
    def guard(self, cube):
        pass


# perfbench/run.py records this in every run's environment block
NUMBA_AVAILABLE = False

_ENGINE = NumpyBackend()


def get_backend(name=None):
    """The engine named by name, else by TETRAVOL_BACKEND; only "numpy"."""
    if name is None:
        name = os.environ.get("TETRAVOL_BACKEND", "").strip() or "numpy"
    if name != "numpy":
        raise ValueError("unknown engine %r; the only engine is 'numpy'"
                         % name)
    return _ENGINE
