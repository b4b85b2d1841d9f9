"""The object-dtype cube engine, kept as the oracle for the limb engine.

Cubes are (7,)*5 object arrays of Python ints, so every operation is
exact at any size by construction, and slow.  The tests compare the
package's float64 limb engine with it operation by operation and run by
run, decoding its cubes with ``to_poly``.
"""

import numpy as np

from tetravol._kernels import SIGNED_BINOM, _normalize, _value
from tetravol.exact_poly import Polynomial

SHAPE = (7,) * 5


def turn(cube, turns):
    """A contiguous copy of a limb cube with its axes turned turns times."""
    return np.ascontiguousarray(
        cube.transpose(0, *[(i + turns) % 5 + 1 for i in range(5)]))


def to_poly(cube, turns=0):
    """The polynomial whose box sums a limb-engine cube holds.

    turns is the number of times the cube's axes have been turned.
    """
    cube = turn(cube, -turns)
    # each difference pass grows entries at most 2 times
    for a in range(5):
        cube = _normalize(np.diff(cube, axis=a + 1, prepend=0))
    exps = np.nonzero(cube.any(axis=0))
    limbs = cube[(slice(None), *exps)].T.tolist()
    keys = zip(*(e.tolist() for e in exps))
    return Polynomial(5, {e: _value(v) for e, v in zip(keys, limbs)})


class ObjectEngine:
    """Exact object-dtype engine; cubes are (7,)*5 arrays of ints."""

    name = "object"

    def from_poly(self, p):
        if p.nvars != 5:
            raise ValueError("expected a 5-variable polynomial")
        if max(map(max, p.terms), default=0) > 6:
            raise ValueError("per-variable degree exceeds 6")
        cube = np.zeros(SHAPE, dtype=object)
        for exps, c in p.terms.items():
            cube[exps] = c
        return cube

    def to_poly(self, cube):
        terms = {}
        for exps in np.ndindex(SHAPE):
            c = cube[exps]
            if c:
                terms[exps] = int(c)
        return Polynomial(5, terms)

    def wpd(self, cube):
        acc = cube
        for a in range(5):
            acc = acc.cumsum(axis=a)
        return not (acc < 0).any()

    def origin_negative(self, cube):
        return cube[0, 0, 0, 0, 0] < 0

    def corner_value(self, cube):
        return int(cube[0, 0, 0, 0, 0])

    def max_exponent(self, cube, axis):
        for k in range(6, -1, -1):
            if (np.take(cube, k, axis=axis) != 0).any():
                return k
        return 0

    def dilate(self, cube, axis):
        E = self.max_exponent(cube, axis)
        out = cube.copy()
        sl = [slice(None)] * 5
        for k in range(E):
            sl[axis] = k
            out[tuple(sl)] *= 1 << (E - k)
        return out

    def reflect(self, cube, axis):
        out = np.zeros(SHAPE, dtype=object)
        sl = [slice(None)] * 5
        slabs = [np.take(cube, e, axis=axis) for e in range(7)]
        for j in range(7):
            acc = np.zeros(SHAPE[:axis] + SHAPE[axis + 1:], dtype=object)
            for e in range(j, 7):
                acc = acc + int(SIGNED_BINOM[e, j]) * slabs[e]
            sl[axis] = j
            out[tuple(sl)] = acc
        return out

    def split(self, cube, axis):
        right = self.dilate(self.reflect(cube, axis), axis)
        return self.dilate(cube, axis), right

    def recycle(self, cube):
        # every operation returns a fresh array, so nothing is reused
        pass
