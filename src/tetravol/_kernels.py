"""Dense coefficient-cube engines for the dominance certifier.

A 5-variable polynomial with per-variable degree <= 6 lives in a dense
coefficient cube.  The certifier's hot operations (the WPD test, axis
dilation, axis reflection) are implemented twice:

* ``numpy``: a cube is one C-contiguous int64 array of shape
  (k, D0+1, ..., D4+1) holding sum_i cube[i] * 2^(56*i), D_a being the
  largest exponent of x_a in the root.  It stores the box partial sums
  S of the coefficients c (S[i] sums c[j] over j <= i), made by five
  prefix passes in ``from_poly`` and undone by five difference passes
  in ``to_poly``.  Subdivision keeps every degree of c (reflection
  maps its top slab to plus or minus itself, dilation scales slabs by
  nonzero powers of two), so each descendant spans the root's degree
  box and ``dilate`` reads its top exponent from the shape; past D_a a
  box sum is constant along axis a, so WPD, S >= 0, is one sign test
  on the box.  ``origin_negative`` and ``corner_value`` read S at the
  origin, where it is c.  Reflection and dilation act along one axis,
  so on S they are the small integer maps REFLECT[n] and DILATE[n],
  which commute with the prefix sums along the other axes.  Limbs
  0..k-2 lie in [0, 2^56) and the signed top limb has |top| < 2^56, so
  a value is negative iff its top limb is.  56 bits keeps every
  intermediate inside int64: the maps' largest absolute row sums are
  21 and 64, and 64 * 2^56 = 2^62 leaves room for a carry; a prefix
  pass grows entries at most 7 times and a difference pass 2 times.
  Each pass and operation ends with a normalization that carries limbs
  low to high and appends a limb while the top one is out of range, so
  a run is exact at any size.
* ``numba``: cubes are pairs of flat 7^5 int64 arrays holding two-limb
  values hi*2^40 + lo with lo in [0, 2^40).  Kernels are jitted, exact
  up to a guarded magnitude bound of 2^85 per coefficient; exceeding
  the guard raises BackendOverflow, and the certifier reruns on
  ``numpy``.

Select with the TETRAVOL_BACKEND environment variable ("numba" or
"numpy"); default is numba when importable.  Naming numba, by argument
or by the environment variable, where numba cannot be imported raises
BackendUnavailable: a named engine is never swapped for another.
"""

from __future__ import annotations

import os
from math import prod

import numpy as np

from .exact_poly import Polynomial

SHAPE = (7, 7, 7, 7, 7)
SIZE = 7 ** 5
LIMB_BITS = 40
LIMB = 1 << LIMB_BITS
COEFF_LIMIT = 1 << 85
GUARD_HI = 1 << 45

# the numpy engine's limb width
NP_LIMB_BITS = 56
NP_LIMB = 1 << NP_LIMB_BITS
NP_MASK = NP_LIMB - 1

INNER = tuple(7 ** (4 - a) for a in range(5))
OUTER = tuple(7 ** a for a in range(5))

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


class BackendOverflow(RuntimeError):
    """A two-limb coefficient left the guarded magnitude range."""


class BackendUnavailable(RuntimeError):
    """A backend was named that cannot run in this interpreter."""


def flat_index(exps):
    idx = 0
    for e in exps:
        idx = idx * 7 + e
    return idx


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

    def guard(self, cube):
        pass


# -- numba engine -------------------------------------------------------

try:
    from numba import njit
    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if args and callable(args[0]):
            return args[0]
        return wrap


@njit(cache=True, nogil=True)
def _k_wpd(hi, lo):
    h = hi.copy()
    l = lo.copy()
    for a in range(5):
        inner = 1
        for _ in range(4 - a):
            inner *= 7
        outer = 1
        for _ in range(a):
            outer *= 7
        last = a == 4
        for o in range(outer):
            base_o = o * 7 * inner
            for i in range(inner):
                ah = np.int64(0)
                al = np.int64(0)
                for k in range(7):
                    idx = base_o + k * inner + i
                    al += l[idx]
                    ah += h[idx]
                    q = al >> 40
                    al -= q << 40
                    ah += q
                    if last and ah < 0:
                        return False
                    h[idx] = ah
                    l[idx] = al
    return True


@njit(cache=True, nogil=True)
def _k_max_exponent(hi, lo, inner, outer):
    for k in range(6, -1, -1):
        for o in range(outer):
            base = (o * 7 + k) * inner
            for i in range(inner):
                if hi[base + i] != 0 or lo[base + i] != 0:
                    return k
    return 0


@njit(cache=True, nogil=True)
def _k_dilate(hi, lo, inner, outer, E):
    for o in range(outer):
        for k in range(E):
            m = np.int64(1) << (E - k)
            base = (o * 7 + k) * inner
            for i in range(inner):
                idx = base + i
                nl = lo[idx] * m
                nh = hi[idx] * m
                q = nl >> 40
                hi[idx] = nh + q
                lo[idx] = nl - (q << 40)


@njit(cache=True, nogil=True)
def _k_reflect(hi, lo, inner, outer, binom, out_hi, out_lo):
    for o in range(outer):
        base_o = o * 7 * inner
        for i in range(inner):
            base = base_o + i
            for j in range(7):
                ah = np.int64(0)
                al = np.int64(0)
                for e in range(j, 7):
                    b = binom[e, j]
                    if b != 0:
                        idx = base + e * inner
                        ah += hi[idx] * b
                        al += lo[idx] * b
                q = al >> 40
                out_hi[base + j * inner] = ah + q
                out_lo[base + j * inner] = al - (q << 40)


@njit(cache=True, nogil=True)
def _k_max_abs_hi(hi):
    m = np.int64(0)
    for i in range(hi.size):
        v = hi[i]
        if v < 0:
            v = -v
        if v > m:
            m = v
    return m


class NumbaBackend:
    """Two-limb int64 engine with jitted kernels."""

    name = "numba"

    def from_poly(self, p):
        if p.nvars != 5:
            raise ValueError("expected a 5-variable polynomial")
        if p.max_variable_degree() > 6:
            raise ValueError("per-variable degree exceeds 6")
        hi = np.zeros(SIZE, dtype=np.int64)
        lo = np.zeros(SIZE, dtype=np.int64)
        for exps, c in p.terms.items():
            if not -COEFF_LIMIT < c < COEFF_LIMIT:
                raise BackendOverflow("coefficient exceeds two-limb range")
            q, r = divmod(c, LIMB)
            idx = flat_index(exps)
            hi[idx] = q
            lo[idx] = r
        return hi, lo

    def to_poly(self, cube):
        hi, lo = cube
        terms = {}
        for idx in range(SIZE):
            v = int(hi[idx]) * LIMB + int(lo[idx])
            if v:
                exps = []
                rem = idx
                for a in range(5):
                    exps.append(rem // INNER[a])
                    rem %= INNER[a]
                terms[tuple(exps)] = v
        return Polynomial(5, terms)

    def wpd(self, cube):
        return bool(_k_wpd(cube[0], cube[1]))

    def origin_negative(self, cube):
        return cube[0][0] < 0

    def corner_value(self, cube):
        return int(cube[0][0]) * LIMB + int(cube[1][0])

    def dilate(self, cube, axis):
        hi, lo = cube[0].copy(), cube[1].copy()
        E = _k_max_exponent(hi, lo, INNER[axis], OUTER[axis])
        _k_dilate(hi, lo, INNER[axis], OUTER[axis], E)
        return hi, lo

    def reflect(self, cube, axis):
        hi, lo = cube
        out_hi = np.empty(SIZE, dtype=np.int64)
        out_lo = np.empty(SIZE, dtype=np.int64)
        _k_reflect(hi, lo, INNER[axis], OUTER[axis], SIGNED_BINOM,
                   out_hi, out_lo)
        return out_hi, out_lo

    def guard(self, cube):
        if int(_k_max_abs_hi(cube[0])) > GUARD_HI:
            raise BackendOverflow("coefficient magnitude exceeded the guard")


_BACKENDS = {}


def get_backend(name=None):
    """Resolve a backend by name, env var, or availability.

    A named backend that cannot run raises BackendUnavailable.
    """
    if name is None:
        name = os.environ.get("TETRAVOL_BACKEND", "").strip() or None
    if name is None:
        name = "numba" if NUMBA_AVAILABLE else "numpy"
    if name not in ("numba", "numpy"):
        raise ValueError("unknown backend %r" % name)
    if name == "numba" and not NUMBA_AVAILABLE:
        raise BackendUnavailable(
            "the numba backend was requested but numba cannot be imported;"
            " install it (pip install numba) or select the numpy backend"
            " (backend=\"numpy\", --backend numpy or TETRAVOL_BACKEND=numpy)")
    if name not in _BACKENDS:
        _BACKENDS[name] = NumbaBackend() if name == "numba" else NumpyBackend()
    return _BACKENDS[name]
