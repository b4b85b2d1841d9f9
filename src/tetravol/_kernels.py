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
times: x_(d mod 5), along which the walk splits it, leads.  The walk
makes one half of a split at a time (``child``), DILATE[n] or DILATE[n]
@ REFLECT[n] of S, when it pops that half, from the parent it brought in
range (``fit``) when it split it.

Limbs 0..k-2 hold fractions r * 2^-43, r an integer in [0, 2^43), and
the signed top limb an integer, so a value is negative iff its top limb
is.  Every float is thus an integer times a power of two, and float64
arithmetic is exact while every partial sum, counted in units of 2^-43
below the top, stays below 2^53, as in FFLAS-FFPACK's exact linear
algebra over BLAS (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  The
largest absolute row sums of PREFIX, REFLECT, DILATE and DILATE_REFLECT,
whose transposes are the products' right factors, are 7, 21, 64 and 320,
so a product's partial sums stay below 320 * 2^43 < 2^51.4 units, in
whatever order or FMA the BLAS uses, if its input's top limb is below
2^43, with room for a carry of at most 320 (44-bit limbs would leave
under one bit to spare, 45 would overflow).  It ends by carrying low to
high, floor(u) passing up from a fraction limb u, and keeps a top below
320 * 2^43 + 320, whose sign is all WPD reads.  Inputs and roots are
fitted (``_fit``): a top out of range splits alike into one more limb,
except where ``from_poly``'s coefficients bound every top in range.

``child`` makes only the top limb of a half, the map applied to its
parent's top limb: t, the half's top before the carry from below.  Of a
one-limb half that is all of it; a multi-limb half keeps its lower limbs
and carry unmade until a method reads them (``_made``).  A WPD leaf's
answer is mostly fixed by t already, since the carry is bounded.  Each
lower limb of a fitted parent lies in [0, 1), so on row i of the half's
map, with F_i and C_i the sums of the magnitudes of its negative and of
its positive entries, a lower limb's product plus 2^-43 times the carry
from below lies in [-F_i, C_i), and the carry it passes up, its floor,
in [-F_i, C_i - 1], by induction from the lowest limb.  And t_i, like
F_i and C_i, is a multiple of g_i, the gcd of row i.  So when min t >
max_i (F_i - g_i), every t_i >= F_i and the half is WPD ('W'), its
lower limbs never made; when min t < min_i (g_i - C_i), the row where t
is least has t_i <= -C_i and the half is not (an 'S', made whole by
``fit``); only in between does ``wpd`` make the half and test it.
``SETTLES`` holds both bounds and max_i F_i per side and extent.  Row 0
of either map is 2^(n-1) times a unit vector, so the origin's carry is
in [0, 2^(n-1) - 1] and its t, a multiple of 2^(n-1), has the sign of
the made top: ``origin_negative`` reads t alone, made or not.  ``wpd``
keeps the least top it read, or a lower bound on it, and ``fit`` then
reads only the greatest top when the bound is above -2^43.

``from_poly`` reads a polynomial only through ``Polynomial.arrays``:
the exponent matrix gives the box and each coefficient's flat index,
and the int64 or object coefficient array is split into limbs by
whole-array floor remainders and shifts, exact on either dtype.

The engine answers for the cube under test, the one it made last:
``from_poly`` and ``child`` make it, ``origin_negative``, ``wpd`` and
``corner_value`` read it, and ``fit`` makes it whole, brings it in range
and returns its record, the parent that ``child`` takes.  It writes the
cube it makes at depth d of the walk, the root at depth 0, into one flat
buffer kept for that depth (``_slots[d]``), grown when too small and
never shrunk, so a warm engine makes no new array.  Each depth also
keeps one record per cube shape (``_Views``): the cube and its depth,
its limb rows for the carry of ``_normalize``, its top limb for the
reductions and the origin test, its top-limb and lower-limb operands as
a parent, and its top and lower output views as a half.  So the views
are made once per depth and shape, not on every product, and a warm
walk makes no view either.  When a depth's buffer grows, its records
are made anew on the new buffer, and ``from_poly`` and ``child`` drop
the cube under test before they take a buffer, so no record keeps an
old buffer alive.  A buffer grows only while all the buffers together
stay within ``MEMORY_CAP`` bytes; a walk that would pass the cap stops
with ``MemoryCapError`` before it allocates.
``from_poly`` runs its five passes between the buffers of depths 1 and
0, ending at 0.  ``fit`` widens a cube into its own depth's buffer: in
place, ``_fit`` leaves the lower limbs where they lie and splits the
top limb where it lies before writing the new top above it, and a grown
buffer is a new array, so either way the cube is read before it is
overwritten.  A cube is valid until the engine next makes a cube at its
depth, and one walk runs at a time per engine: ``positive_dominance``
walks only while it holds its lock, as threads share the engine that
``get_backend`` caches.  The walk keeps to that because it is depth
first: a parent pending at depth d - 1 outlasts the halves it makes at
depth d, and once a cube is made at depth d no pending entry refers to
the one before.  A half whose lower limbs are
unmade can be made whole until the engine next makes a cube, as its
parent, at the depth above, is unchanged until then: the walk reads a
WPD half no more, and tests, fits or reads the corner of any other half
before it pops the next.  Every limb is written before it is read, so
no root depends on an earlier walk.  The carry
of ``_normalize`` runs through a scratch row per size, also kept on the
engine, so walks on two engines never share memory.  ``dilate`` and
``reflect`` write to fresh arrays: the walk never calls them, but the
benchmark's tracer and the tests' oracle checks do (ROADMAP item 27).

The two halves of a split are one cube when the root is its own mirror
image along the split's axis, and then the walk need make only one.  A
cube at depth d < 5 is the root mapped along axes 0, ..., d - 1 alone,
by DILATE or DILATE_REFLECT on each (``fit`` changes no value), and a
map along one axis commutes with REFLECT along another.  So if REFLECT
along axis d maps the root to itself, it maps the cube to itself, and
the cube's right half, DILATE @ REFLECT of it, is its left half, DILATE
of it: one value, in as many limbs, as both are made from one fitted
parent.  The walk's actions in a subtree, and whether ``fit`` widens its
cubes, depend only on the values, limb counts and depths of its cubes,
so the left half's subtree takes the actions of the right half's, which
the walk has just finished.  The walk asks ``twin`` as it pops a left
half, with the index in its actions where the right half's subtree
starts, which it noted at the split, as it pops the right half next.
For a twin, ``wpd`` answers every step of the subtree from those
actions, and ``fit`` returns None for each split, so the walk makes none
of its cubes; ``origin_negative`` is unchanged, since the cube under
test stays the last leaf the walk made, whose origin it found not
negative.  ``twin`` tests an axis at most once per walk, by one product
of REFLECT with the root, exact on a one-limb root, whose entries are
below 2^43, as REFLECT's rows sum to at most 21 in magnitude; it takes a
multi-limb root for no twin.  A test costs about a step, so it waits
until a right half's subtree has taken TWIN_SPAN steps, and a walk of at
most TWIN_SPAN steps tests no axis.  A walk that its budget cuts in a
twin's subtree leaves the engine answering the rest of it, ``wpd`` and
``fit`` from the walk's actions, until ``from_poly`` makes the next
root.
"""

from __future__ import annotations

from functools import cache, partial
from math import comb, prod

import numpy as np

LIMB_BITS = 43
LIMB = float(1 << LIMB_BITS)
UNIT = 2.0 ** -LIMB_BITS  # 1 / LIMB, so x * UNIT is x / LIMB to the bit

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
# the right factors of _product: each map's C-contiguous transpose
PREFIX_T, REFLECT_T, DILATE_T, DILATE_REFLECT_T = (
    {n: np.ascontiguousarray(m.T) for n, m in table.items()}
    for table in (PREFIX, REFLECT, DILATE, DILATE_REFLECT))
# child's maps by side: 0 the left half, 1 the right
HALVES_T = (DILATE_T, DILATE_REFLECT_T)
# SETTLES[side][n], for the left (side 0) and right half of extent n:
# (w, s, f) = (1 + max_i (F_i - g_i), min_i (g_i - C_i), max_i F_i) over
# the rows i of the half's map (module notes), which a test derives
SETTLES = ({n: (0, 1 - (1 << n - 1), 0) for n in range(1, 8)},
           {1: (0, 0, 0), 2: (0, -1, 0), 3: (0, -3, 0), 4: (1, -8, 4),
            5: (9, -24, 16), 6: (33, -64, 48), 7: (97, -160, 128)})


def _value(limbs):
    """The Python int held by one coefficient's limbs, lowest first."""
    v = int(limbs[-1])
    for limb in reversed(limbs[:-1]):
        v = (v << LIMB_BITS) + int(limb * LIMB)
    return v


# a twin test costs about a step, so ``twin`` tests an axis only once a
# right half's subtree has taken this many steps (module notes)
TWIN_SPAN = 16

# the most bytes an engine's depth buffers may hold in all; the 36
# pinned walks hold 4.0 MB
MEMORY_CAP = 512 << 20


class MemoryCapError(MemoryError):
    """A walk's buffers would pass ``MEMORY_CAP``."""


class _Views:
    """A cube of k limbs, leading extent n, and the views of it that the
    engine reads and writes: its limb rows, flat, the last its top limb;
    its limbs' leading axis last, top and lower limbs apart, as a
    product's left operand; and its limbs with their last axis last, as
    a product's output.  ``turned`` is the shape of its products, and
    ``depth``, set on the records of the depth buffers, the walk's depth
    of the cube."""

    __slots__ = ("cube", "depth", "n", "turned", "rows", "top", "top_in",
                 "low_in", "top_out", "low_out")

    def __init__(self, cube):
        k, n = cube.shape[:2]
        self.cube, self.n = cube, n
        self.turned = (k,) + cube.shape[2:] + (n,)
        self.rows = tuple(cube.reshape(k, -1))
        self.top = self.rows[-1]
        ins = cube.reshape(k, n, -1).transpose(0, 2, 1)
        self.top_in, self.low_in = ins[-1:], ins[:-1]
        outs = cube.reshape(k, -1, cube.shape[-1])
        self.top_out, self.low_out = outs[-1:], outs[:-1]


def _fresh(shape):
    """The views of a new array in shape, outside the depth buffers."""
    return _Views(np.empty(shape))


def _normalize(views, empty=np.empty):
    """Carry limbs low to high, in place, into a top limb of any size:
    exact on integers below 2^53, in units of 2^-43 below the top, whose
    carries fit in the limb above.  The carry row is empty(size).  A
    one-limb cube has nothing to carry."""
    rows = views.rows
    if len(rows) > 1:
        carry = empty(len(rows[0]))
        for low, high in zip(rows, rows[1:]):
            np.floor(low, out=carry)
            low -= carry
            high += carry if high is views.top else np.multiply(
                carry, UNIT, out=carry)
    return views.cube


def _fit(views, empty=_fresh, least=-np.inf):
    """The record of the cube if its top limb is in range, else of its
    value one limb wider, written into the cube of empty(shape), which
    may share its memory.  least, a lower bound on the top's entries,
    spares their minimum above -2^43."""
    top, cube = views.top, views.cube
    if (np.maximum.reduce(top) < LIMB
            and (least > -LIMB or np.minimum.reduce(top) > -LIMB)):
        return views
    wide = empty((len(cube) + 1,) + cube.shape[1:])
    wide.cube[:-2] = cube[:-1]
    # floor division: a negative top gives a fraction under a carry >= -321
    split = wide.rows[-2]
    np.multiply(top, UNIT, out=split)
    np.floor(split, out=wide.top)
    split -= wide.top
    return wide


class NumpyBackend:
    """Exact float64 limb engine, answering for the cube it made last."""

    name = "numpy"

    def __init__(self):
        # depth -> the flat buffer that the cubes made at that depth view
        self._slots = {}
        # depth -> shape -> the _Views of the cube in that shape viewing
        # depth's buffer
        self._records = {}
        # _normalize's carry, one scratch row per size, for this engine's
        # one walk at a time
        self._carry_row = cache(np.empty)
        # the cube under test: its record; while child leaves its lower
        # limbs unmade, their parent's record and side, else None; and
        # the least top wpd read of it, or a lower bound on it, for fit
        self._tested, self._unmade, self._least = None, None, -np.inf
        # the actions of a twin's subtree still to answer, last first;
        # per axis twin tested, whether the root is its own reflection
        # along it; and the root's shape, its record's key at depth 0
        self._replay, self._mirrored, self._root = [], {}, None

    def from_poly(self, p):
        """The root cube of p, at depth 0, by five PREFIX passes: the
        cube under test."""
        if p.nvars != 5:
            raise ValueError("expected a 5-variable polynomial")
        exps, vals = p.arrays()
        shape = tuple((exps.max(axis=1, initial=0) + 1).tolist())
        if max(shape) > 7:
            raise ValueError("per-variable degree exceeds 6")
        self._tested, self._unmade, self._least = None, None, -np.inf
        self._replay, self._mirrored = [], {}
        top = max(int(vals.max(initial=0)), -int(vals.min(initial=0)))
        k = top.bit_length() // LIMB_BITS + 1
        views = self._tested = self._slot(1, (k,) + shape)
        views.cube.fill(0)
        flat = np.ravel_multi_index(exps, shape)
        for row in views.rows[:-1]:
            row[flat] = vals % (1 << LIMB_BITS) * UNIT
            vals = vals >> LIMB_BITS
        views.top[flat] = vals
        # each box sum of a pass, or of the root, sums some of the n
        # coefficients c, so its top limb is at most |c|_1 / 2^(43(k-1))
        # + 1 < sum(|t|) + n + 1 in magnitude, for t = c >> 43(k-1) the
        # top limbs: if that is at most 2^43, no pass input needs _fit
        fit = int(abs(vals).sum()) + len(vals) >= LIMB
        # the passes alternate between depths 1 and 0, ending at 0
        for depth in (0, 1, 0, 1, 0):
            self._tested = self._product(
                self.fit() if fit else self._tested, PREFIX_T, depth)
        root = (self.fit() if fit else self._tested).cube
        self._root = root.shape
        return root

    def wpd(self):
        if self._replay:
            return self._replay.pop() == "W"
        least = np.minimum.reduce(self._tested.top)
        if self._unmade:
            parent, side = self._unmade
            w, s, f = SETTLES[side][parent.n]
            if least >= w:
                return True
            if least < s:
                self._least = least - f
                return False
            least = np.minimum.reduce(self._made().top)
        self._least = least
        return bool(least >= 0)

    def origin_negative(self):
        # the origin's carry never changes its top's sign, and in a twin's
        # subtree the cube under test is the last leaf made (module notes)
        return bool(self._tested.top[0] < 0)

    def corner_value(self):
        return _value(self._made().cube[:, 0, 0, 0, 0, 0].tolist())

    # only perfbench/tracer.py and tests call them; ROADMAP item 27 drops them
    def dilate(self, cube, axis):
        return self._product(_fit(_Views(cube)), DILATE_T).cube

    def reflect(self, cube, axis):
        return self._product(_fit(_Views(cube)), REFLECT_T).cube

    def fit(self):
        """The record of the cube under test, made whole, if its top limb
        is in range, else of its value one limb wider, at the same depth,
        which becomes the cube under test: the parent ``child`` takes;
        None in a twin's subtree, whose halves the walk does not make."""
        if self._replay:
            return None
        views = self._made()
        self._tested = _fit(views, partial(self._slot, views.depth),
                            self._least)
        return self._tested

    def child(self, parent, side):
        """One half, the cube under test, of a split of parent, a record
        ``fit`` returned, along its leading axis: the left (side 0) or the
        right (side 1), at the depth below parent's.  Only its top limb is
        made yet (module notes)."""
        self._tested, self._unmade, self._least = None, None, -np.inf
        half = self._tested = self._slot(parent.depth + 1, parent.turned)
        np.matmul(parent.top_in, HALVES_T[side][parent.n], out=half.top_out)
        if len(parent.rows) > 1:
            self._unmade = parent, side
        return half.cube

    def twin(self, parent, actions, start):
        """Whether the left half of a split of parent, a record ``fit``
        returned, is its right half, whose subtree is actions[start:],
        the walk's actions since it popped that half.  If so, ``wpd`` and
        ``fit`` answer for the left half and its subtree from the right
        half's actions, and the walk makes none of their cubes (module
        notes)."""
        depth = parent.depth
        mirrored = self._mirrored.get(depth)
        if depth > 4 or mirrored is False or (
                mirrored is None and len(actions) - start < TWIN_SPAN):
            return False
        if mirrored is None:
            mirrored = self._mirrored[depth] = self._mirrors(depth)
        if mirrored:
            self._replay = actions[:start - 1:-1]
        return mirrored

    def _mirrors(self, axis):
        """Whether x_axis -> 1 - x_axis maps the root to itself, decided
        exactly by one product on a one-limb root; False on a multi-limb
        root (module notes)."""
        root = self._records[0][self._root].cube
        if len(root) > 1:
            return False
        top = np.moveaxis(root[0], axis, -1)
        return np.array_equal(top @ REFLECT_T[top.shape[-1]], top)

    def _made(self):
        """The record of the cube under test, its lower limbs and carry
        made now if child left them unmade."""
        views = self._tested
        if self._unmade:
            parent, side = self._unmade
            self._unmade = None
            np.matmul(parent.low_in, HALVES_T[side][parent.n],
                      out=views.low_out)
            _normalize(views, self._carry_row)
        return views

    def _product(self, views, table, depth=None):
        """table[n], a map's transpose, on the leading axis of each limb
        of a record's cube whose top limb is in range, written turned,
        that axis last, into depth's slot, or a fresh array for no depth:
        one BLAS product for the top limb and one for the lower limbs.
        Returns the output's record."""
        out = (_fresh(views.turned) if depth is None
               else self._slot(depth, views.turned))
        np.matmul(views.top_in, table[views.n], out=out.top_out)
        if len(views.rows) > 1:
            np.matmul(views.low_in, table[views.n], out=out.low_out)
        _normalize(out, self._carry_row)
        return out

    def _slot(self, depth, shape):
        """The record of the cube in shape viewing depth's buffer, the
        buffer grown first if too small."""
        try:
            return self._records[depth][shape]
        except KeyError:
            pass
        size = prod(shape)
        buffer = self._slots.get(depth)
        if buffer is None or len(buffer) < size:
            buffer = self._grow(depth, size)
        views = self._records[depth][shape] = _Views(
            buffer[:size].reshape(shape))
        views.depth = depth
        return views

    def _grow(self, depth, size):
        """A new buffer of size floats for depth, unless the buffers would
        then pass MEMORY_CAP, with depth's records made anew on it."""
        held = 8 * size + sum(buffer.nbytes for d, buffer
                              in self._slots.items() if d != depth)
        if held > MEMORY_CAP:
            raise MemoryCapError(
                "a walk at depth %d would take the engine's buffers to %d "
                "bytes, past its cap of %d" % (depth, held, MEMORY_CAP))
        stale = self._records.get(depth, {})
        self._records[depth] = {}
        buffer = self._slots[depth] = np.empty(size)
        for shape in stale:
            self._slot(depth, shape)
        return buffer

    # a no-op that only perfbench/tracer.py binds (ROADMAP item 27)
    def guard(self, cube):
        pass


# perfbench/run.py records this in every run's environment block
NUMBA_AVAILABLE = False

_ENGINE = NumpyBackend()


def get_backend():
    """The one engine instance, shared by every walk."""
    return _ENGINE
