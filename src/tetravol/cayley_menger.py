"""The Cayley-Menger determinant of four points and its edge derivatives.

Coordinates follow the fixed edge order (d12, d13, d14, d23, d24, d34).
``f_hat_value`` is the determinant's one statement: its 22-term closed
form in the six squared lengths, which equals 288 times the squared
volume of the tetrahedron with those lengths.  It evaluates one length
list at a time for the sampled checks, and ``f_polynomial`` applies it
to the squared edge variables to get f as a degree-6 polynomial in the
six edge lengths.  ``directional_derivative`` sums the partials of f
over an edge subset, the combination whose sign controls whether
lengthening those edges grows the volume.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exact_poly import Polynomial

EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# Face (i,j,k) of the tetrahedron -> the three coordinate slots of its edges.
FACES = {
    (1, 2, 3): (0, 1, 3),
    (1, 2, 4): (0, 2, 4),
    (1, 3, 4): (1, 2, 5),
    (2, 3, 4): (3, 4, 5),
}

# Opposite-edge pairs (the three "axes" of K4) and per-vertex edge stars.
AXIS_PAIRS = ((0, 5), (1, 4), (2, 3))
VERTEX_EDGES = {1: (0, 1, 2), 2: (0, 3, 4), 3: (1, 3, 5), 4: (2, 4, 5)}

# Sorted vertex degrees of a nonempty edge subset -> its isomorphism
# type, one line per edge count.
TYPE_BY_DEGREES = {
    (0, 0, 1, 1): "single-edge",
    (0, 1, 1, 2): "incident-pair", (1, 1, 1, 1): "opposite-pair",
    (1, 1, 1, 3): "tripod", (0, 2, 2, 2): "3-cycle", (1, 1, 2, 2): "3-path",
    (2, 2, 2, 2): "4-cycle", (1, 2, 2, 3): "complement-of-incident-pair",
    (2, 2, 3, 3): "complement-of-edge",
    (3, 3, 3, 3): "full-K4",
}


class EdgeIndex:
    """Fixed bijection between K4 edges and coordinates 0..5."""

    _BY_PAIR = {pair: k for k, pair in enumerate(EDGES)}

    @staticmethod
    def of(i, j):
        a, b = (i, j) if i < j else (j, i)
        try:
            return EdgeIndex._BY_PAIR[(a, b)]
        except KeyError:
            raise ValueError("no edge (%r, %r)" % (i, j))


class EdgeSubset:
    """A nonempty set of K4 edges, with its isomorphism-type tag."""

    def __init__(self, indices):
        idx = frozenset(int(k) for k in indices)
        if not idx:
            raise ValueError("edge subset must be nonempty")
        if not idx <= set(range(6)):
            raise ValueError("edge index out of range")
        self.indices = idx

    @classmethod
    def parse(cls, text):
        """Parse a spec like ``"12"`` or ``"12,34"`` or ``"12,13,14"``.

        Raises ValueError on a malformed token or an edge named twice,
        as in ``"12,21"``.
        """
        toks = [t for t in text.replace(" ", "").split(",") if t]
        indices = []
        for t in toks:
            if len(t) != 2 or not t.isdigit():
                raise ValueError("bad edge token %r" % t)
            k = EdgeIndex.of(int(t[0]), int(t[1]))
            if k in indices:
                raise ValueError("repeated edge %r" % t)
            indices.append(k)
        return cls(indices)

    @classmethod
    def full(cls):
        return cls(range(6))

    def classify(self):
        """Isomorphism-type tag: the sorted ``degrees()`` looked up in
        ``TYPE_BY_DEGREES``, as the ten types have ten distinct sorted
        degree lists, from 0011 for one edge to 3333 for the full K4.
        """
        return TYPE_BY_DEGREES[tuple(sorted(self.degrees()))]

    def degrees(self):
        """How many of the subset's edges meet each of vertices 1..4."""
        return tuple(sum(k in self.indices for k in VERTEX_EDGES[v])
                     for v in (1, 2, 3, 4))

    def spec(self):
        """Canonical text spec, the inverse of parse()."""
        return ",".join("%d%d" % EDGES[k] for k in sorted(self.indices))

    def __eq__(self, other):
        return isinstance(other, EdgeSubset) and self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return "EdgeSubset(%s)" % self.spec()


@functools.cache
def f_polynomial():
    """The determinant as a degree-6 polynomial in the six edge lengths.

    f(d) = f_hat(d^2): ``f_hat_value`` applied to the squared edge
    variables.  Cached, so every caller shares one polynomial.
    """
    return f_hat_value([Polynomial.variable(6, k) ** 2 for k in range(6)])


@functools.cache
def _edge_partial(k):
    """The partial of f in edge length k; cached, as every edge subset
    through k sums it."""
    return f_polynomial().partial_derivative(k)


@functools.cache
def directional_derivative(beta):
    """Sum of the partials of f over the edges of the EdgeSubset ``beta``.

    Cached: an EdgeSubset hashes and compares by its indices.  The
    partials are summed in sorted edge order, which fixes the result's
    term order.
    """
    total = Polynomial.zero(6)
    for k in sorted(beta.indices):
        total = total + _edge_partial(k)
    return total


def clear_denominators(d):
    """Integer numerators of the six entries of d over their least
    common denominator.

    Returns (numerators, denominator).  Only int and Fraction entries
    are accepted: a float has no exact numerator to read.
    """
    x0, x1, x2, x3, x4, x5 = d
    if (type(x0) is type(x1) is type(x2) is type(x3) is type(x4)
            is type(x5) is int):
        return list(d), 1
    for x in d:
        if not isinstance(x, (int, Fraction)):
            raise TypeError("coordinates must be int or Fraction, not %s"
                            % type(x).__name__)
    scale = math.lcm(*(x.denominator for x in d))
    return [x.numerator * (scale // x.denominator) for x in d], scale


def f_hat_value(s):
    """f_hat at the six squared lengths s, by its 22-term closed form.

    The bordered Cayley-Menger determinant written out: each pair of
    opposite edges adds its product times the sum of the other four less
    its own two, and each face takes off the product of its three edges.
    The entries may be ints, Fractions or Polynomials.
    """
    s0, s1, s2, s3, s4, s5 = s
    return 2 * (s0 * s5 * (s1 + s2 + s3 + s4 - s0 - s5)
                + s1 * s4 * (s0 + s2 + s3 + s5 - s1 - s4)
                + s2 * s3 * (s0 + s1 + s4 + s5 - s2 - s3)
                - s0 * s1 * s3 - s0 * s2 * s4 - s1 * s2 * s5 - s3 * s4 * s5)


def strict_faces(d):
    """The strict triangle inequality on each face of FACES.

    Strict inequalities on a face force its three lengths positive, and
    every edge lies on a face, so this also tests d > 0.
    """
    d0, d1, d2, d3, d4, d5 = d
    return (abs(d0 - d1) < d3 < d0 + d1 and abs(d0 - d2) < d4 < d0 + d2
            and abs(d1 - d2) < d5 < d1 + d2 and abs(d3 - d4) < d5 < d3 + d4)


def is_tetrahedral(d):
    """True when the six lengths are realized by a nondegenerate tetrahedron.

    Requires positive entries, a strict triangle inequality on each of
    the four faces, and a positive determinant.  Rational input is
    scaled to integers first so every comparison is exact.
    """
    return tetrahedral_f(d) is not None


def tetrahedral_f(d):
    """f(d) if ``is_tetrahedral(d)``, else None, from one evaluation of f."""
    if len(d) != 6:
        raise ValueError("need six lengths")
    ints, scale = clear_denominators(d)
    if not strict_faces(ints):
        return None
    value = f_hat_value([x * x for x in ints])
    if value <= 0:
        return None
    return value if scale == 1 else Fraction(value, scale ** 6)  # degree 6
