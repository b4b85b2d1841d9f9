"""The Cayley-Menger determinant of four points and its edge derivatives.

Coordinates follow the fixed edge order (d12, d13, d14, d23, d24, d34).
``build_f`` returns the determinant as a degree-6 polynomial in the six
edge lengths; it equals 288 times the squared volume of the tetrahedron
with those lengths.  ``directional_derivative`` sums the partials over
an edge subset, the combination whose sign controls whether lengthening
those edges grows the volume.
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
        """Parse a spec like ``"12"`` or ``"12,34"`` or ``"12,13,14"``."""
        toks = [t for t in text.replace(" ", "").split(",") if t]
        indices = []
        for t in toks:
            if len(t) != 2 or not t.isdigit():
                raise ValueError("bad edge token %r" % t)
            indices.append(EdgeIndex.of(int(t[0]), int(t[1])))
        return cls(indices)

    @classmethod
    def full(cls):
        return cls(range(6))

    def classify(self):
        """Isomorphism-type tag of the edge subset."""
        n = len(self.indices)
        if n == 1:
            return "single-edge"
        if n == 2:
            k1, k2 = sorted(self.indices)
            if (k1, k2) in AXIS_PAIRS:
                return "opposite-pair"
            return "incident-pair"
        if n == 3:
            counts = sorted(self._degrees().values())
            if counts == [1, 1, 1, 3]:
                return "tripod"
            if counts == [2, 2, 2]:
                return "3-cycle"
            return "3-path"
        if n == 4:
            comp = EdgeSubset(set(range(6)) - self.indices)
            if comp.classify() == "opposite-pair":
                return "4-cycle"
            return "complement-of-incident-pair"
        if n == 5:
            return "complement-of-edge"
        return "full-K4"

    def _degrees(self):
        degs = {}
        for k in self.indices:
            for v in EDGES[k]:
                degs[v] = degs.get(v, 0) + 1
        return degs

    def spec(self):
        """Canonical text spec, the inverse of parse()."""
        return ",".join("%d%d" % EDGES[k] for k in sorted(self.indices))

    def __eq__(self, other):
        return isinstance(other, EdgeSubset) and self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return "EdgeSubset(%s)" % self.spec()


def _det(matrix):
    """Determinant by cofactor expansion; entries are Polynomials."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    nvars = matrix[0][0].nvars
    total = Polynomial.zero(nvars)
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        cof = entry * _det(minor)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def _bordered_matrix(squares):
    """The 5x5 bordered matrix with the given squared-length entries."""
    one = Polynomial.constant(squares[0].nvars, 1)
    zero = Polynomial.zero(squares[0].nvars)
    m = [[zero, one, one, one, one]]
    for i in range(1, 5):
        row = [one]
        for j in range(1, 5):
            if i == j:
                row.append(zero)
            else:
                row.append(squares[EdgeIndex.of(i, j)])
        m.append(row)
    return m


def build_f_on_squares():
    """The determinant as a degree-3 polynomial in the six squared lengths."""
    squares = [Polynomial.variable(6, k) for k in range(6)]
    return _det(_bordered_matrix(squares))


def build_f():
    """The determinant as a degree-6 polynomial in the six edge lengths."""
    squares = [Polynomial.variable(6, k) ** 2 for k in range(6)]
    return _det(_bordered_matrix(squares))


@functools.cache
def f_polynomial():
    """Cached build_f()."""
    return build_f()


@functools.cache
def f_hat_polynomial():
    """Cached build_f_on_squares()."""
    return build_f_on_squares()


def directional_derivative(beta):
    """Sum of the partials of f over the edges of ``beta``."""
    if not isinstance(beta, EdgeSubset):
        beta = EdgeSubset(beta)
    f = f_polynomial()
    total = Polynomial.zero(6)
    for k in sorted(beta.indices):
        total = total + f.partial_derivative(k)
    return total


def clear_denominators(d):
    """Integer numerators of d over their least common denominator.

    Returns (numerators, denominator).  Only int and Fraction entries
    are accepted: a float has no exact numerator to read.
    """
    for x in d:
        if not isinstance(x, (int, Fraction)):
            raise TypeError("coordinates must be int or Fraction, not %s"
                            % type(x).__name__)
    scale = math.lcm(*(x.denominator for x in d))
    return [x.numerator * (scale // x.denominator) for x in d], scale


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
    if any(x <= 0 for x in ints):
        return None
    for slots in FACES.values():
        a, b, c = (ints[s] for s in slots)
        if a + b <= c or a + c <= b or b + c <= a:
            return None
    value = f_polynomial().evaluate(ints)
    if value <= 0:
        return None
    return value if scale == 1 else Fraction(value, scale ** 6)  # degree 6


def volume_squared(d):
    """Exact squared volume f(d)/288 as a Fraction."""
    ints, scale = clear_denominators(d)
    return Fraction(f_polynomial().evaluate(ints), 288 * scale ** 6)
