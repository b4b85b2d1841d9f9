"""Exact integer witnesses for chambers where lengthening can lose volume.

For an edge subset beta, every chamber outside the certified region can
contain labelings with f > 0 (a genuine tetrahedron) whose volume drops
when the beta edges are lengthened, i.e. with directional derivative
g < 0.  This module searches such chambers for concrete witnesses: it
samples barycentric weights, prescreens with floating point, snaps onto
the integer lattice, and accepts only on exact integer evaluation of
both signs.  Accepted witnesses ship in a golden data file and are
re-verified through an independent evaluation path that shares no code
with the polynomial layer: it reads the squared lengths directly, never
the expanded polynomials nor the closed form that builds them.
Eliminating the border of the bordered squared-length matrix leaves a
symmetric 3x3 matrix M with the same determinant f, and by Jacobi's
formula every partial of f is linear in M's six cofactors, so g is read
off them.  Both are straight-line integer arithmetic on 2x2 minors,
with no pivoting loop.
The golden file holds one ``anti_certify`` search,
at its default seed and trials, per excluded chamber of each case
without a K4 campaign; ``tests/test_anti_certification.py`` regenerates
it and compares it line for line.

The prescreen's candidate mask is the exact sign test f > 0 and g < 0
at each float point: it decides which candidate a search snaps first,
so the golden witness file and the seeded campaign's prescreen count
hang on it.  A screen (``_Screen``) runs the verifier's own program,
``_cofactors`` and ``_jacobi_g``, on rows of floats, and decides a point
where a proven error band, its rounding counts read off that program's
lines, puts the exact value on the same side of zero.  It runs the same
program on Python ints at every point the band leaves open, alone, at
the integers the row's floats scale to.  Acceptance stays on the
expanded polynomials, so a witness's signs are still found on one path
and re-checked on the other.  Sampling draws one
block per chunk from the seeded generator and equals trial-by-trial
``rng.random()`` calls exactly.
"""

import functools
import math
import random
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .cayley_menger import (EdgeSubset, directional_derivative,
                            f_polynomial)
from .chamber_geometry import (build_partitions, certified_chambers,
                               decoration, decorations, in_cone)

SNAP_SCALE = 10 ** 10


@dataclass(frozen=True)
class Witness:
    """An exact sign witness (f > 0, g < 0) inside one chamber cone."""

    beta: str
    chamber: str
    point: tuple
    f_value: int
    g_value: int

    def line(self):
        coords = " ".join(str(c) for c in self.point)
        return "%s %s %s %d %d" % (self.beta, self.chamber, coords,
                                   self.f_value, self.g_value)

    @classmethod
    def parse(cls, text):
        parts = text.split()
        if len(parts) != 10:
            raise ValueError("witness line needs 10 fields: %r" % text)
        return cls(parts[0], parts[1], tuple(int(x) for x in parts[2:8]),
                   int(parts[8]), int(parts[9]))


# the nine comparators of an optimal sorting network on five keys
# (Knuth, TAOCP vol. 3, 5.3.4)
_NETWORK = ((0, 1), (3, 4), (2, 4), (2, 3), (0, 3), (0, 2), (1, 4), (1, 3),
            (1, 2))


def barycentric_block(rng, n):
    """n rows of six nonnegative weights summing to one.

    Each row holds the spacings of five sorted uniforms.  All 5n come
    from one ``getrandbits`` call, read as little-endian 64-bit pairs of
    32-bit words a | b << 32, least significant first.  Each pair makes
    in one pass the double CPython's ``random()`` makes from a and b,
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53: the integer is below 2**53,
    so its conversion and the power-of-two scale are exact.  A row's
    five cuts are sorted by ``_NETWORK``'s minima and maxima, which
    return one of their inputs, so the sorted values are the same
    floats.  The rows and the generator's final state equal those of
    trial-by-trial ``rng.random()`` calls.
    """
    pairs = np.frombuffer(rng.getrandbits(320 * n).to_bytes(40 * n, "little"),
                          dtype="<u8")
    # (a >> 5) << 26 is (a & ~31) << 21; b >> 6 is the pair >> 38
    cuts = ((pairs & 0xFFFFFFE0) << 21 | pairs >> 38).reshape(n, 5).T \
        .astype(np.float64)
    cuts *= 2.0 ** -53
    c = list(cuts)
    for i, j in _NETWORK:
        c[i], c[j] = np.minimum(c[i], c[j]), np.maximum(c[i], c[j])
    # the spacings of 0.0, the cuts and 1.0; the first, c - 0.0, is c
    # exactly
    weights = np.empty((n, 6))
    weights[:, 0] = c[0]
    for k in range(1, 5):
        np.subtract(c[k], c[k - 1], out=weights[:, k])
    np.subtract(1.0, c[4], out=weights[:, 5])
    return weights


class _Screen:
    """The candidate mask of a block: f > 0 and g < 0, exactly.

    The screen runs the verifier's own program, ``_cofactors`` and
    ``_jacobi_g``, on one contiguous (6, n) copy of the points, every
    operation on whole rows of floats.  It decides a point only where a
    proven band separates those floats from the exact values, and runs
    the same two functions on Python ints at each point it leaves open
    (``exact``).

    The band, with u = 2^-53 and m = max_k |x_k|, bounds the program's
    rounding on floats:

    - Scaling by 2 or 4, negation and ``sum``'s first addition, to 0,
      are exact; every other operation rounds once, multiplying each
      monomial under it by some 1 + delta, |delta| <= u.  Read off the
      program's lines, a monomial of a cofactor meets at most 8
      roundings (1 per square ``d * d`` of its two s, 2 per sum making
      b, c or e, 1 product, 1 difference); one of f at most 14 (3 more
      for its entry a, b or c, 1 product and 2 in the sum of three) and
      one of g at most 16 (2 in the sum that makes half_k, 1 product
      with x_k and 5 in ``sum`` over up to six edges).  So the error is
      at most gamma_N K m^deg (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., ch. 3), deg = 6 for f and 5 for
      g, and K the majorant, the program on |x| with every - turned
      into +, at x = (1, ..., 1): ``MAJORANT_F`` for f, and
      4 ``MAJORANT_HALF[k]`` summed over beta for g.
    - The band is 2^8 (1 + 2^-20) times that bound, as a factor of S^3
      for f and S^2 sqrt(S) for g, S = fl(m^2).  2^8 is a margin; the
      factor 1 + 2^-20 covers the few roundings that make these from S,
      which is at least m^2 (1 - u), and the constants' own.
    - A block is screened only when S lies in [``LOW``, ``HIGH``] on
      every row, so 2^-100 <= m <= 2^100, and is evaluated exactly row
      by row otherwise.  Then nothing overflows, and the underflows,
      each at most 2^-1074 absolutely, reach f or g scaled by at most
      2^20 max(1, m)^6 in all: under 2^-400 of the band, which is at
      least 2^-40 m^6 for f and 2^-40 m^5 for g.

    A point is a decided candidate when F > band_f and G < -band_g, and
    decided not to be one when F < -band_f or G > band_g; either way
    the exact values have the same signs.  So every point's mask is its
    exact sign test, whatever block it comes in.
    """

    # the majorants at x = (1, ..., 1): f's, and half_k's in edge order
    MAJORANT_F = 116
    MAJORANT_HALF = (43, 43, 43, 15, 15, 15)
    LOW, HIGH = 2.0 ** -200, 2.0 ** 200

    def __init__(self, beta):
        self.beta = beta
        self.band_f = self._band(self.MAJORANT_F, 14)
        self.band_g = self._band(
            4 * sum(self.MAJORANT_HALF[k] for k in beta.indices), 16)

    @staticmethod
    def _band(majorant, roundings):
        """The band over m^deg, from the bound above."""
        u = 2.0 ** -53
        return 2.0 ** 8 * (1 + 2.0 ** -20) * roundings * u \
            / (1 - roundings * u) * float(majorant)

    def bands(self, points):
        """(F, G, band_f, band_g) at the rows of points, or None when the
        squared lengths leave [LOW, HIGH]."""
        x = np.ascontiguousarray(points.T)
        top = np.abs(x).max(axis=0)
        top *= top
        if not (self.LOW <= top.min() and top.max() <= self.HIGH):
            return None
        f, cofactors = _cofactors(x)
        g = _jacobi_g(x, cofactors, self.beta)
        top2 = top * top
        return (f, g, self.band_f * (top2 * top),
                self.band_g * (top2 * np.sqrt(top)))

    def exact(self, row):
        """Whether f > 0 and g < 0 at a float row, in exact arithmetic.

        The row times the least common power of two of its floats'
        denominators is an integer point, and f and g are homogeneous,
        of degrees 6 and 5, so their signs there are those at the row.
        """
        ratios = [x.as_integer_ratio() for x in row.tolist()]
        scale = max(d for _, d in ratios)
        point = [n * (scale // d) for n, d in ratios]
        f, cofactors = _cofactors(point)
        return f > 0 and _jacobi_g(point, cofactors, self.beta) < 0

    def candidates(self, points):
        """The candidate mask: the band's decisions, and ``exact`` at
        every point they leave open."""
        screened = self.bands(points)
        if screened is None:
            candidate = np.zeros(len(points), dtype=bool)
            undecided = np.arange(len(points))
        else:
            f, g, band_f, band_g = screened
            candidate = (f > band_f) & (g < -band_g)
            undecided = np.flatnonzero(
                ~(candidate | (f < -band_f) | (g > band_g)))
        for i in undecided:
            candidate[i] = self.exact(points[i])
        return candidate


def snap_point(weights, vertices):
    """Integer cone point near the ray of the sampled barycentric point."""
    qs = [int(math.floor(SNAP_SCALE * w)) for w in weights]
    return tuple(int(sum(q * v[c] for q, v in zip(qs, vertices)))
                 for c in range(6))


def _outcomes(decs, beta, rng, trials, cubed_from):
    """The exact outcome of each float candidate, in trial order.

    Trial t samples the simplex of chamber ``decs[t % len(decs)]``.
    From trial ``cubed_from`` on, the weights are cubed and renormalized,
    and from halfway through the rest raised to the fifth power.  Each
    candidate the float prescreen passes yields a Witness, or None when
    exact arithmetic or the chamber test rejects it.
    """
    parts = build_partitions()
    simplices = [parts.simplex_for_decoration(d).vertices for d in decs]
    stack = np.array(simplices, dtype=np.float64)
    f = f_polynomial()
    g = directional_derivative(beta)
    screen = _Screen(beta)
    fifth_from = cubed_from + (trials - cubed_from) // 2
    done = 0
    while done < trials:
        # big enough to amortize numpy calls, small enough that a search
        # stopping at an early candidate wastes little float work
        n = min(1024, trials - done)
        qs = barycentric_block(rng, n)
        lo = max(cubed_from - done, 0)
        if lo < n:
            # on Python floats: their ** is the libm pow the golden file
            # pins; sum adds a row's powers left to right, column by column
            u = np.array([w ** (5 if done + i >= fifth_from else 3)
                          for i, row in enumerate(qs[lo:].tolist(), lo)
                          for w in row]).reshape(-1, 6)
            qs[lo:] = u / sum(u.T)[:, None]
        idx = (done + np.arange(n)) % len(decs)
        points = np.einsum("ij,ijk->ik", qs, stack[idx])
        for i in np.nonzero(screen.candidates(points))[0]:
            dec = decs[idx[i]]
            point = snap_point(qs[i], simplices[idx[i]])
            f_exact = f.evaluate(point)
            g_exact = g.evaluate(point)
            if (f_exact > 0 and g_exact < 0 and in_cone(point)
                    and dec.membership(point)):
                yield Witness(beta.spec(), dec.id, point, f_exact, g_exact)
            else:
                yield None
        done += n


def _need_trials(trials):
    # a search of no trials would report nothing found, as if it had looked
    if trials < 1:
        raise ValueError("need trials >= 1, not %r" % (trials,))


def anti_certify(dec, beta, trials=20000, seed=0):
    """Search chamber `dec` for a witness; None after `trials` misses.

    dec is a Decoration and beta an EdgeSubset.  The first half of the
    budget samples uniformly; the remaining quarters renormalize the cube
    and fifth power of the weights, which concentrates samples near the
    simplex boundary where a few chambers keep their entire witness
    region.  Floating point only filters
    candidates; acceptance requires exact integer signs plus weak
    membership in the chamber cone.  With a fixed seed the outcome is
    reproducible bit for bit.  Raises ValueError unless trials >= 1.
    """
    _need_trials(trials)
    rng = random.Random("%s|%s|%d" % (beta.spec(), dec.id, seed))
    return next(filter(None, _outcomes([dec], beta, rng, trials,
                                       trials // 2)), None)


def excluded_chambers(beta):
    """Decorations outside the certified region of beta."""
    keep = {d.id for d in certified_chambers(beta)}
    return [d for d in decorations() if d.id not in keep]


def full_k4_campaign(trials=100000, seed=0):
    """Round-robin witness search over all 48 chambers with beta = K4.

    Returns (witnesses, prescreen_hits).  Lengthening every edge never
    loses volume where f > 0, so the witness list must come back empty;
    prescreen_hits counts float candidates that exact arithmetic then
    rejected.  Raises ValueError unless trials >= 1.
    """
    _need_trials(trials)
    rng = random.Random("K4-campaign|%d" % seed)
    outcomes = list(_outcomes(decorations(), EdgeSubset.full(), rng, trials,
                              trials))
    witnesses = [w for w in outcomes if w]
    return witnesses, len(outcomes) - len(witnesses)


# -- independent evaluation path ----------------------------------------

def _cofactors(point):
    """det M and the six cofactors of M at a point.

    Subtracting row and column 1 of the bordered squared-length matrix
    from rows and columns 2..4, then clearing the border, leaves the
    symmetric 3x3 matrix M_ab = s_1a + s_1b - s_ab (a, b in 2..4,
    s_aa = 0) with the same determinant, an identity in the s.  Returns
    det M, expanded along M's first row (M_22, M_23, M_24), and the
    cofactors (C_22, C_23, C_24, C_33, C_34, C_44), each a 2x2 minor
    written out in products.  The point's six lengths may be Python
    ints, for exact values, or rows of floats (``_Screen``).
    """
    s12, s13, s14, s23, s24, s34 = (d * d for d in point)
    a, d, f = 2 * s12, 2 * s13, 2 * s14
    b = s12 + s13 - s23
    c = s12 + s14 - s24
    e = s13 + s14 - s34
    c22, c23, c24 = d * f - e * e, c * e - b * f, b * e - c * d
    return a * c22 + b * c23 + c * c24, (c22, c23, c24, a * f - c * c,
                                         b * c - a * e, a * d - b * b)


def f_value_bordered(point):
    """f at an integer point: det M (``_cofactors``).

    M is the bordered squared-distance matrix with its border
    eliminated, so the path shares nothing with the expanded polynomial
    used by the search, nor with its closed form.
    """
    return _cofactors(point)[0]


def _jacobi_g(point, cofactors, beta):
    """The directional derivative over the EdgeSubset beta, from M's
    cofactors at the point.

    Jacobi's formula makes each partial of det M linear in its
    cofactors C: s_1a enters M_aa twice and M_ab, M_ba once each, so
    df/ds_1a = 2 (C_a2 + C_a3 + C_a4), and s_ab enters M_ab and M_ba
    negated, so df/ds_ab = -2 C_ab.  The partial in the length d_k is
    2 d_k df/ds_k: six 2x2 cofactors, then one product per edge of beta.
    """
    c22, c23, c24, c33, c34, c44 = cofactors
    # df/ds_k / 2, in edge order 12, 13, 14, 23, 24, 34
    half = (c22 + c23 + c24, c23 + c33 + c34, c24 + c34 + c44,
            -c23, -c24, -c34)
    return 4 * sum(point[k] * half[k] for k in sorted(beta.indices))


# a witness line names its beta by spec; K4 has 63 nonempty edge subsets
_edge_subset = functools.lru_cache(maxsize=63)(EdgeSubset.parse)


def verify_witness(w):
    """Re-check a witness from scratch along the independent path.

    f is det M, the bordered determinant with its border eliminated, and
    g is read off M's cofactors (Jacobi's formula); one set of
    cofactors serves both, and neither reads the expanded polynomials.
    """
    dec = decoration(w.chamber)
    if not in_cone(w.point) or not dec.membership(w.point):
        return False
    f_exact, cofactors = _cofactors(w.point)
    g_exact = _jacobi_g(w.point, cofactors, _edge_subset(w.beta))
    return (f_exact == w.f_value and g_exact == w.g_value
            and f_exact > 0 and g_exact < 0)


# -- golden file ---------------------------------------------------------

@functools.cache
def read_witnesses():
    """The packaged golden witness set; read once and shared."""
    text = (resources.files("tetravol") / "data" / "witnesses.txt").read_text()
    lines = map(str.strip, text.splitlines())
    return tuple(Witness.parse(s) for s in lines if s and s[0] != "#")
