"""Extreme points, symmetry action and chamber partitions of the
normalized pseudo-tetrahedron cone.

X is the cone of length lists satisfying every (weak) face triangle
inequality; X24 is its slice at coordinate sum 24.  X24 is the hull of
seven lattice points: three A-type extrema (one axis sum zero) and four
B-type extrema (one vertex sum maximal).  Nested partitions of X24 into
3, 4, 12 and 48 lattice simplices are built here, the finest one from
four seed cells and the 12 even relabelings, indexed by decorated
3-paths of K4: each cell's decoration is the same relabeling applied to
its seed's (p4321b1, p4312b1, p3412b1 or p3421b1).  Membership in any
cell is decided by exact integers.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from .cayley_menger import (AXIS_PAIRS, EDGES, EdgeIndex,
                            clear_denominators)

EXTREME_A = {
    1: (0, 6, 6, 6, 6, 0),
    2: (6, 0, 6, 6, 0, 6),
    3: (6, 6, 0, 0, 6, 6),
}
EXTREME_B = {
    1: (8, 8, 8, 0, 0, 0),
    2: (8, 0, 0, 8, 8, 0),
    3: (0, 8, 0, 8, 0, 8),
    4: (0, 0, 8, 0, 8, 8),
}
CENTER = (4, 4, 4, 4, 4, 4)

_AXIS_OF = {frozenset(pair): i for i, pair in enumerate(AXIS_PAIRS, start=1)}


def midpoint(p, q):
    out = []
    for a, b in zip(p, q):
        s = a + b
        if s % 2:
            raise ValueError("midpoint is not a lattice point")
        out.append(s // 2)
    return tuple(out)


A_MID = {(i, j): midpoint(EXTREME_A[i], EXTREME_A[j])
         for i, j in itertools.combinations((1, 2, 3), 2)}
B_MID = {(i, j): midpoint(EXTREME_B[i], EXTREME_B[j])
         for i, j in itertools.combinations((1, 2, 3, 4), 2)}


def vertex_sums(p):
    """Sum of the three edge coordinates at each vertex of K4, in the
    order of ``VERTEX_EDGES``."""
    p12, p13, p14, p23, p24, p34 = p
    return (p12 + p13 + p14, p12 + p23 + p24, p13 + p23 + p34,
            p14 + p24 + p34)


def axis_sums(p):
    """Sum of each opposite-edge pair, in the order of ``AXIS_PAIRS``."""
    p12, p13, p14, p23, p24, p34 = p
    return (p12 + p34, p13 + p24, p14 + p23)


def in_cone(p):
    """Weak membership in the pseudo-tetrahedron cone X.

    Each face of ``FACES`` needs |a - b| <= c <= a + b, its three weak
    triangle inequalities.  They alone force p >= 0: b <= a + c and
    c <= a + b add to 2a >= 0, and every edge lies on a face.
    """
    p12, p13, p14, p23, p24, p34 = p
    return (abs(p12 - p13) <= p23 <= p12 + p13
            and abs(p12 - p14) <= p24 <= p12 + p14
            and abs(p13 - p14) <= p34 <= p13 + p14
            and abs(p23 - p24) <= p34 <= p23 + p24)


# -- vertex relabelings -------------------------------------------------

def all_relabelings():
    """The 24 vertex relabelings of K4 as image tuples (s(1),...,s(4))."""
    return list(itertools.permutations((1, 2, 3, 4)))


def relabel_sign(sigma):
    inv = 0
    for a, b in itertools.combinations(range(4), 2):
        if sigma[a] > sigma[b]:
            inv += 1
    return -1 if inv % 2 else 1


def even_relabelings():
    return [s for s in all_relabelings() if relabel_sign(s) == 1]


def relabel_action(sigma):
    """Induced coordinate permutation: slot k moves to perm[k]."""
    return tuple(EdgeIndex.of(sigma[i - 1], sigma[j - 1]) for i, j in EDGES)


def apply_relabel(sigma, p):
    perm = relabel_action(sigma)
    out = [None] * 6
    for k in range(6):
        out[perm[k]] = p[k]
    return tuple(out)


def axis_image(sigma):
    """Induced permutation of the three axes, as an image tuple."""
    perm = relabel_action(sigma)
    return tuple(_AXIS_OF[frozenset((perm[a], perm[b]))]
                 for a, b in AXIS_PAIRS)


def stabilizer(edge_indices):
    """Relabelings fixing the given edge set (setwise)."""
    target = frozenset(edge_indices)
    out = []
    for s in all_relabelings():
        perm = relabel_action(s)
        if frozenset(perm[k] for k in target) == target:
            out.append(s)
    return out


# -- exact simplex machinery --------------------------------------------

class LatticeSimplex6:
    """A 5-simplex in the sum-24 hyperplane with integer vertices."""

    def __init__(self, name, vertices):
        vs = tuple(tuple(v) for v in vertices)
        if len(vs) != 6 or any(len(v) != 6 for v in vs):
            raise ValueError("need six 6-coordinate vertices")
        # contains_scaled's sum(lam) = 1 and the exact divisions below
        # rest on integer vertices in the sum-24 plane
        for v in vs:
            if any(type(x) is not int for x in v) or sum(v) != 24:
                raise ValueError("vertex %r of %s is not six ints summing "
                                 "to 24" % (v, name))
        self.name = name
        self.vertices = vs

    def volume_scaled(self):
        """|det| of the edge matrix after dropping the last coordinate.

        Proportional to 5-dimensional volume with one global constant
        for every simplex in the hyperplane, so sums compare exactly.
        Read off the cofactor rows: row 0 dotted with vertex 0 is
        |det V|, and adding V's first five rows to its last makes that
        row 24 * (1, ..., 1), so |det V| is 24 times this determinant.
        """
        return sum(map(operator.mul, self._weight_rows[0],
                       self.vertices[0])) // 24

    @functools.cached_property
    def _weight_rows(self):
        """Rows of sign(det V) * adj(V), V having the vertices as columns.

        By Cramer's rule row j dotted with a point gives |det V| times
        the point's barycentric weight at vertex j.  Built on first use
        by one fraction-free Gauss-Jordan elimination of [V | I], each
        step dividing exactly by the previous pivot (Bareiss).  With P
        the row swaps taken at zero pivots, the left block ends as
        det(PV) I and the right one as det(PV) V^-1 = +-adj(V).
        """
        m = [[v[r] for v in self.vertices] + [int(r == c) for c in range(6)]
             for r in range(6)]
        prev = 1
        for k in range(6):
            if m[k][k] == 0:
                swap = next((r for r in range(k + 1, 6) if m[r][k]), None)
                if swap is None:
                    raise ValueError("degenerate simplex %s" % self.name)
                m[k], m[swap] = m[swap], m[k]
            top = m[k]
            pivot = top[k]
            for i in range(6):
                if i != k:
                    x = m[i][k]
                    m[i] = [(pivot * y - x * z) // prev
                            for y, z in zip(m[i], top)]
            prev = pivot
        sign = 1 if prev > 0 else -1
        return tuple(tuple(sign * y for y in row[6:]) for row in m)

    def contains(self, p):
        """Exact barycentric membership test of an int or Fraction point.

        The vertices all lie on the sum-24 plane, so for a query on that
        plane the solution of V*lam = p automatically has sum(lam) = 1;
        membership is then lam >= 0 componentwise, decided by the signs
        of six integer dot products.
        """
        if len(p) != 6:
            raise ValueError("need six coordinates")
        return self.contains_scaled(*clear_denominators(p))

    def contains_scaled(self, ints, scale):
        """Membership of the point ints / scale, for integer numerators
        ints and a positive integer scale."""
        if sum(ints) != 24 * scale:
            return False
        for row in self._weight_rows:
            if sum(map(operator.mul, row, ints)) < 0:
                return False
        return True

    def __repr__(self):
        return "LatticeSimplex6(%s)" % self.name


# -- decorations --------------------------------------------------------

class Decoration:
    """An embedded 3-path with a white endpoint and a black vertex.

    The path is stored white-endpoint first, so (p1,p2,p3,p4) means the
    path p1-p2-p3-p4 with p1 white.  The black vertex is whichever path
    vertex is not adjacent to p1, i.e. p3 or p4.  ``axes`` holds the
    0-based axes of the outer edges {p1p2, p3p4}, of the middle edge with
    its opposite {p2p3, p1p4}, and of the chords {p1p3, p2p4}.
    """

    def __init__(self, path, black):
        path = tuple(path)
        if sorted(path) != [1, 2, 3, 4]:
            raise ValueError("path must visit all four vertices once")
        if black not in (path[2], path[3]):
            raise ValueError("black vertex must avoid the white endpoint's"
                             " closed neighborhood on the path")
        self.path = path
        self.black = black
        self.id = "p%d%d%d%db%d" % (path + (black,))
        self.axes = tuple(
            _AXIS_OF[frozenset((EdgeIndex.of(path[a], path[b]),
                                EdgeIndex.of(path[c], path[d])))] - 1
            for a, b, c, d in ((0, 1, 2, 3), (1, 2, 0, 3), (0, 2, 1, 3)))
        # 0-based: the black vertex, the white endpoint and its neighbor
        self._vertex_index = (black - 1, path[0] - 1, path[1] - 1)

    def edge_indices(self):
        p = self.path
        return (EdgeIndex.of(p[0], p[1]), EdgeIndex.of(p[1], p[2]),
                EdgeIndex.of(p[2], p[3]))

    def relabeled(self, sigma):
        return Decoration([sigma[v - 1] for v in self.path],
                          sigma[self.black - 1])

    def membership(self, p):
        """Weak inequality system of the chamber."""
        return self.holds(axis_sums(p), vertex_sums(p))

    def holds(self, asum, vsum):
        """The chamber's system on a point's axis sums and vertex sums."""
        out, mid, dis = self.axes
        a_out, a_mid, a_dis = asum[out], asum[mid], asum[dis]
        if a_out < a_mid or a_out < a_dis or a_dis > a_mid:
            return False
        v1, v2, v3, v4 = vsum
        black, white, second = self._vertex_index
        b = vsum[black]
        # the black vertex's sum is their minimum
        if b > v1 or b > v2 or b > v3 or b > v4:
            return False
        return vsum[white] <= vsum[second]

    def __eq__(self, other):
        return (isinstance(other, Decoration)
                and self.path == other.path and self.black == other.black)

    def __hash__(self):
        return hash((self.path, self.black))

    def __repr__(self):
        return "Decoration(%s)" % self.id


@functools.cache
def decorations():
    """All 48 decorations, sorted by id; built once and shared."""
    out = []
    for path in itertools.permutations((1, 2, 3, 4)):
        for black in (path[2], path[3]):
            out.append(Decoration(path, black))
    return tuple(sorted(out, key=lambda d: d.id))


@functools.cache
def _decorations_by_id():
    return {d.id: d for d in decorations()}


def decoration(chamber_id):
    """The shared decoration with this id; KeyError for an unknown id."""
    return _decorations_by_id()[chamber_id]


def chambers_containing(p):
    """Ids of all chambers whose closed cone contains p."""
    return [d.id for d in decorations() if d.membership(p)]


# -- the four nested partitions -----------------------------------------

def _cells(named_vertices):
    return {name: LatticeSimplex6(name, vs) for name, vs in named_vertices}


class Partitions:
    """The nested 3-, 4-, 12- and 48-cell partitions of X24.

    A_i is the hull of the extrema but A_i, B_j of all but B_j, and
    C_ij of the center and all but A_i and B_j.  Each even relabeling
    s names four chambers D_ijkl, i the image of axis 1 and j = s(1):
    cell (k, l) is s applied to the seed (C, B2, B34, A23, B(2+k), A(1+l)),
    and its decoration is s applied to the seed's, p4321b1, p4312b1,
    p3412b1 or p3421b1 for (k, l) = (1, 1), (1, 2), (2, 1) or (2, 2).
    """

    def __init__(self):
        a, b = list(EXTREME_A.values()), list(EXTREME_B.values())
        rest_a = {i: a[:i - 1] + a[i:] for i in EXTREME_A}
        rest_b = {j: b[:j - 1] + b[j:] for j in EXTREME_B}
        self.three = _cells(("A_%d" % i, rest_a[i] + b) for i in rest_a)
        self.four = _cells(("B_%d" % j, a + rest_b[j]) for j in rest_b)
        self.twelve = _cells(("C_%d%d" % (i, j), [CENTER] + rest_a[i]
                              + rest_b[j]) for i in rest_a for j in rest_b)
        # Even relabelings act freely and transitively on (axis, vertex)
        # pairs, so no name repeats; a repeat would leave fewer than 48.
        seed_ids = {(1, 1): "p4321b1", (1, 2): "p4312b1",
                    (2, 1): "p3412b1", (2, 2): "p3421b1"}
        cells, decs = {}, {}
        for s in even_relabelings():
            i, j = axis_image(s)[0], s[0]
            for k, l in itertools.product((1, 2), repeat=2):
                name = "D_%d%d%d%d" % (i, j, k, l)
                if name in cells:
                    raise RuntimeError("cell %s built twice" % name)
                seed = (CENTER, EXTREME_B[2], B_MID[(3, 4)], A_MID[(2, 3)],
                        EXTREME_B[2 + k], EXTREME_A[1 + l])
                cells[name] = [apply_relabel(s, v) for v in seed]
                dec = decoration(seed_ids[k, l]).relabeled(s)
                decs[name] = decoration(dec.id)
        self.fortyeight = _cells(sorted(cells.items()))
        self._decoration_of = dict(sorted(decs.items()))
        self._simplex_of = {dec: self.fortyeight[name]
                            for name, dec in self._decoration_of.items()}

    def decoration_table(self):
        """Bijection D-simplex name -> decoration."""
        return self._decoration_of

    def simplex_for_decoration(self, dec):
        return self._simplex_of[dec]


@functools.cache
def build_partitions():
    return Partitions()


# -- region covered by a lengthening certificate ------------------------

def certified_chambers(beta):
    """Decorations of the chambers making up the certified region X_beta.

    A chamber is certified when its black vertex has beta's largest
    vertex degree and beta shares no edge with the decoration's path
    (single edge) or its outer axis pair (incident or opposite pair,
    3-path, 4-cycle); a tripod, 3-cycle or full K4 has no edge
    condition.  The two complement types have no region: ValueError.
    """
    tag = beta.classify()
    if tag.startswith("complement-of-"):
        raise ValueError("no certified region for type %r" % tag)
    degs = beta.degrees()
    out = []
    for d in decorations():
        if tag == "single-edge":
            avoid = d.edge_indices()
        elif tag in ("tripod", "3-cycle", "full-K4"):
            avoid = ()
        else:
            avoid = AXIS_PAIRS[d.axes[0]]
        if degs[d.black - 1] == max(degs) and beta.indices.isdisjoint(avoid):
            out.append(d)
    return out


# -- reports ------------------------------------------------------------

def verify_barycenter_conditions():
    """Exact checks of the two boundary-barycenter coincidences.

    The barycenter of {A2,A3,B1,B2,B3} satisfies d14+d24 = d12 (a face
    inequality holds with equality) and the barycenter of {A2,A3,B1,B2,C}
    has equal vertex sums at 3 and 4.  Also confirms that the A- and
    B-extrema both average to the center.
    """
    pts1 = [EXTREME_A[2], EXTREME_A[3], EXTREME_B[1], EXTREME_B[2], EXTREME_B[3]]
    b1 = tuple(Fraction(sum(c), 5) for c in zip(*pts1))
    pts2 = [EXTREME_A[2], EXTREME_A[3], EXTREME_B[1], EXTREME_B[2], CENTER]
    b2 = tuple(Fraction(sum(c), 5) for c in zip(*pts2))
    vs2 = vertex_sums(b2)
    a_avg = tuple(Fraction(sum(c), 3) for c in zip(*EXTREME_A.values()))
    b_avg = tuple(Fraction(sum(c), 4) for c in zip(*EXTREME_B.values()))
    return {
        "face_equality_holds": b1[2] + b1[4] == b1[0],
        "vertex_tie_holds": vs2[2] == vs2[3],
        "extrema_average_to_center":
            a_avg == tuple(map(Fraction, CENTER))
            and b_avg == tuple(map(Fraction, CENTER)),
    }


def sample_x24_numerators(rng, n):
    """n points of X24 as (numerators, total): each point is the convex
    combination of the extrema with integer weights drawn by
    ``randrange(0, 1000)``, the numerators its coordinates times the
    weights' total, which is positive."""
    pts = list(EXTREME_A.values()) + list(EXTREME_B.values())
    out = []
    for _ in range(n):
        weights = [rng.randrange(0, 1000) for _ in pts]
        if not any(weights):
            weights[0] = 1
        out.append((tuple(sum(w * p[c] for w, p in zip(weights, pts))
                          for c in range(6)), sum(weights)))
    return out


def _description(name):
    """The test of a named partition cell's description on a point's
    axis sums and vertex sums.

    A_i is the locus where axis sum i is weakly largest, B_j where
    vertex sum j is weakly smallest, C_ij the intersection of both,
    D_ijkl its decoration's system.  Each is a comparison of linear
    forms of one degree, so sums scaled by any positive factor give
    the same answer.  A D cell's test is its decoration's ``holds``,
    read when the test is made.
    """
    kind, idx = name.split("_")
    if kind == "A":
        i = int(idx) - 1
        return lambda asum, vsum: asum[i] == max(asum)
    if kind == "B":
        j = int(idx) - 1
        return lambda asum, vsum: vsum[j] == min(vsum)
    if kind == "C":
        i, j = int(idx[0]) - 1, int(idx[1]) - 1
        return lambda asum, vsum: (asum[i] == max(asum)
                                   and vsum[j] == min(vsum))
    if kind == "D":
        return build_partitions().decoration_table()[name].holds
    raise KeyError(name)


def cell_description_membership(name, p):
    """Inequality-description membership of p in a named partition cell."""
    return _description(name)(axis_sums(p), vertex_sums(p))


def partition_check(samples=10000, seed=0, cross_check=200):
    """Coverage report: every sampled point lies in each partition level.

    Membership uses the fast axis/vertex-sum and decoration
    descriptions, each built once per call and decided on each point's
    sums taken once over its integer numerators.  At the three-, four-
    and twelve-cell levels coverage holds by construction, since some
    axis sum is always maximal and some vertex sum minimal, so the
    content of the check is the 48-cell coverage and the cross-check:
    a prefix of the sample is tested against exact barycentric
    containment in the corresponding lattice simplices, at all four
    levels, decided on the same numerators, which ties the descriptions
    to the actual hulls.  ``misses`` still reports all four levels.
    Raises ValueError unless samples >= 1 and cross_check >= 0.
    """
    if samples < 1 or cross_check < 0:
        raise ValueError("need samples >= 1 and cross_check >= 0, not %r "
                         "and %r" % (samples, cross_check))
    import random
    rng = random.Random(seed)
    parts = build_partitions()
    levels = {level: [(_description(name), simplex)
                      for name, simplex in getattr(parts, level).items()]
              for level in ("three", "four", "twelve", "fortyeight")}
    misses = {level: 0 for level in levels}
    cross = 0
    cross_n = min(samples, cross_check)
    for k, (ints, total) in enumerate(sample_x24_numerators(rng, samples)):
        asum, vsum = axis_sums(ints), vertex_sums(ints)
        for level, cells in levels.items():
            inside = (test(asum, vsum) for test, _ in cells)
            if k < cross_n:
                inside = list(inside)
                cross += sum(hit != simplex.contains_scaled(ints, total)
                             for hit, (_, simplex) in zip(inside, cells))
            if not any(inside):
                misses[level] += 1
    return {
        "samples": samples,
        "seed": seed,
        "misses": misses,
        "cross_checked": cross_n,
        "cross_mismatches": cross,
        "ok": not any(misses.values()) and cross == 0,
    }
