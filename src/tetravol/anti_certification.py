"""Exact integer witnesses for chambers where lengthening can lose volume.

For an edge subset beta, every chamber outside the certified region can
contain labelings with f > 0 (a genuine tetrahedron) whose volume drops
when the beta edges are lengthened, i.e. with directional derivative
g < 0.  This module searches such chambers for concrete witnesses: it
samples barycentric weights, prescreens with floating point, snaps onto
the integer lattice, and accepts only on exact integer evaluation of
both signs.  Accepted witnesses ship in a golden data file and are
re-verified through an independent evaluation path (bordered-determinant
f plus a five-point derivative stencil) that shares no code with the
polynomial layer.
"""

import math
import random
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .cayley_menger import EdgeSubset, directional_derivative, f_polynomial
from .chamber_geometry import (_int_det, build_partitions,
                               certified_chambers, decoration, decorations,
                               in_cone)

SNAP_SCALE = 10 ** 10

# one search target per certified lengthening case, keyed by the
# representative edge subset used throughout
ASSERTED_BETAS = (
    "12",
    "12,13",
    "12,34",
    "12,13,14",
    "12,14,23",
    "12,13,24,34",
    "12,13,23",
)


@dataclass(frozen=True)
class Witness:
    """An exact sign witness (f > 0, g < 0) inside one chamber cone."""

    beta: str
    chamber: str
    point: tuple
    f_value: int
    g_value: int
    seed: int = 0

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


def barycentric_sample(rng):
    """Six nonnegative weights summing to one, by sorted uniform spacings."""
    cuts = sorted(rng.random() for _ in range(5))
    out = []
    prev = 0.0
    for c in cuts:
        out.append(c - prev)
        prev = c
    out.append(1.0 - prev)
    return out


class _FloatForm:
    """Vectorized float view of an exact polynomial, for prescreening only."""

    def __init__(self, poly):
        exps = sorted(poly.terms)
        self.exps = np.array(exps, dtype=np.int64)
        self.coeffs = np.array([float(poly.terms[e]) for e in exps])

    def at(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return (pts[:, None, :] ** self.exps[None, :, :]).prod(axis=2) \
            @ self.coeffs


def snap_point(weights, vertices, snap=SNAP_SCALE):
    """Integer cone point near the ray of the sampled barycentric point."""
    qs = [int(math.floor(snap * w)) for w in weights]
    return tuple(int(sum(q * v[c] for q, v in zip(qs, vertices)))
                 for c in range(6))


def _power_weights(q, k):
    u = [w ** k for w in q]
    s = sum(u)
    return [w / s for w in u]


def anti_certify(dec, beta, trials=20000, seed=0):
    """Search chamber `dec` for a witness; None after `trials` misses.

    dec is a Decoration and beta an EdgeSubset.  The first half of the
    budget samples uniformly; the remaining quarters renormalize the cube
    and fifth power of the weights, which concentrates samples near the
    simplex boundary where a few chambers keep their entire witness
    region.  Floating point only filters
    candidates; acceptance requires exact integer signs plus weak
    membership in the chamber cone.  With a fixed seed the outcome is
    reproducible bit for bit.
    """
    simplex = build_partitions().simplex_for_decoration(dec)
    verts = simplex.vertices
    f = f_polynomial()
    g = directional_derivative(beta)
    ff, gf = _FloatForm(f), _FloatForm(g)
    rng = random.Random("%s|%s|%d" % (beta.spec(), dec.id, seed))
    vmat = np.array(verts, dtype=np.float64)
    stage2 = trials // 2
    stage3 = stage2 + (trials - stage2) // 2
    chunk = 128
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        qs = []
        for i in range(n):
            q = barycentric_sample(rng)
            idx = done + i
            if idx >= stage3:
                q = _power_weights(q, 5)
            elif idx >= stage2:
                q = _power_weights(q, 3)
            qs.append(q)
        pts = np.array(qs) @ vmat
        fv = ff.at(pts)
        gv = gf.at(pts)
        for i in np.nonzero((fv > 0.0) & (gv < 0.0))[0]:
            point = snap_point(qs[i], verts)
            f_exact = f.evaluate(point)
            g_exact = g.evaluate(point)
            if (f_exact > 0 and g_exact < 0 and in_cone(point)
                    and dec.membership(point)):
                return Witness(beta.spec(), dec.id, point,
                               f_exact, g_exact, seed)
        done += n
    return None


def excluded_chambers(beta):
    """Decorations outside the certified region of beta."""
    keep = {d.id for d in certified_chambers(beta)}
    return [d for d in decorations() if d.id not in keep]


def generate_golden(betas=ASSERTED_BETAS, trials=20000, seed=0):
    """One witness per excluded chamber per case; raises if any search fails."""
    out = []
    for spec in betas:
        beta = EdgeSubset.parse(spec)
        for dec in excluded_chambers(beta):
            w = anti_certify(dec, beta, trials=trials, seed=seed)
            if w is None:
                raise RuntimeError("no witness found for beta=%s chamber=%s"
                                   % (spec, dec.id))
            out.append(w)
    return out


def full_k4_campaign(trials=100000, seed=0):
    """Round-robin witness search over all 48 chambers with beta = K4.

    Returns (witnesses, prescreen_hits).  Lengthening every edge never
    loses volume where f > 0, so the witness list must come back empty;
    prescreen_hits counts float candidates that exact arithmetic then
    rejected.
    """
    beta = EdgeSubset.full()
    parts = build_partitions()
    decs = decorations()
    f = f_polynomial()
    g = directional_derivative(beta)
    ff, gf = _FloatForm(f), _FloatForm(g)
    rng = random.Random("K4-campaign|%d" % seed)
    stack = np.array([np.array(parts.simplex_for_decoration(d).vertices,
                               dtype=np.float64) for d in decs])
    witnesses = []
    screened = 0
    chunk = 4096
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        qs = np.array([barycentric_sample(rng) for _ in range(n)])
        idx = (done + np.arange(n)) % len(decs)
        pts = np.einsum("ij,ijk->ik", qs, stack[idx])
        fv = ff.at(pts)
        gv = gf.at(pts)
        for i in np.nonzero((fv > 0.0) & (gv < 0.0))[0]:
            screened += 1
            dec = decs[idx[i]]
            verts = parts.simplex_for_decoration(dec).vertices
            point = snap_point(qs[i], verts)
            f_exact = f.evaluate(point)
            g_exact = g.evaluate(point)
            if (f_exact > 0 and g_exact < 0 and in_cone(point)
                    and dec.membership(point)):
                witnesses.append(Witness(beta.spec(), dec.id, point,
                                         f_exact, g_exact, seed))
        done += n
    return witnesses, screened


# -- independent evaluation path ----------------------------------------

def f_value_bordered(point):
    """f at an integer point via the bordered squared-distance determinant.

    Evaluates the determinant numerically, so it shares nothing with the
    expanded polynomial used by the search path.
    """
    s = [int(d) * int(d) for d in point]
    m = [[0, 1, 1, 1, 1],
         [1, 0, s[0], s[1], s[2]],
         [1, s[0], 0, s[3], s[4]],
         [1, s[1], s[3], 0, s[5]],
         [1, s[2], s[4], s[5], 0]]
    return _int_det(m)


def g_value_stencil(point, beta):
    """Directional derivative via exact five-point differentiation of f.

    f has degree four in each single coordinate, so the stencil
    (8*(f(p+u) - f(p-u)) - (f(p+2u) - f(p-2u))) / 12 recovers the exact
    partial derivative at integer points.  beta is an EdgeSubset.
    """
    total = 0
    for k in sorted(beta.indices):
        vals = {}
        for step in (-2, -1, 1, 2):
            q = list(point)
            q[k] += step
            vals[step] = f_value_bordered(q)
        num = 8 * (vals[1] - vals[-1]) - (vals[2] - vals[-2])
        if num % 12:
            raise ArithmeticError("stencil numerator not divisible by 12")
        total += num // 12
    return total


def verify_witness(w):
    """Re-check a witness from scratch along the independent path."""
    dec = decoration(w.chamber)
    if not in_cone(w.point) or not dec.membership(w.point):
        return False
    f_exact = f_value_bordered(w.point)
    g_exact = g_value_stencil(w.point, EdgeSubset.parse(w.beta))
    return (f_exact == w.f_value and g_exact == w.g_value
            and f_exact > 0 and g_exact < 0)


# -- golden file ---------------------------------------------------------

def write_witnesses(path, witnesses):
    with open(path, "w") as fh:
        fh.write("# anti-certification witnesses: "
                 "<beta> <chamber-id> <p1..p6> <f-value> <g-value>\n")
        for w in witnesses:
            fh.write(w.line() + "\n")


def read_witnesses(path=None):
    """Parse a witness file; default is the packaged golden set."""
    if path is None:
        text = (resources.files("tetravol") / "data" /
                "witnesses.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(Witness.parse(line))
    return out
