"""Pulling polynomials back from a lattice 5-simplex to the unit cube.

A point of the open unit cube (x1,...,x5) maps onto the simplex with
ordered vertices v1,...,v6 through stick-breaking barycentric weights:

    U(x) = (x1, x1x2, x1x2x3, x1x2x3x4, x1x2x3x4x5)
    V(u) = (1-u1, u1-u2, u2-u3, u3-u4, u4-u5, u5)

The six weights V(U(x)) are nonnegative on the cube and sum to one, so
Z(x) = W V(U(x)) (W = matrix with the vertices as columns) sweeps out
the whole simplex; the cube origin lands on v1 and the all-ones corner
on v6.  Composing a polynomial with Z keeps integer coefficients and
caps every single-variable degree by the total degree, which is what
the dominance certifier needs.

The pullback first composes with the six affine forms L_k(u) = (W V(u))_k,
read straight off the vertices as L_k = v1[k] + sum_i u_i (v(i+1)[k] - vi[k]),
and then rewrites u to stick-breaking coordinates, which only renames
exponents.  The composition is a multivariate Horner scheme (Peña and
Sauer, SIAM J. Numer. Anal. 37, 2000) over a tree of monomials in the
variables y_1, ..., y_6 of p.  Its nodes are p's exponents and all that
they reach by dropping one power of their last variable present, which
gives a node's parent, down to the root 0.  With c_m the coefficient of
y^m in p (0 if none), each node m holds

    Q_m = c_m + sum over its children m + e_j of Q_(m+e_j) L_j
        = sum over the exponents e under m of c_e prod_k L_k^(e_k - m_k),

so Q_0 = p(L_1, ..., L_6), and Q_m has degree at most deg p - |m|.  The
nodes of one total degree form a level, one matrix of dense vectors over
the monomials in u, and each level is one gather, one batched dot with
the children's forms and one sum over each parent's children.  The tree
depends on the exponents alone, so it is cached.

The vectors are int64 when an exact bound allows it and Python ints
(dtype=object) otherwise.  Write |q| for the sum of the absolute values
of q's coefficients, N_k = max(1, |L_k|), and

    Phi(p) = sum over the terms c * y^e of p of |c| * prod_k N_k^e_k.

Every value the scheme forms has absolute value at most Phi(p).  Let
Phi_m = sum over e under m of |c_e| prod_k N_k^(e_k - m_k), so that
Phi_m = |c_m| + sum over m's children m + e_j of N_j Phi_(m+e_j), which
is at most Phi_0 = Phi(p) as N_k >= 1; by induction from the leaves,
|Q_m| <= Phi_m.  An entry of a child's Q_(m+e_j) L_j, and each partial
sum of its dot product, adds some of the signed products of a
coefficient of Q_(m+e_j) and one of L_j, whose absolute values sum to at
most N_j Phi_(m+e_j) over all entries; so an entry of Q_m, and each
partial sum over the children and c_m that forms it, is at most Phi_m.
So when Phi(p) < 2**63 no int64 operation can wrap, and both dtypes
give the same integers.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .exact_poly import Polynomial


@functools.cache
def _graded_basis(degree):
    """Monomials of total degree <= degree in 5 variables, and their tables.

    The monomials are listed by total degree, so those of degree <= t
    are the first C(5 + t, 5); a vector's length thus records the degree
    bound of the polynomial it holds.  Every vector ends in one more
    entry, a sentinel slot that holds 0.  ``down[n]`` serves a vector v
    of length n, so with n - 1 monomials of degree <= t: row j, for
    monomial j of degree <= t + 1, holds in column 0 the index of that
    monomial in v and in column i + 1 that of its quotient by u_i, or
    the sentinel n - 1 where v has no such monomial; the last row, the
    product's own sentinel slot, holds only n - 1.  So
    ``v.take(down[n]) @ (c0, c1, ..., c5)`` is v * (c0 + sum c_i u_i).
    ``stick[j]`` is monomial j's exponent in the cube coordinates x,
    where u_k = x1*...*xk makes it the suffix sums of u's exponent.
    """
    mons = [tuple(combo.count(i) for i in range(5))
            for t in range(degree + 1)
            for combo in itertools.combinations_with_replacement(range(5), t)]
    index = {e: j for j, e in enumerate(mons)}
    down = {}
    for t in range(degree):
        n, m = math.comb(5 + t, 5), math.comb(6 + t, 5)
        table = np.full((m + 1, 6), n, dtype=np.intp)
        table[:n, 0] = range(n)
        for j, e in enumerate(mons[:m]):
            for i in range(5):
                if e[i]:
                    table[j, i + 1] = index[e[:i] + (e[i] - 1,) + e[i + 1:]]
        table.flags.writeable = False
        down[n + 1] = table
    stick = tuple(tuple(itertools.accumulate(reversed(e)))[::-1]
                  for e in mons)
    if len(set(stick)) != len(stick):
        raise RuntimeError("stick-breaking exponents collide")
    return stick, down


@functools.lru_cache(maxsize=256)
def _monomial_tree(exponents):
    """The tree of the module docstring, for p's exponents in dict order.

    Per total degree from 0 up: the term of each node (len(exponents) if
    none), the variable j of each child (grouped by parent), the first
    child of each group and the parent it belongs to.
    """
    kids = {}
    for e in exponents:
        j = 5
        while any(e):
            while not e[j]:
                j -= 1
            up = e[:j] + (e[j] - 1,) + e[j + 1:]
            siblings = kids.setdefault(up, {})
            if e in siblings:
                break
            siblings[e] = j
            e = up
    term = {e: i for i, e in enumerate(exponents)}
    level, levels = [(0,) * 6], []
    while level:
        below, js, starts, parents = [], [], [], []
        for i, m in enumerate(level):
            if m in kids:
                parents.append(i)
                starts.append(len(below))
                below += kids[m]
                js += kids[m].values()
        levels.append(tuple(np.array(a, dtype=np.intp) for a in (
            [term.get(m, len(term)) for m in level], js, starts, parents)))
        level = below
    return tuple(levels)


def _fold_levels(levels, coeffs, forms, down):
    """Q_0 as a dense vector, by one step per level from the top degree.

    Each step gathers the level's rows through ``down``, takes their dot
    with the children's forms, sums each parent's group and adds c_m.
    """
    c = np.array(coeffs + [0], dtype=forms.dtype)
    acc = np.outer(c[levels[-1][0]], (1, 0))  # the top level's constants
    for terms, js, starts, parents in reversed(levels[:-1]):
        prod = np.einsum("mnc,mc->mn", acc.take(down[acc.shape[1]], axis=1),
                         forms[js])
        acc = np.zeros((len(terms), prod.shape[1]), dtype=forms.dtype)
        acc[parents] = np.add.reduceat(prod, starts)
        acc[:, 0] += c[terms]
    return acc[0]


def _coefficient_bound(p, forms):
    """Phi(p), which bounds every value the Horner scheme forms."""
    norms = [max(1, sum(map(abs, form))) for form in forms]
    return sum(abs(c) * math.prod(map(pow, norms, e))
               for e, c in p.terms.items())


def _compose_affine(p, forms):
    """p(L_1, ..., L_6) in the cube coordinates x, exactly.

    Runs the Horner scheme on int64 vectors when Phi(p) < 2**63 and on
    Python ints otherwise (see the module docstring), then renames each
    monomial of u to its stick-breaking exponent.
    """
    if p.is_zero():
        return Polynomial.zero(5)
    stick, down = _graded_basis(p.total_degree())
    dtype = np.int64 if _coefficient_bound(p, forms) < 2 ** 63 else object
    vec = _fold_levels(_monomial_tree(tuple(p.terms)), list(p.terms.values()),
                       np.array(forms, dtype=dtype), down)
    vals = vec.tolist()
    return Polynomial._canonical(
        5, {stick[j]: vals[j] for j in np.flatnonzero(vec[:-1]).tolist()})


def build_pullback(simplex):
    """The six affine forms L_k of an ordered simplex, read off its vertices.

    Form k is the tuple (c0, c1, ..., c5) of L_k = c0 + sum c_i u_i,
    with c0 = v1[k] and c_i = v(i+1)[k] - vi[k] in the module
    docstring's numbering.
    """
    vs = simplex.vertices
    return tuple((vs[0][k],) + tuple(vs[i + 1][k] - vs[i][k] for i in range(5))
                 for k in range(6))


def point_image(simplex, x):
    """Z(x), the point of the simplex over an exact cube point x."""
    u = (1,) + tuple(itertools.accumulate(x, operator.mul))
    return tuple(sum(map(operator.mul, form, u))
                 for form in build_pullback(simplex))


def pullback(p, simplex):
    """Pull a 6-variable polynomial p back to the cube through the simplex.

    Composes with the simplex's six affine forms by the Horner scheme of
    the module docstring, one batched product by linear forms per degree
    level, and rewrites to stick-breaking coordinates.  The result is
    exact: the vectors hold int64 only under a bound that rules out
    overflow.
    """
    if p.nvars != 6:
        raise ValueError("expected a 6-variable polynomial")
    return _compose_affine(p, build_pullback(simplex))
