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
dense vectors over the monomials in u of one total degree's nodes, a
level, are the columns of a matrix; a level's step is one product of
its children's matrix and their forms, each in its parent's column, one
gather of rows and one sum over a form's six coefficients.  The tree
depends on the exponents alone, so it is cached with the forms' places.

The vectors are float64 when an exact bound allows it and Python ints
(dtype=object) otherwise.  Write |q| for the sum of the absolute values
of q's coefficients, N_k = max(1, |L_k|), and

    Phi(p) = sum over the terms c * y^e of p of |c| * prod_k N_k^e_k.

Every value the scheme forms has absolute value at most Phi(p).  Let
Phi_m = sum over e under m of |c_e| prod_k N_k^(e_k - m_k), so that
Phi_m = |c_m| + sum over m's children m + e_j of N_j Phi_(m+e_j), which
is at most Phi_0 = Phi(p) as N_k >= 1; by induction from the leaves,
|Q_m| <= Phi_m.  An entry of Q_m is c_m plus signed products of a
coefficient of a child's Q_(m+e_j) and one of L_j, whose absolute values
sum to at most N_j Phi_(m+e_j) over all entries; so each product, and
each partial sum of them and c_m in any order, is an integer of
absolute value at most Phi_m.  When Phi(p) < 2**53 float64 holds each
exactly, fused multiply-adds or not, so the float64 scheme is exact
(Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008, on exact integers in
floating-point BLAS).  The fold tests the cheap bound
sum |c| * max_k N_k^deg(p) >= Phi(p), and runs on Python ints when it
reaches 2**53.

The result reaches the cube engine as arrays (``Polynomial.arrays``):
the nonzero slots of Q_0's dense vector, as int64 or Python ints, and
their columns of a cached matrix of stick-breaking exponents, no dict.
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
    bound of the polynomial it holds.  Within a degree they come in
    ``itertools.combinations_with_replacement`` order of their variable
    indices.  Every vector ends in one more entry, a sentinel slot that
    holds 0.  ``down[n]`` serves a vector v of length n, so with n - 1
    monomials of degree <= t: column j, for monomial j of degree
    <= t + 1, names in row 0 the slot s of that monomial in v and in row
    i + 1 that of its quotient by u_i, or the sentinel n - 1 where v has
    no such monomial; the last column, the product's own sentinel slot,
    names only n - 1.  Row i holds 6 s + i, where v_s c_i sits in the
    flat outer product of v and c, so with c = (c0, c1, ..., c5)
    ``np.outer(v, c).ravel().take(down[n]).sum(axis=0)`` is
    v * (c0 + sum c_i u_i).  Column j of the 5-row matrix ``stick`` is
    monomial j's exponent in the cube coordinates x, where
    u_k = x1*...*xk makes it the suffix sums of u's exponent (distinct,
    since their differences give u's exponent back).
    """
    # a combination of degree picks from 6 indices, index 5 padding the
    # rest, lists the monomials of degree <= degree, and a stable sort by
    # degree keeps each degree's combinations in their own order
    size = math.comb(5 + degree, 5)
    picks = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(6), degree)),
        np.intp, size * degree) + np.arange(size).repeat(degree) * 6
    mons = np.bincount(picks, minlength=6 * size).reshape(size, 6)[:, :5]
    mons = mons[np.argsort(mons.sum(axis=1), kind="stable")]
    # the index of each monomial's quotient by u_i, through a table of
    # monomials by their digits in base degree + 1
    radix = (degree + 1) ** np.arange(4, -1, -1)
    keys = mons @ radix
    lookup = np.empty(radix[0] * (degree + 1), dtype=np.intp)
    lookup[keys] = range(size)
    at = lookup[keys[:, None] - radix]  # read only where u_i divides
    down = {}
    for t in range(degree):
        n, m = math.comb(5 + t, 5), math.comb(6 + t, 5)
        table = np.full((6, m + 1), n, dtype=np.intp)
        table[0, :n] = range(n)
        table[1:, :m] = np.where(mons[:m] > 0, at[:m], n).T
        down[n + 1] = table = table * 6 + np.arange(6)[:, None]
        table.flags.writeable = False
    stick = np.ascontiguousarray(mons[:, ::-1].cumsum(axis=1)[:, ::-1].T)
    stick.flags.writeable = False
    return stick, down


@functools.lru_cache(maxsize=256)
def _monomial_tree(key):
    """The tree of the module docstring, for p's exponent matrix, whose
    bytes are key (``Polynomial.arrays``: one column per term, in order).

    A monomial's word lists its variables in increasing order, each as
    often as its power, so a node's parent drops its word's last letter:
    the nodes are the prefixes of the terms' words, and in lexicographic
    order the words through one node are consecutive.  Per total degree
    from 0 up: the term of each node (n if none), the variable j of each
    child, and the flat indices of each child's six form slots, in its
    parent's column, in the fold's (children, 6, nodes) matrix.
    """
    exps = np.frombuffer(key, dtype=np.intp).reshape(6, -1)
    n = exps.shape[1]
    degrees = exps.sum(axis=0)
    t = np.arange(degrees.max() + 1)
    # words[i, t]: letter t of term i's word, 6 past its end
    words = (exps.cumsum(axis=0)[:, :, None] <= t).sum(axis=0)
    order = np.lexsort(words.T[::-1])
    words, degrees = words[order], degrees[order]
    # row i opens a node of degree t unless it shares t letters with row i-1
    fork = np.concatenate(([-1], (words[1:] != words[:-1]).argmax(axis=1)))
    opens = (fork[:, None] < t) & (degrees[:, None] >= t)
    ids = opens.cumsum(axis=0) - 1  # each row's node, numbered per degree
    level, rows = np.nonzero(opens.T)  # all nodes, by degree, then row
    js, up = words[rows, level - 1], ids[rows, level - 1]
    edges = np.searchsorted(level, np.arange(len(t) + 2))
    # slot i of child k's form goes to (6 k + i) * width + k's parent
    width = np.diff(edges)[level - 1, None]
    spots = (ids[rows, level, None] * 6 + np.arange(6)) * width + up[:, None]
    terms = np.full(len(level), n)
    terms[edges[degrees] + ids[np.arange(n), degrees]] = order
    return tuple((terms[lo:mid], js[mid:hi], spots[mid:hi])
                 for lo, mid, hi in zip(edges, edges[1:], edges[2:]))


def _fold_levels(levels, coeffs, forms, down):
    """Q_0 as a dense int64 or Python-int vector, a step per level down.

    acc's columns are a level's vectors.  Each step places the children's
    forms in a (children, 6 * parents) matrix, multiplies acc by it,
    gathers rows through ``down``, sums the six slots and adds c_m.
    """
    c = np.append(coeffs, 0).astype(forms.dtype)
    acc = np.outer((1, 0), c[levels[-1][0]])  # the top level's constants
    for terms, js, spots in reversed(levels[:-1]):
        w = np.zeros(spots.size * len(terms), dtype=forms.dtype)
        w[spots] = forms[js]
        # row 6 s + i of the view: slot s of the children's vectors times
        # coefficient i of their forms, summed into each parent
        prod = (acc @ w.reshape(len(js), -1)).reshape(-1, len(terms))
        acc = prod.take(down[len(acc)], axis=0).sum(axis=0)
        acc[0] += c[terms]
    return acc[:, 0].astype(np.int64 if forms.dtype == float else object)


def _compose_affine(p, forms):
    """p(L_1, ..., L_6) in the cube coordinates x, exactly.

    Runs the Horner scheme in float64 when the cheap bound on Phi(p) is
    below 2**53 and on Python ints otherwise (see the module docstring),
    then renames each monomial of u to its stick-breaking exponent.
    """
    degree = p.total_degree()
    if degree < 0:
        return Polynomial.zero(5)
    stick, down = _graded_basis(degree)
    exps, coeffs = p.arrays()
    norm = max(max(1, sum(map(abs, form))) for form in forms)
    fits = sum(map(abs, coeffs.tolist())) * norm ** degree < 2 ** 53
    vec = _fold_levels(_monomial_tree(exps.tobytes()), coeffs,
                       np.array(forms, dtype=float if fits else object), down)
    nz = np.flatnonzero(vec[:-1])
    return Polynomial._from_arrays(5, stick.take(nz, axis=1), vec[nz])


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
    the module docstring, one matrix product by linear forms per degree
    level, and rewrites to stick-breaking coordinates.  The result is
    exact: the vectors hold float64 only under a bound that rules out
    rounding.
    """
    if p.nvars != 6:
        raise ValueError("expected a 6-variable polynomial")
    return _compose_affine(p, build_pullback(simplex))
