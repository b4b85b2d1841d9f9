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
Sauer, SIAM J. Numer. Anal. 37, 2000): the terms are grouped by their
exponent of one variable at a time, and each group is folded in as
``acc = acc * L_j + child``, so the only products are by a linear form.
Every intermediate polynomial is a dense vector over the monomials in u
of total degree at most deg p, and each product by a form is one gather
and one dot product.

The vectors are int64 when an exact bound allows it and Python ints
(dtype=object) otherwise.  Write |q| for the sum of the absolute values
of q's coefficients, N_k = max(1, |L_k|), y_1, ..., y_6 for the
variables of p, and

    Phi(p) = sum over the terms c * y^e of p of |c| * prod_k N_k^e_k.

Every value the scheme forms has absolute value at most Phi(p).  Take
one Horner call, on terms T and the forms L_j, L_j+1, ..., and let T_k
be its group of exponent k in y_j, so that Phi(T) = sum_k Phi(T_k) N_j^k
with Phi(T_k) taken on the later forms; by induction every value formed
inside the call for T_k is at most Phi(T_k).  After folding in group k
the accumulator is A_k = sum over k' >= k of H(T_k') L_j^(k' - k), H
being the composition, so |A_k| <= sum over k' >= k of Phi(T_k') N_j^(k'-k)
<= Phi(T) because N_j >= 1.  An entry of A_(k+1) * L_j, and each partial
sum in its dot product, adds some of the signed terms c_i * a_m whose
absolute values sum to |A_(k+1)| |L_j| over all entries, so it is at
most |A_(k+1)| N_j <= Phi(T); and an entry of A_k is one such entry plus
one of H(T_k), at most |A_(k+1)| N_j + Phi(T_k) <= Phi(T).  So when
Phi(p) < 2**63 no int64 operation can wrap, and both dtypes give the
same integers.
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


def _horner(terms, forms, down):
    """Dense vector of sum c * prod L_j^e_j over (e, c) in terms.

    Groups the terms by the exponent of the first remaining variable and
    runs Horner's rule in that variable over the groups' compositions.
    Before the product that folds in the group of exponent k, the
    accumulator has degree at most deg(terms) - k - 1, so no product
    reaches past the degree of the basis tables.  Each product by a form
    (c0, c1, ..., c5) is one gather through ``down`` and one dot.
    """
    if not len(forms):
        return np.array([terms[0][1], 0], dtype=forms.dtype)
    groups = {}
    for e, c in terms:
        groups.setdefault(e[0], []).append((e[1:], c))
    top = max(groups)
    acc = _horner(groups[top], forms[1:], down)
    for k in range(top - 1, -1, -1):
        acc = acc.take(down[len(acc)]) @ forms[0]
        if k in groups:
            child = _horner(groups[k], forms[1:], down)
            if len(child) > len(acc):
                acc, child = child, acc
            acc[:len(child)] += child  # child's sentinel slot adds 0
    return acc


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
    vec = _horner(list(p.terms.items()), np.array(forms, dtype=dtype), down)
    return Polynomial._canonical(
        5, {stick[j]: c for j, c in enumerate(vec[:-1].tolist()) if c})


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
    ``_compose_affine``, which also rewrites to stick-breaking
    coordinates.  Horner multiplies only by a linear form, on dense
    vectors over the monomials of degree <= deg p, so the work grows
    with that basis and not with the terms of each power product.  The
    result is exact: the vectors hold int64 only under a bound that
    rules out overflow.
    """
    if p.nvars != 6:
        raise ValueError("expected a 6-variable polynomial")
    return _compose_affine(p, build_pullback(simplex))
