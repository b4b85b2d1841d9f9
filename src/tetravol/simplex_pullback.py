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
Every intermediate polynomial is a dense vector of Python ints over the
monomials in u of total degree at most deg p, so the result is exact at
any coefficient size and needs no bound check.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types

import numpy as np

from .exact_poly import Polynomial


def _stick_rewrite(p):
    """Substitute u_k = x1*...*xk by rewriting exponents as suffix sums.

    The exponent map is injective, so no two source terms collide.
    """
    out = {}
    for exps, c in p.terms.items():
        total = 0
        suffix = []
        for e in reversed(exps):
            total += e
            suffix.append(total)
        key = tuple(reversed(suffix))
        if key in out:
            raise RuntimeError("stick rewrite collision")
        out[key] = c
    return Polynomial(5, out)


@functools.lru_cache(maxsize=None)
def _graded_basis(nvars, degree):
    """All monomials of total degree <= degree and the tables that shift them.

    The monomials are listed by total degree, so those of degree <= t are
    the first C(nvars + t, nvars); a vector's length thus records the
    degree bound of the polynomial it holds, and ``grow`` maps it to the
    length one degree up.  ``up[i][j]`` is the index of monomial j times
    u_i, for each monomial j of degree below ``degree``.
    """
    mons = [tuple(combo.count(i) for i in range(nvars))
            for t in range(degree + 1)
            for combo in itertools.combinations_with_replacement(
                range(nvars), t)]
    index = {e: j for j, e in enumerate(mons)}
    lower = mons[:math.comb(nvars + degree - 1, nvars)]
    up = []
    for i in range(nvars):
        table = np.array([index[e[:i] + (e[i] + 1,) + e[i + 1:]]
                          for e in lower], dtype=np.intp)
        table.flags.writeable = False
        up.append(table)
    grow = types.MappingProxyType(
        {math.comb(nvars + t, nvars): math.comb(nvars + t + 1, nvars)
         for t in range(degree)})
    return tuple(mons), tuple(up), grow


def _times_linear(v, form, up, grow):
    """The dense vector of v * (c0 + sum c_i u_i), one degree longer."""
    c0, slopes = form
    n = len(v)
    out = np.zeros(grow[n], dtype=object)
    if c0:
        out[:n] = c0 * v
    for i, c in slopes:
        out[up[i][:n]] += c * v
    return out


def _horner(terms, forms, up, grow):
    """Dense vector of sum c * prod L_j^e_j over (e, c) in terms.

    Groups the terms by the exponent of the first remaining variable and
    runs Horner's rule in that variable over the groups' compositions.
    Before the product that folds in the group of exponent k, the
    accumulator has degree at most deg(terms) - k - 1, so no product
    reaches past the degree of the basis tables.
    """
    if not forms:
        return np.array([terms[0][1]], dtype=object)
    groups = {}
    for e, c in terms:
        groups.setdefault(e[0], []).append((e[1:], c))
    top = max(groups)
    acc = _horner(groups[top], forms[1:], up, grow)
    for k in range(top - 1, -1, -1):
        acc = _times_linear(acc, forms[0], up, grow)
        if k in groups:
            child = _horner(groups[k], forms[1:], up, grow)
            if len(child) > len(acc):
                acc, child = child, acc
            acc[:len(child)] += child
    return acc


def _compose_affine(p, forms):
    """p(L_1, ..., L_6) in (u1,...,u5), exactly, for the forms of a simplex."""
    if p.is_zero():
        return Polynomial.zero(5)
    mons, up, grow = _graded_basis(5, p.total_degree())
    vec = _horner(list(p.terms.items()), forms, up, grow)
    return Polynomial._canonical(
        5, {mons[j]: c for j, c in enumerate(vec.tolist()) if c})


_CACHE = {}


def build_pullback(simplex):
    """The six affine forms L_k of an ordered simplex, cached by vertices.

    Form k is (c0, ((i, c), ...)) for L_k = c0 + sum c u_i over 0-based
    variables i, zero slopes left out: c0 is the first vertex's
    coordinate k and each slope a difference of consecutive vertices.
    """
    vs = simplex.vertices
    if vs not in _CACHE:
        _CACHE[vs] = tuple(
            (vs[0][k], tuple((i, vs[i + 1][k] - vs[i][k]) for i in range(5)
                             if vs[i + 1][k] != vs[i][k]))
            for k in range(6))
    return _CACHE[vs]


def point_image(simplex, x):
    """Z(x), the point of the simplex over an exact cube point x."""
    u = list(itertools.accumulate(x, operator.mul))
    return tuple(c0 + sum(c * u[i] for i, c in slopes)
                 for c0, slopes in build_pullback(simplex))


def pullback(p, simplex):
    """Pull a 6-variable polynomial p back to the cube through the simplex.

    Composes with the simplex's six affine forms by the Horner scheme of
    ``_compose_affine`` and then rewrites to stick-breaking coordinates.
    Horner multiplies only by a linear form, on dense vectors over the
    monomials of degree <= deg p, so the work grows with that basis and
    not with the terms of each power product.  The coefficients are
    Python ints, so the result is exact.
    """
    if p.nvars != 6:
        raise ValueError("expected a 6-variable polynomial")
    return _stick_rewrite(_compose_affine(p, build_pullback(simplex)))
