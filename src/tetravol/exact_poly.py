"""Exact integer polynomial arithmetic.

One type, ``Polynomial``: sparse multivariate polynomials over Z with a
plain-text serialization format.  ``evaluate`` is the one composition
loop: at a point of ints or Fractions it gives a number, at a point of
Polynomials it gives their composition, which ``substitute`` and
``restrict_curve`` (curves are 1-variable Polynomials) return.
Everything here is exact: coefficients are Python ints (or Fractions
where evaluation points are rational) and no floating point is used
anywhere.

A polynomial holds its terms in one of two forms and builds the other
on first read, then keeps both.  ``terms``, a dict from exponent tuples
to coefficients, is what the constructors, the arithmetic and
``parse`` build and what everything here reads.  ``arrays()``, an
exponent matrix and a coefficient array in the dict's order, is what
the pullback builds (``simplex_pullback``) and what the cube engine
reads (``_kernels``), so a pulled-back polynomial reaches the engine
without a dict.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


class Polynomial:
    """Sparse polynomial in ``nvars`` variables with int coefficients.

    Terms are a dict mapping exponent tuples to nonzero coefficients,
    or the same terms as arrays (module docstring).  Instances should be
    treated as immutable; all operations return fresh objects.
    """

    __slots__ = ("nvars", "_terms", "_arrays")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != self.nvars:
                    raise ValueError("exponent arity mismatch")
                if c:
                    key = tuple(int(e) for e in exps)
                    clean[key] = clean.get(key, 0) + c
        self._terms = {k: v for k, v in clean.items() if v}
        self._arrays = None

    @classmethod
    def _canonical(cls, nvars, terms):
        """Wrap canonical terms (int tuples to nonzero ints), unchecked."""
        p = object.__new__(cls)
        p.nvars, p._terms, p._arrays = nvars, terms, None
        return p

    @classmethod
    def _from_arrays(cls, nvars, exps, coeffs):
        """Wrap the array form of ``arrays()``, unchecked: distinct columns
        of exps, nonzero coeffs, in the order ``terms`` will iterate."""
        p = object.__new__(cls)
        p.nvars, p._terms, p._arrays = nvars, None, (exps, coeffs)
        return p

    @property
    def terms(self):
        """The dict of exponent tuples to coefficients."""
        if self._terms is None:
            exps, coeffs = self._arrays
            self._terms = dict(zip(map(tuple, exps.T.tolist()),
                                   coeffs.tolist()))
        return self._terms

    def arrays(self):
        """(exps, coeffs): the terms as a C-contiguous (nvars, n) intp
        matrix, row j the exponents of variable j, and an n-vector of
        their coefficients, int64 or object (Python ints); read off the
        dict, int64 when every coefficient fits.  Not to be written to."""
        if self._arrays is None:
            terms, n = self._terms, len(self._terms)
            exps = np.fromiter(chain.from_iterable(terms), np.intp,
                               n * self.nvars).reshape(n, self.nvars).T.copy()
            try:
                coeffs = np.fromiter(terms.values(), np.int64, n)
            except OverflowError:
                coeffs = np.array(list(terms.values()), dtype=object)
            self._arrays = exps, coeffs
        return self._arrays

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars, j):
        if not 0 <= j < nvars:
            raise ValueError("variable index out of range")
        exps = [0] * nvars
        exps[j] = 1
        return cls(nvars, {tuple(exps): 1})

    # -- inspection ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Largest sum of exponents, or -1 for the zero polynomial."""
        return int(self.arrays()[0].sum(axis=0).max(initial=-1))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial._canonical(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._canonical(
            self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero(self.nvars)
            return Polynomial._canonical(
                self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(int.__add__, e1, e2))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial._canonical(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, int):
            return Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            raise TypeError("cannot combine with %r" % (other,))
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return other

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.nvars == other.nvars
                and self.terms == other.terms)

    def __repr__(self):
        n = len(self.terms)
        return "Polynomial(nvars=%d, %d term%s)" % (
            self.nvars, n, "" if n == 1 else "s")

    # -- evaluation and composition -----------------------------------

    def evaluate(self, point):
        """Evaluate at a point of ints, Fractions or Polynomials, exactly.

        Each distinct power of a coordinate is computed once per call.
        Each term multiplies its coefficient by its powers in variable
        order, and the terms are summed in their dict order.  At a point
        of Polynomials the value is the composition, except that a
        constant self gives an int; ``substitute`` always returns a
        Polynomial.
        """
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        total = 0
        powers = [{} for _ in range(self.nvars)]
        for exps, c in self.terms.items():
            v = c
            for j, e in enumerate(exps):
                if e:
                    cache = powers[j]
                    if e not in cache:
                        cache[e] = point[j] ** e
                    v *= cache[e]
            total += v
        return total

    def partial_derivative(self, j):
        if not 0 <= j < self.nvars:
            raise ValueError("variable index out of range")
        out = {}
        for exps, c in self.terms.items():
            e = exps[j]
            if e:
                key = exps[:j] + (e - 1,) + exps[j + 1:]
                out[key] = out.get(key, 0) + c * e
        return Polynomial(self.nvars, out)

    def substitute(self, images):
        """Compose with polynomials: variable j is replaced by images[j].

        All images must share a variable count, which becomes the
        variable count of the result.
        """
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        if not images:
            raise ValueError("nullary substitution")
        m = images[0].nvars
        for q in images:
            if q.nvars != m:
                raise ValueError("images disagree on variable count")
        return Polynomial.zero(m) + self.evaluate(images)

    def restrict_curve(self, curves):
        """Restrict along a curve: variable j becomes curves[j].

        Each curve is a 1-variable Polynomial in the curve parameter t,
        and so is the result.
        """
        if any(c.nvars != 1 for c in curves):
            raise ValueError("curves must have one variable")
        return self.substitute(curves)

    # -- serialization ------------------------------------------------

    def serialize(self):
        """Canonical text form: one ``<coeff> <e1> ... <ek>`` line per term."""
        lines = []
        for exps in sorted(self.terms):
            lines.append(" ".join([str(self.terms[exps])] + [str(e) for e in exps]))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def parse(cls, text):
        """Parse the text form; ``#`` starts a comment, blank lines ignored.

        The variable count is that of the first term, so the text must
        hold at least one.  Duplicate exponent rows are merged.
        """
        nvars = None
        terms = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                values = [int(t) for t in tokens]
            except ValueError:
                raise ValueError("non-integer token in %r" % raw)
            coeff, exps = values[0], tuple(values[1:])
            if nvars is None:
                nvars = len(exps)
            elif len(exps) != nvars:
                raise ValueError("inconsistent arity in %r" % raw)
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in %r" % raw)
            terms[exps] = terms.get(exps, 0) + coeff
        if nvars is None:
            raise ValueError("empty polynomial text")
        return cls(nvars, terms)

