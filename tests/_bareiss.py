"""The Bareiss determinant, kept as the tests' reference.

``LatticeSimplex6`` reads a simplex's volume and its containment rows
off one fraction-free elimination; the tests check both, and the
witness determinants, against this separate one (Bareiss, Math. Comp.
22, 1968).
"""


def _int_det(rows):
    """Fraction-free Bareiss determinant of a square int matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
