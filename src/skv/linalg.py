"""Small exact matrix helpers over cyclotomic entries.

Matrices are lists of lists of Cyclo.  Sizes stay tiny (degree of an
irreducible times a presentation rank), so plain Gaussian elimination,
finished by a 2x2 cross product instead of a last pivot inverse, and
Faddeev-LeVerrier are plenty.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyclo
from .errors import ArithmeticDomainError


def mat_identity(n: int) -> list[list[Cyclo]]:
    return [[Cyclo.one() if i == j else Cyclo.zero() for j in range(n)] for i in range(n)]


def mat_scale(mat, c) -> list[list[Cyclo]]:
    return [[entry * c for entry in row] for row in mat]


def mat_add(a, b) -> list[list[Cyclo]]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b) -> list[list[Cyclo]]:
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    if len(a[0]) != k:
        raise ArithmeticDomainError("matrix dimensions do not match")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_trace(a) -> Cyclo:
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def mat_det(a) -> Cyclo:
    """Determinant by Gaussian elimination with row swaps to a nonzero
    pivot, down to the last two columns, finished by the 2x2 cross
    product det * (p*d - c*b) of the remaining block [[p, b], [c, d]].
    A pivot before that is inverted only when some row below it has a
    nonzero entry to clear, so a 1x1 or 2x2 matrix takes no inverse.  The
    cross product multiplies the operands that eliminating with p^-1 would,
    det * p * (d - c * p^-1 * b), so the result carries the same Cyclo order,
    and a zero result is Cyclo.zero() at order 1."""
    n = len(a)
    if n == 0:
        return Cyclo.one()
    if n == 1:
        return Cyclo.zero() if a[0][0].is_zero() else a[0][0]
    m = [row[:] for row in a]
    det = Cyclo.one()
    for col in range(n - 2):
        pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pivot is None:
            return Cyclo.zero()
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        below = [r for r in range(col + 1, n) if not m[r][col].is_zero()]
        if not below:
            continue
        inv = m[col][col].inverse()
        for r in below:
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    (p, b), (c, d) = m[n - 2][n - 2:], m[n - 1][n - 2:]
    if p.is_zero():
        if c.is_zero():
            return Cyclo.zero()
        (p, b), (c, d) = (c, d), (p, b)
        det = -det
    tail = p * d if c.is_zero() else p * d - c * b
    return Cyclo.zero() if tail.is_zero() else det * tail


def char_poly(a) -> list[Cyclo]:
    """Coefficients c[0..n] of det(x*I - A), constant term first
    (Faddeev-LeVerrier; exact division by integers only)."""
    n = len(a)
    coeffs = [Cyclo.zero()] * (n + 1)
    coeffs[n] = Cyclo.one()
    m = mat_identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        ck = mat_trace(am) * Fraction(-1, k)
        coeffs[n - k] = ck
        m = mat_add(am, mat_scale(mat_identity(n), ck))
    return coeffs

