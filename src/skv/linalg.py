"""Small exact matrix helpers over cyclotomic entries.

Matrices are lists of lists of Cyclo.  Sizes stay tiny (degree of an
irreducible times a presentation rank), so plain Gaussian elimination,
finished by a 2x2 cross product instead of a last pivot inverse, and
Faddeev-LeVerrier are plenty.  The minors of a Fitting invariant are
square selections of the rows of one matrix; ``selection_dets`` eliminates
them together, keeping each row state by the pivot rows taken before it,
so a step that selections share runs once.
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
    """Determinant of a square matrix: ``selection_dets`` of the one
    selection of all its rows."""
    return selection_dets(a, [range(len(a))])[0]


def selection_dets(a, selections) -> list[Cyclo]:
    """The determinant of each square matrix made of the rows of ``a``
    that a selection lists, in its order: ``selections`` is a sequence of
    sequences of one size n, and each row of ``a`` has n entries.

    Each is Gaussian elimination with row swaps to a nonzero pivot, down
    to the last two columns, finished by the 2x2 cross product
    det * (p*d - c*b) of the remaining block [[p, b], [c, d]].  A pivot
    before that is inverted only when some row below it has a nonzero
    entry to clear, so a 1x1 or 2x2 matrix takes no inverse.  The cross
    product multiplies the operands that eliminating with p^-1 would,
    det * p * (d - c * p^-1 * b), so the result carries the same Cyclo
    order, and a zero result is Cyclo.zero() at order 1.

    The selections share one elimination: after k steps a row's state
    depends only on the row and on the k pivot rows taken, in order.  So
    every row state, every pivot inverse and every running product of the
    pivots is kept by the pivot rows taken (and the row), and made once
    for all selections; each selection runs its own pivot search, swaps,
    rows to clear and 2x2 finish on those same operands, and so gets the
    value and order that eliminating it alone gives.  A swap's sign is
    applied to the result, since -x * y is -(x * y) exactly."""
    n = len(selections[0]) if selections else 0
    if any(len(rows) != n for rows in selections):
        raise ArithmeticDomainError("selections of one size expected")
    if n == 0:
        return [Cyclo.one() for _ in selections]
    if n == 1:
        return [Cyclo.zero() if a[r][0].is_zero() else a[r][0] for r, in selections]
    # (pivot rows taken, row) -> that row after clearing with them
    states = {((), r): row for r, row in enumerate(a)}
    inverses = {}  # pivot rows taken -> inverse of the last one's pivot
    products = {(): Cyclo.one()}  # pivot rows taken -> product of their pivots
    out = []
    for rows in selections:
        pos, taken, sign = list(rows), (), 1
        for col in range(n - 2):
            m = [states[taken, r] for r in pos[col:]]
            pivot = next((i for i, row in enumerate(m) if not row[col].is_zero()), None)
            if pivot is None:
                break
            if pivot:
                pos[col], pos[col + pivot] = pos[col + pivot], pos[col]
                m[0], m[pivot] = m[pivot], m[0]
                sign = -sign
            top, before = m[0], taken
            taken += (pos[col],)
            if taken not in products:
                products[taken] = products[before] * top[col]
            for r, row in zip(pos[col + 1:], m[1:]):
                if (taken, r) in states:
                    continue
                if not row[col].is_zero():
                    inv = inverses.get(taken)
                    if inv is None:
                        inv = inverses[taken] = top[col].inverse()
                    factor = row[col] * inv
                    row = row[:col] + [row[c] - factor * top[c] for c in range(col, n)]
                states[taken, r] = row
        else:
            (p, b), (c, d) = (states[taken, r][n - 2:] for r in pos[n - 2:])
            if p.is_zero():
                (p, b), (c, d) = (c, d), (p, b)
                sign = -sign
            if not p.is_zero():
                tail = p * d if c.is_zero() else p * d - c * b
                if not tail.is_zero():
                    det = products[taken] * tail
                    out.append(det if sign > 0 else -det)
                    continue
        out.append(Cyclo.zero())
    return out


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

