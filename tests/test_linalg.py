"""Exact dense linear algebra over the cyclotomic coefficient ring."""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from skv.cyclotomic import Cyclo
from skv.errors import ArithmeticDomainError
from skv.linalg import (char_poly, mat_det, mat_identity, mat_mul, mat_scale,
                        mat_trace, selection_dets)

from oracles import det_by_elimination, mat_sub


def _mat(rows):
    return [[Cyclo.rational(Fraction(x)) for x in row] for row in rows]


def test_det_small_oracles():
    assert mat_det(_mat([[5]])) == Cyclo.rational(5)
    assert mat_det(_mat([[1, 2], [3, 4]])) == Cyclo.rational(-2)
    assert mat_det(_mat([[0, 1], [1, 0]])) == Cyclo.rational(-1)
    assert mat_det(_mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == Cyclo.zero()


def test_det_with_zero_pivot_needs_swap():
    m = _mat([[0, 2], [3, 0]])
    assert mat_det(m) == Cyclo.rational(-6)


def test_det_over_roots_of_unity():
    i = Cyclo.zeta(4)
    m = [[i, Cyclo.one()], [Cyclo.one(), i]]
    assert mat_det(m) == Cyclo.rational(-2)


def test_char_poly_diagonal():
    m = _mat([[2, 0], [0, 3]])
    # x^2 - 5x + 6, constant term first
    assert char_poly(m) == [Cyclo.rational(6), Cyclo.rational(-5), Cyclo.one()]


def test_char_poly_constant_term_is_det_sign():
    m = _mat([[1, 4], [2, 3]])
    c = char_poly(m)
    assert c[0] == mat_det(m)  # (-1)^2 det
    assert c[1] == -mat_trace(m)


rational_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(st.lists(rational_entries, min_size=9, max_size=9),
       st.lists(rational_entries, min_size=9, max_size=9))
def test_det_is_multiplicative(xs, ys):
    a = [[Cyclo.rational(xs[3 * i + j]) for j in range(3)] for i in range(3)]
    b = [[Cyclo.rational(ys[3 * i + j]) for j in range(3)] for i in range(3)]
    assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


@settings(max_examples=30, deadline=None)
@given(st.lists(rational_entries, min_size=4, max_size=4))
def test_cayley_hamilton(xs):
    a = [[Cyclo.rational(xs[2 * i + j]) for j in range(2)] for i in range(2)]
    c = char_poly(a)
    acc = [[Cyclo.zero() for _ in range(2)] for _ in range(2)]
    power = mat_identity(2)
    for coeff in c:
        acc = [[acc[i][j] + power[i][j] * coeff for j in range(2)]
               for i in range(2)]
        power = mat_mul(power, a)
    assert all(entry.is_zero() for row in acc for entry in row)


@settings(max_examples=30, deadline=None)
@given(st.lists(rational_entries, min_size=4, max_size=4))
def test_char_poly_evaluates_to_zero_det(xs):
    a = [[Cyclo.rational(xs[2 * i + j]) for j in range(2)] for i in range(2)]
    # det(xI - A) at x = 2 equals char_poly evaluated at 2
    shifted = mat_sub(mat_scale(mat_identity(2), Fraction(2)), a)
    value = sum((c * Fraction(2) ** k for k, c in enumerate(char_poly(a))),
                Cyclo.zero())
    assert mat_det(shifted) == value


def _leibniz(m):
    """det as the signed sum over permutations, no division."""
    n = len(m)
    total = Cyclo.zero()
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = Cyclo.rational(-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + term
    return total


@st.composite
def cyclo_matrices(draw):
    """n x n matrices, n <= 4, of sums of at most two roots of unity of one
    order N <= 12, with a zero first pivot or a zero column forced in some."""
    n = draw(st.integers(1, 4))
    order = draw(st.integers(1, 12))
    term = st.tuples(st.integers(-2, 2), st.integers(0, order - 1))

    def entry(terms):
        return sum((Cyclo.zeta(order, k) * c for c, k in terms), Cyclo.zero())

    m = [[entry(draw(st.lists(term, max_size=2))) for _ in range(n)]
         for _ in range(n)]
    if draw(st.booleans()):
        m[0][0] = Cyclo.zero()
    if draw(st.booleans()):
        col = draw(st.integers(0, n - 1))
        for row in m:
            row[col] = Cyclo.zero()
    return m


@settings(max_examples=80, deadline=None)
@given(cyclo_matrices())
def test_det_matches_leibniz_expansion(m):
    assert mat_det(m) == _leibniz(m)


def test_det_inverts_only_pivots_with_rows_to_clear(monkeypatch):
    calls = []
    real = Cyclo.inverse

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Cyclo, "inverse", counted)
    assert mat_det([[Cyclo.zeta(5, 2)]]) == Cyclo.zeta(5, 2)
    assert calls == []
    # upper triangular: no pivot has a nonzero entry below it
    assert mat_det(_mat([[2, 1, 4], [0, 3, 5], [0, 0, 7]])) == Cyclo.rational(42)
    assert calls == []
    # a 2x2 ends in the cross product p*d - c*b, with no inverse
    assert mat_det(_mat([[2, 1], [3, 4]])) == Cyclo.rational(5)
    assert calls == []
    # lower triangular: the first pivot clears rows, the last two columns
    # end in the cross product
    assert mat_det(_mat([[2, 0, 0], [1, 3, 0], [4, 5, 7]])) == Cyclo.rational(42)
    assert len(calls) == 1


def _det_by_pivot_inverses(a):
    """Oracle: Gaussian elimination that inverts every pivot with a nonzero
    entry below it, the last ones included, with no 2x2 finish."""
    n = len(a)
    if n == 0:
        return Cyclo.one()
    m = [row[:] for row in a]
    det = Cyclo.one()
    for col in range(n):
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
    return det


def _key(x):
    return (x.order, x.num, x.den)


MIXED_ORDERS = (1, 2, 3, 6, 11, 22)


@st.composite
def mixed_order_entries(draw):
    """A sum of at most three terms c * zeta_N^k, each at its own order N in
    MIXED_ORDERS, lifted to the lcm of its order and a drawn one: rational
    values stored at higher orders, zeros at orders above 1 and terms that
    cancel all occur."""
    terms = draw(st.lists(st.tuples(st.sampled_from(MIXED_ORDERS),
                                    st.integers(0, 21),
                                    st.sampled_from((-2, -1, Fraction(1, 2), 1, 3))),
                          max_size=3))
    if terms and draw(st.booleans()):
        n, k, c = terms[0]
        terms.append((n, k, -c))  # cancels the first term
    value = sum((Cyclo.zeta(n, k) * c for n, k, c in terms), Cyclo.zero())
    return value.lift(lcm(value.order, draw(st.sampled_from(MIXED_ORDERS))))


@st.composite
def mixed_order_matrices(draw):
    n = draw(st.integers(1, 4))
    m = [[draw(mixed_order_entries()) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("plain", "zero pivot", "equal rows", "zero column")))
    if shape == "zero pivot":
        m[0][0] = Cyclo.zero(draw(st.sampled_from(MIXED_ORDERS)))
    elif shape == "equal rows" and n > 1:
        m[-1] = m[0][:]
    elif shape == "zero column":
        col = draw(st.integers(0, n - 1))
        for row in m:
            row[col] = Cyclo.zero()
    return m


@settings(max_examples=150, deadline=None)
@given(mixed_order_matrices())
def test_det_matches_pivot_inverse_oracle_exactly(m):
    # same value, and the same order and normal form as before
    assert _key(mat_det(m)) == _key(_det_by_pivot_inverses(m))


def test_det_of_zero_entries_is_the_order_one_zero():
    for order in MIXED_ORDERS:
        zero = Cyclo.zero(order)
        assert _key(mat_det([[zero]])) == _key(Cyclo.zero())
        assert _key(_det_by_pivot_inverses([[zero]])) == _key(Cyclo.zero())
        singular = [[Cyclo.zeta(order), Cyclo.one(order)],
                    [Cyclo.zeta(order) * 2, Cyclo.rational(2)]]
        assert _key(mat_det(singular)) == _key(Cyclo.zero())
        # a zero below the last pivot takes no part in the result's order
        upper = [[Cyclo.rational(2), Cyclo.rational(5)], [zero, Cyclo.rational(3)]]
        assert _key(mat_det(upper)) == _key(_det_by_pivot_inverses(upper)) \
            == _key(Cyclo.rational(6))
        # a rational 1x1 entry keeps the order it is stored at
        three = Cyclo.rational(3).lift(order)
        assert _key(mat_det([[three]])) == _key(three)


@st.composite
def block_row_selections(draw):
    """(matrix, selections): a * d rows of b * d entries, d in {1, 2}, a
    from b to b + 2, and every choice of b of its a blocks of d rows, as
    a Fitting invariant takes them at an irreducible of degree d.  The
    entries are mixed-order values, or rationals stored at a drawn order,
    with zeros at every order among them."""
    d = draw(st.sampled_from((1, 2)))
    b = draw(st.integers(1, 4 if d == 1 else 3))
    a = draw(st.integers(b, b + 2))
    zeros = st.sampled_from(MIXED_ORDERS).map(Cyclo.zero)
    if draw(st.booleans()):
        values = st.builds(lambda q, n: Cyclo.rational(q).lift(n),
                           st.sampled_from((-2, -1, Fraction(1, 2), 1, 3)),
                           st.sampled_from(MIXED_ORDERS))
    else:
        values = mixed_order_entries()
    entries = st.one_of(zeros, values, values)
    m = [[draw(entries) for _ in range(b * d)] for _ in range(a * d)]
    if draw(st.booleans()):
        m[-1] = m[0][:]  # two equal rows
    return m, [[r * d + j for r in rows for j in range(d)]
               for rows in combinations(range(a), b)]


@settings(max_examples=120, deadline=None)
@given(block_row_selections())
def test_shared_elimination_matches_each_selection_on_its_own(case):
    # value, order and normal form: the selections sharing their row states,
    # in either order, give what each one's own elimination gives, new or
    # as it was
    m, selections = case
    got = list(map(_key, selection_dets(m, selections)))
    assert got == [_key(mat_det([m[r] for r in rows])) for rows in selections]
    assert got == [_key(det_by_elimination([m[r] for r in rows])) for rows in selections]
    assert list(map(_key, selection_dets(m, selections[::-1]))) == got[::-1]


def test_selections_must_share_one_size():
    m = _mat([[1, 2], [3, 4], [5, 6]])
    assert selection_dets(m, []) == []
    assert selection_dets(m, [[0, 1], [1, 2], [2, 0]]) == \
        [Cyclo.rational(-2), Cyclo.rational(-2), Cyclo.rational(4)]
    with pytest.raises(ArithmeticDomainError, match="one size"):
        selection_dets(m, [[0, 1], [2]])
