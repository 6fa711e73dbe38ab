"""Exact cyclotomic arithmetic: reduction, Galois action, integrality."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from skv.cyclotomic import (Cyclo, euler_phi, fraction_from_str, order_data,
                            rational_str, root_of_unity_sum, unit_generators,
                            unit_residues, unit_tower)
from skv.errors import ArithmeticDomainError

from oracles import conjugate, from_root_of_unity, inverse_by_conjugates


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_zeta4_squares_to_minus_one():
    i = Cyclo.zeta(4)
    assert i * i == Cyclo.rational(-1)
    assert i * i * i == i.inverse()


def test_zeta3_satisfies_its_minimal_polynomial():
    w = Cyclo.zeta(3)
    assert w * w + w + Cyclo.one() == Cyclo.zero()


def test_zeta6_reduces_against_phi6():
    # zeta_6 = 1 + zeta_3 after reduction mod x^2 - x + 1
    z = Cyclo.zeta(6)
    assert z - Cyclo.one() == Cyclo.zeta(3)


def test_sum_of_primitive_fifth_roots():
    total = sum((Cyclo.zeta(5, k) for k in range(1, 5)), Cyclo.zero())
    assert total == Cyclo.rational(-1)


def test_cross_order_comparison():
    assert Cyclo.zeta(4) == Cyclo.zeta(12, 3)
    assert Cyclo.zeta(8) != Cyclo.zeta(8, 3)


def test_from_root_of_unity():
    assert from_root_of_unity(Fraction(1, 2)) == Cyclo.rational(-1)
    assert from_root_of_unity(Fraction(1, 4)) == Cyclo.zeta(4)
    assert from_root_of_unity(Fraction(0)) == Cyclo.one()


def test_inverse_and_division():
    x = Cyclo.zeta(5) + Cyclo.rational(2)
    assert x * x.inverse() == Cyclo.one()
    assert Cyclo.zeta(5) * x.inverse() * x == Cyclo.zeta(5)
    with pytest.raises(ArithmeticDomainError):
        Cyclo.zero().inverse()


def test_galois_action_permutes_roots():
    z = Cyclo.zeta(7)
    assert z.galois(3) == Cyclo.zeta(7, 3)
    x = z + z.inverse()
    # the sum over a full Galois orbit is rational
    orbit = sum((x.galois(k) for k in (1, 2, 3)), Cyclo.zero())
    assert orbit.is_rational() and orbit.to_fraction() == -1


def test_identity_galois_action_fixes_the_value():
    z, q = Cyclo.zeta(7, 2), Cyclo.rational(Fraction(3, 5))
    assert z.galois(8) == z and q.galois(4) == q
    assert z.galois(3) == Cyclo.zeta(7, 6)
    with pytest.raises(ArithmeticDomainError):
        z.galois(14)
    # values at different orders still compare by value
    assert q == q.lift(6) and z != z.lift(14) * 2


def test_conjugate_is_inverse_on_roots():
    z = Cyclo.zeta(9, 2)
    assert conjugate(z) == z.inverse()
    assert (z * conjugate(z)) == Cyclo.one()


def test_algebraic_integer_detection():
    assert Cyclo.zeta(12).is_algebraic_integer()
    assert (Cyclo.zeta(8) + Cyclo.rational(Fraction(3))).is_algebraic_integer()
    assert not Cyclo.rational(Fraction(1, 2)).is_algebraic_integer()
    half_zeta = Cyclo.zeta(5) * Fraction(1, 2)
    assert not half_zeta.is_algebraic_integer()


def test_p_integrality():
    x = Cyclo.rational(Fraction(3, 10))
    assert x.is_p_integral(3)
    assert not x.is_p_integral(2)
    assert not x.is_p_integral(5)
    assert Cyclo.zeta(7).is_p_integral(7)


def test_json_roundtrip():
    x = Cyclo.zeta(12, 5) * Fraction(7, 3) - Cyclo.rational(Fraction(1, 2))
    assert Cyclo.from_json(x.to_json()) == x


def test_root_of_unity_sum_matches_direct_sum():
    weights = [Fraction(2), Fraction(-1, 3), Fraction(0), Fraction(5)]
    direct = sum((Cyclo.zeta(4, k) * w for k, w in enumerate(weights)),
                 Cyclo.zero())
    assert root_of_unity_sum(4, weights) == direct


def test_fraction_string_roundtrip():
    for q in (Fraction(0), Fraction(-3), Fraction(22, 7)):
        assert fraction_from_str(rational_str(q.numerator, q.denominator)) == q


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 36), st.data())
def test_to_json_writes_each_coefficient_as_its_fraction(order, den, data):
    # negative, zero and positive numerators over a den that may share
    # factors with them; each nonzero coefficient is written as str(Fraction)
    phi = order_data(order).phi
    num = data.draw(st.lists(st.integers(-40, 40), min_size=phi, max_size=phi))
    x = Cyclo.from_numerators(order, num, den)
    assert x.to_json() == {"order": order, "coeffs": {
        str(i): str(Fraction(a, den)) for i, a in enumerate(num) if a}}


def test_mapping_coefficients_rejected():
    # a dict would be read through its keys, not its values
    with pytest.raises(ArithmeticDomainError):
        Cyclo(3, {0: Fraction(1, 2), 1: Fraction(3)})


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# zeros often, so rational and sparse elements are drawn too
coefficients = st.one_of(st.just(Fraction(0)), small_fracs)


def coefficient_lists(order):
    phi = euler_phi(order)
    return st.lists(coefficients, min_size=phi, max_size=phi)


def cyclo_elements(order):
    return coefficient_lists(order).map(lambda cs: Cyclo(order, cs))


@settings(max_examples=60, deadline=None)
@given(cyclo_elements(12), cyclo_elements(12), cyclo_elements(12))
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a
    assert a * (b * c) == (a * b) * c


@settings(max_examples=40, deadline=None)
@given(cyclo_elements(10))
def test_galois_commutes_with_multiplication(a):
    b = Cyclo.zeta(10) + Cyclo.rational(2)
    assert (a * b).galois(3) == a.galois(3) * b.galois(3)
    assert (a + b).galois(7) == a.galois(7) + b.galois(7)


# -- differential model: Fraction polynomials reduced mod Phi_n ----------


def _mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    return q, a[:len(b) - 1]


def _phi_poly(n):
    """Phi_n as the product of (x^d - 1)^mu(n/d) over the divisors d of n."""
    top, bottom = [Fraction(1)], [Fraction(1)]
    for d in range(1, n + 1):
        if n % d == 0 and _mobius(n // d):
            factor = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
            if _mobius(n // d) == 1:
                top = _poly_mul(top, factor)
            else:
                bottom = _poly_mul(bottom, factor)
    quot, rem = _poly_divmod(top, bottom)
    assert not any(rem)
    return quot


def _model_reduce(poly, n):
    phi_n = _phi_poly(n)
    phi = len(phi_n) - 1
    poly = list(poly) + [Fraction(0)] * phi
    return tuple(_poly_divmod(poly, phi_n)[1])


def _model_substitute(coeffs, m, n):
    """sum c_i x^(i m mod n), reduced mod Phi_n."""
    out = [Fraction(0)] * n
    for i, c in enumerate(coeffs):
        out[(i * m) % n] += c
    return _model_reduce(out, n)


def _assert_normal(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert len(x.num) == euler_phi(x.order)
    assert x.coeffs == tuple(Fraction(a, x.den) for a in x.num)
    if x.is_zero():
        assert x.den == 1


# (n, d): operands at orders n and d with d | n, so both live in Q(zeta_n)
order_pairs = st.sampled_from([(11, 11), (22, 11), (22, 2), (46, 23),
                               (46, 46), (46, 1), (12, 4), (12, 3)])


@st.composite
def mixed_operands(draw):
    n, d = draw(order_pairs)
    return n, d, draw(coefficient_lists(n)), draw(coefficient_lists(d))


@settings(max_examples=60, deadline=None)
@given(mixed_operands(), st.integers(min_value=1, max_value=200))
def test_arithmetic_matches_fraction_model(operands, k):
    n, d, ca, cb = operands
    a, b = Cyclo(n, ca), Cyclo(d, cb)
    for x, cs in ((a, ca), (b, cb)):
        _assert_normal(x)
        assert x.coeffs == tuple(cs)
    step = n // d
    b_up = _model_substitute(cb, step, n)
    lifted = b.lift(n)
    _assert_normal(lifted)
    assert lifted.coeffs == b_up and lifted == b

    total = a + b
    _assert_normal(total)
    assert total.order == n
    assert total.coeffs == tuple(x + y for x, y in zip(ca, b_up))

    product = a * b
    _assert_normal(product)
    assert product.order == n
    assert product.coeffs == _model_reduce(_poly_mul(list(ca), list(b_up)), n)

    while gcd(k, n) != 1:
        k += 1
    image = a.galois(k)
    _assert_normal(image)
    assert image.coeffs == _model_substitute(ca, k, n)

    if not a.is_zero():
        inv = a.inverse()
        _assert_normal(inv)
        one = (Fraction(1),) + (Fraction(0),) * (len(ca) - 1)
        assert _model_reduce(_poly_mul(list(ca), list(inv.coeffs)), n) == one


@settings(max_examples=60, deadline=None)
@given(small_fracs, st.sampled_from([1, 2, 11, 22, 46]),
       coefficient_lists(22), st.integers(min_value=1, max_value=3))
def test_hash_agrees_with_equality(q, n, cs, m):
    r = Cyclo.rational(q)
    assert r == q and hash(r) == hash(q)
    up = r.lift(n)
    _assert_normal(up)
    assert up == r and up == q and hash(up) == hash(q)
    x = Cyclo(22, cs)
    same = Cyclo(22, list(x.coeffs))
    assert same == x and hash(same) == hash(x)
    if x.is_rational():
        assert hash(x) == hash(x.to_fraction())
    # equal values given at different orders
    lifted = x.lift(22 * m)
    assert lifted == x and hash(lifted) == hash(x)
    a, b = Cyclo.zeta(4), Cyclo.zeta(12, 3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_cached_zeta_equals_a_freshly_reduced_power():
    for n in (1, 2, 3, 4, 12, 22, 46, 105, 128):
        for k in range(-n, 2 * n):
            z = Cyclo.zeta(n, k)
            fresh = root_of_unity_sum(n, [0] * (k % n) + [1])
            assert (z.order, z.num, z.den) == (fresh.order, fresh.num, fresh.den)
            # one shared value per n and k mod n
            assert Cyclo.zeta(n, k % n) is z


def test_unit_tower_writes_each_unit_once():
    for n in range(1, 129):
        tower = unit_tower(n)
        assert tuple(a for a, _ in tower) == unit_generators(n)
        words = {1}
        for a, m in tower:
            # a^m lies in the span so far, and no smaller power of a does
            assert pow(a, m, n) in words
            assert all(pow(a, e, n) not in words for e in range(1, m))
            words = {w * pow(a, e, n) % n for w in words for e in range(m)}
        assert words == set(unit_residues(n)) and len(words) == euler_phi(n)


def test_inverse_matches_the_conjugate_product_at_every_order():
    rng = random.Random(11)
    for n in range(1, 129):
        phi = euler_phi(n)
        for density in (1, 3):
            num = [0] * phi
            for i in rng.sample(range(phi), min(density, phi)):
                num[i] = rng.choice((-3, -2, -1, 1, 2, 3))
            x = Cyclo.from_numerators(n, num, rng.randint(1, 5))
            if x.is_zero():
                continue
            inv, want = x.inverse(), inverse_by_conjugates(x)
            assert (inv.order, inv.num, inv.den) == (want.order, want.num, want.den), n
            assert x * inv == Cyclo.one()
