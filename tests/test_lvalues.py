"""Exact Dirichlet L-values at non-positive integers, with numeric cross-checks."""

from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from skv.cyclotomic import Cyclo, unit_generators, unit_residues
from skv.errors import ArithmeticDomainError, FixtureError
from skv.lvalues import (DirichletCharacter, L_at_nonpositive, L_ST,
                         _primitive_L, bernoulli_number, euler_delta_factor,
                         bernoulli_polynomial, characters_mod,
                         generalized_bernoulli)

from oracles import (bernoulli_eval, dirichlet_from_exps, euler_delta_by_primes,
                     exponent_at, fraction_exps,
                     generalized_bernoulli_fractions, is_odd, is_trivial,
                     primitive_core_by_fractions, trivial_character)

CHI_M4 = DirichletCharacter(4, 2, {1: 0, 3: 1})
CHI_M3 = DirichletCharacter(3, 2, {1: 0, 2: 1})


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_polynomial_values():
    b2 = bernoulli_polynomial(2)
    assert bernoulli_eval(b2, Fraction(0)) == Fraction(1, 6)
    assert bernoulli_eval(b2, Fraction(1, 2)) == Fraction(-1, 12)
    with pytest.raises(ArithmeticDomainError):
        bernoulli_polynomial(-1)


def test_riemann_zeta_values():
    triv = trivial_character(1)
    assert L_at_nonpositive(0, triv).to_fraction() == Fraction(-1, 2)
    assert L_at_nonpositive(-1, triv).to_fraction() == Fraction(-1, 12)
    assert L_at_nonpositive(-3, triv).to_fraction() == Fraction(1, 120)
    assert L_at_nonpositive(-2, triv).is_zero()


def test_quadratic_character_values():
    assert L_at_nonpositive(0, CHI_M4).to_fraction() == Fraction(1, 2)
    assert L_at_nonpositive(0, CHI_M3).to_fraction() == Fraction(1, 3)
    # trivial zero: odd character, even Bernoulli index
    assert L_at_nonpositive(-1, CHI_M4).is_zero()
    assert L_at_nonpositive(-2, CHI_M4).to_fraction() == Fraction(-1, 2)


def test_even_nontrivial_b1_vanishes():
    for f in range(3, 40):
        for chi in characters_mod(f):
            if is_trivial(chi) or is_odd(chi) or not chi.is_primitive():
                continue
            assert generalized_bernoulli(1, chi).is_zero()


def test_character_validation():
    with pytest.raises(FixtureError):
        DirichletCharacter(4, 2, {1: 0})  # missing residue 3
    with pytest.raises(FixtureError):
        # not multiplicative: chi(3)^2 should be chi(9)=chi(4)
        DirichletCharacter(5, 4, {1: 0, 2: 1, 3: 1, 4: 2})


def test_characters_mod_counts_and_orthogonality():
    for f in (1, 3, 4, 5, 8, 12):
        chars = characters_mod(f)
        units = [a for a in range(1, f + 1)
                 if f == 1 or __import__("math").gcd(a, f) == 1]
        assert len(chars) == len(units)
        for chi in chars:
            total = sum((chi(a) for a in units), Cyclo.zero())
            want = Cyclo.rational(len(units)) if is_trivial(chi) else Cyclo.zero()
            assert total == want


def test_conductor_and_primitive_core():
    # lift chi mod 3 to modulus 12
    lifted = DirichletCharacter(12, 2, {1: 0, 5: 1, 7: 0, 11: 1})
    assert lifted.conductor == 3
    core = lifted.primitive_core()
    assert core.modulus == 3 and fraction_exps(core) == fraction_exps(CHI_M3)
    assert CHI_M4.is_primitive() and CHI_M4.conductor == 4
    assert trivial_character(6).conductor == 1


def test_primitive_core_matches_the_fraction_route():
    # the core from the integer powers read at a mod d against the core from
    # Fraction exponents read at a coprime lift of each unit mod d
    chars = [chi for f in range(1, 101) for chi in characters_mod(f)]
    assert len(chars) == sum(len(unit_residues(f)) for f in range(1, 101)) == 3044
    assert sum(not chi.is_primitive() for chi in chars) > 1000
    for chi in chars:
        assert chi.primitive_core().key == primitive_core_by_fractions(chi).key, chi.key


def test_primitive_core_is_built_once(monkeypatch):
    lifted = DirichletCharacter(12, 2, {1: 0, 5: 1, 7: 0, 11: 1})
    builds = []
    real = DirichletCharacter.__init__

    def counted(self, *args):
        builds.append(args)
        real(self, *args)

    monkeypatch.setattr(DirichletCharacter, "__init__", counted)
    core = lifted.primitive_core()
    assert lifted.primitive_core() is core and len(builds) == 1
    assert core.modulus == 3 and fraction_exps(core) == fraction_exps(CHI_M3)
    # a primitive character is its own core and builds nothing
    assert CHI_M4.primitive_core() is CHI_M4 and len(builds) == 1


def test_generalized_bernoulli_guards():
    with pytest.raises(ArithmeticDomainError):
        generalized_bernoulli(0, CHI_M4)
    lifted = DirichletCharacter(12, 2, {1: 0, 5: 1, 7: 0, 11: 1})
    with pytest.raises(ArithmeticDomainError):
        generalized_bernoulli(1, lifted)
    with pytest.raises(ArithmeticDomainError):
        L_at_nonpositive(1, CHI_M4)


def test_L_ST_euler_and_delta_factors():
    # real character: everything rational
    base = L_at_nonpositive(0, CHI_M3).to_fraction()
    # chi(7) = chi(1) = 1, chi(5) = chi(2) = -1
    assert L_ST(0, CHI_M3, [7], []).to_fraction() == base * (1 - 1)
    assert L_ST(0, CHI_M3, [5], []).to_fraction() == base * (1 + 1)
    assert L_ST(0, CHI_M3, [], [7]).to_fraction() == base * (1 - 7)
    assert L_ST(0, CHI_M3, [5], [7]).to_fraction() == base * 2 * (-6)
    # factors at primes dividing the conductor are dropped
    assert L_ST(0, CHI_M3, [3], []).to_fraction() == base
    with pytest.raises(ArithmeticDomainError):
        L_ST(0, CHI_M3, [5], [5])
    with pytest.raises(ArithmeticDomainError):
        euler_delta_factor(1, CHI_M3, [5], [])


def test_L_ST_complex_character_convention():
    # order-4 character mod 5 with chi(2) = i
    chi = DirichletCharacter(5, 4, {1: 0, 2: 1, 3: 3, 4: 2})
    base = L_at_nonpositive(0, chi)
    i = Cyclo.zeta(4)
    # T-factor uses the character's own value: 1 - chi(7) * 7, chi(7) = i
    assert L_ST(0, chi, [], [7]) == base * (Cyclo.one() - i * Fraction(7))
    # S-factor likewise: 1 - chi(3), chi(3) = -i
    assert L_ST(0, chi, [3], []) == base * (Cyclo.one() + i)


@pytest.mark.parametrize("f", [3, 4, 5, 7, 15, 23, 24])
def test_euler_delta_factor_matches_the_per_prime_product(f):
    # disjoint S and T, with primes dividing f and primes prime to it
    sets = [([], []), ([2], []), ([], [7]), ([2, 3], [5]), ([3, 5, 7], [2, 11]),
            ([13], [17, 19, 23])]
    for chi in characters_mod(f):
        prim = chi.primitive_core()
        for r in range(0, -4, -1):
            for S, T in sets:
                for c in (chi, prim):
                    got, want = euler_delta_factor(r, c, S, T), euler_delta_by_primes(r, c, S, T)
                    assert got == want and got.order == want.order == c.order
                got = L_ST(r, chi, S, T)
                want = L_at_nonpositive(r, prim) * euler_delta_by_primes(r, prim, S, T)
                assert got == want and got.order == want.order


def _cyclo_to_mpc(x):
    z = mpmath.e ** (2j * mpmath.pi / x.order)
    return sum((mpmath.mpf(c.numerator) / c.denominator * z ** k
                for k, c in enumerate(x.coeffs)), mpmath.mpc(0))


def test_numeric_hurwitz_cross_check():
    """L(r, chi) = f^(-r) sum_a chi(a) zeta_H(r, a/f) against mpmath."""
    mpmath.mp.dps = 30
    for f in (3, 4, 5, 7):
        for chi in characters_mod(f):
            if not chi.is_primitive():
                continue
            for r in (0, -1, -2):
                exact = L_at_nonpositive(r, chi)
                num = mpmath.mpc(0)
                for a in range(1, f + 1):
                    e = exponent_at(chi, a)
                    if e is None:
                        continue
                    w = mpmath.e ** (2j * mpmath.pi * e.numerator
                                     / e.denominator)
                    num += w * mpmath.zeta(r, mpmath.mpf(a) / f)
                num *= mpmath.mpf(f) ** (-r)
                want = _cyclo_to_mpc(exact)
                assert abs(num - want) < mpmath.mpf("1e-20")


def _all_pairs_multiplicative(f, exps):
    """Reference: chi(a) + chi(b) - chi(ab) is an integer for all units."""
    key = (lambda a: a % f) if f > 1 else (lambda a: 1)
    return all((exps[a] + exps[b] - exps[key(a * b)]) % 1 == 0
               for a in exps for b in exps)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60), st.data())
def test_multiplicativity_check_matches_all_pairs(f, data):
    chars = characters_mod(f)
    # a product of two characters is multiplicative
    x, y = data.draw(st.sampled_from(chars)), data.draw(st.sampled_from(chars))
    x_exps, y_exps = fraction_exps(x), fraction_exps(y)
    exps = {a: x_exps[a] + y_exps[a] for a in x_exps}
    # shift some exponents: by an integer keeps chi, by a fraction may not
    fracs = st.fractions(min_value=-2, max_value=2, max_denominator=12)
    for a in data.draw(st.lists(st.sampled_from(sorted(exps)), max_size=2)):
        exps[a] += data.draw(fracs)
    if _all_pairs_multiplicative(f, exps):
        dirichlet_from_exps(f, exps)
    else:
        with pytest.raises(FixtureError, match="not multiplicative"):
            dirichlet_from_exps(f, exps)


def test_integer_bernoulli_sums_match_the_fraction_formula():
    for f in range(1, 61):
        for chi in characters_mod(f):
            if not chi.is_primitive():
                continue
            for n in range(1, 5):
                got = generalized_bernoulli(n, chi)
                want = generalized_bernoulli_fractions(n, chi)
                assert (got.order, got.num, got.den) == \
                    (want.order, want.num, want.den), (f, fraction_exps(chi), n)


def test_l_value_cache_key_is_built_once_and_shared_by_equal_characters():
    chi = next(c for c in characters_mod(23) if c.order == 22)
    twin = DirichletCharacter(23, chi.order, dict(chi.powers))
    assert twin is not chi and twin.key == chi.key
    assert chi.key is chi.key  # built once per character
    for r in (0, -1):
        assert L_at_nonpositive(r, twin) is L_at_nonpositive(r, chi)
    # the key is the values: another character has another key
    assert all(c.key != chi.key for c in characters_mod(23) if fraction_exps(c) != fraction_exps(chi))


def test_unit_generators_generate_the_unit_group():
    for f in range(1, 61):
        units = {a % f if f > 1 else 1 for a in range(1, f + 1)
                 if gcd(a, f) == 1}
        span = {1 % f if f > 1 else 1}
        for g in unit_generators(f):
            while True:
                grown = span | {s * g % f for s in span}
                if grown == span:
                    break
                span = grown
        assert span == units, f


def test_memoised_l_values_equal_cold_evaluations():
    for f in (7, 23):
        for chi in characters_mod(f):
            core = chi.primitive_core()
            for r in (0, -1, -2):
                warm = L_at_nonpositive(r, core)
                assert L_at_nonpositive(r, core) is warm
                _primitive_L.cache_clear()
                cold = L_at_nonpositive(r, core)
                assert cold == warm
                assert cold == generalized_bernoulli(1 - r, core) * Fraction(-1, 1 - r)


def test_primitive_l_from_the_key_matches_the_character_route():
    # _primitive_L evaluates B_{1-r} from the integer key alone; the
    # character route builds the checked character and its Bernoulli sum
    chars = [chi for f in range(1, 61) for chi in characters_mod(f)
             if chi.is_primitive()]
    chars += [chi for chi in characters_mod(107) if chi.is_primitive()]
    assert len(chars) > 105
    _primitive_L.cache_clear()
    for chi in chars:
        rebuilt = DirichletCharacter(chi.modulus, chi.order, chi.powers)
        for r in (0, -1, -2, -3):
            got = _primitive_L(r, chi.key)
            want = generalized_bernoulli(1 - r, rebuilt) * Fraction(-1, 1 - r)
            assert (got.order, got.num, got.den) == (want.order, want.num, want.den)
