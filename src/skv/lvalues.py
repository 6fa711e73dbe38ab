"""Exact Dirichlet L-values at non-positive integers.

A character's value chi(a) is the integer power k of zeta_N, N the order
of chi.  L(1-n, chi) = -B_{n,chi}/n with generalized Bernoulli numbers
evaluated through Bernoulli polynomials.  Only primitive characters are
evaluated directly; S-truncation and T-modification multiply the
primitive value by the product of its Euler and delta factors, one
integer-weighted sum of powers of zeta_N (``euler_delta_factor``).
Values at r <= 0 only; leading terms at zeros are out of scope.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, lcm

from .characters import chain_extension
from .cyclotomic import Cyclo, root_of_unity_sum, unit_generators, unit_residues
from .errors import ArithmeticDomainError, FixtureError
from .groups import memo


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2."""
    if n == 0:
        return Fraction(1)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


class BernoulliData:
    """Index n and the coefficients of B_n(x), constant term first; also
    their common denominator D and the integers D * c_j."""

    def __init__(self, n: int, coeffs):
        self.n = n
        self.coeffs = tuple(coeffs)
        self.den = lcm(*(c.denominator for c in self.coeffs))
        self.scaled = tuple(c.numerator * (self.den // c.denominator)
                            for c in self.coeffs)


@lru_cache(maxsize=None)
def bernoulli_polynomial(n: int) -> BernoulliData:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), exact and cached."""
    if n < 0:
        raise ArithmeticDomainError("Bernoulli index must be non-negative")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = comb(n, k) * bernoulli_number(k)
    return BernoulliData(n, coeffs)


class DirichletCharacter:
    """Character of (Z/f)^x with exact root-of-unity values.

    A value is stored as an integer k with chi(a) = zeta_N^k, 0 <= k < N,
    where N (``order``) is the order of chi; ``powers`` maps each unit
    residue to its k.  Non-coprime residues take the value 0 implicitly.
    """

    def __init__(self, modulus: int, order: int, powers: dict[int, int]):
        """Checked constructor from integer powers of zeta_order, one per
        unit residue."""
        if modulus < 1:
            raise FixtureError("modulus must be positive")
        units = unit_residues(modulus)
        missing = [a for a in units if a not in powers]
        if missing:
            raise FixtureError(f"missing character value at residue {missing[0]}")
        powers = {a: powers[a] % order for a in units}
        # divide N and every k by their gcd, so that N is the order of chi
        q = gcd(order, *powers.values())
        self.modulus = modulus
        self.order = order // q
        self.powers = powers if q == 1 else {a: k // q for a, k in powers.items()}
        self._memo = {}
        self._check()

    def _check(self):
        # multiplicativity in integer arithmetic: chi(1) = 0 and
        # chi(a g) = chi(a) + chi(g) for every unit a and every g of a
        # generating set, which gives chi(a b) = chi(a) + chi(b) for every b
        # by induction on a word for b in the generators
        order, ints, modulus = self.order, self.powers, self.modulus
        if ints[1] or any((ints[a] + ints[g] - ints[a * g % modulus]) % order
                          for g in unit_generators(modulus) for a in ints):
            raise FixtureError("character values are not multiplicative")

    def __call__(self, a: int) -> Cyclo:
        k = self.powers.get(a % self.modulus if self.modulus > 1 else 1)
        if k is None:
            return Cyclo.zero()
        q = gcd(k, self.order)
        return Cyclo.zeta(self.order // q, k // q)

    @cached_property
    def key(self) -> tuple:
        """(modulus, N, sorted (residue, k) pairs): a key of the values,
        shared by equal characters."""
        return self.modulus, self.order, tuple(sorted(self.powers.items()))

    @property
    def conductor(self) -> int:
        def build():
            for d in sorted(_divisors(self.modulus)):
                if all(k == 0 for a, k in self.powers.items() if a % d == 1 % max(d, 1)):
                    return d
        return memo(self, "conductor", build)

    def primitive_core(self) -> "DirichletCharacter":
        """The character mod the conductor d that induces chi: chi is
        constant on each class mod d, and every unit mod d is the class of
        a unit mod f, so each unit a mod f gives the value at a mod d."""
        d = self.conductor
        if d == self.modulus:
            return self
        return memo(self, "primitive_core", lambda: DirichletCharacter(
            d, self.order, {a % d if d > 1 else 1: k for a, k in self.powers.items()}))

    def is_primitive(self) -> bool:
        return self.conductor == self.modulus


def characters_mod(f: int) -> list["DirichletCharacter"]:
    """All Dirichlet characters mod f, by chain extension over the unit
    group, each through the checked constructor."""
    key = (lambda a: a % f) if f > 1 else (lambda a: 1)
    n, chars = chain_extension(list(unit_residues(f)), lambda a, b: key(a * b))
    return [DirichletCharacter(f, n, c) for c in chars]


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def generalized_bernoulli(n: int, chi: DirichletCharacter) -> Cyclo:
    """B_{n,chi} = f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f), chi primitive."""
    if n < 1:
        raise ArithmeticDomainError("generalized Bernoulli index must be >= 1")
    if not chi.is_primitive():
        raise ArithmeticDomainError(
            "imprimitive character: evaluate the primitive core and add Euler factors"
        )
    return _bernoulli_sum(n, chi.modulus, chi.order, chi.powers.items())


def _bernoulli_sum(n: int, f: int, order: int, powers) -> Cyclo:
    """B_{n,chi} for the character mod f with chi(a) = zeta_order^k for
    each ``(a, k)`` in powers, in integer arithmetic."""
    bn = bernoulli_polynomial(n)
    # f D f^(n-1) B_n(a/f) = sum_j D c_j a^j f^(n-j) is an integer, with D
    # the common denominator of the coefficients c_j of B_n(x)
    scaled = [c * f ** (n - j) for j, c in enumerate(bn.scaled)]
    weights = [0] * order
    for a, k in powers:
        acc = 0
        for c in reversed(scaled):
            acc = acc * a + c
        weights[k] += acc
    return root_of_unity_sum(order, weights) * Fraction(1, f * bn.den)


def L_at_nonpositive(r: int, chi: DirichletCharacter) -> Cyclo:
    """L(r, chi) for r <= 0 and primitive chi: -B_{1-r,chi}/(1-r),
    evaluated once per r and character value key in a process."""
    if r > 0:
        raise ArithmeticDomainError("only non-positive arguments are supported")
    return _primitive_L(r, chi.key)


@lru_cache(maxsize=None)
def _primitive_L(r: int, key: tuple) -> Cyclo:
    modulus, order, powers = key
    n = 1 - r
    return _bernoulli_sum(n, modulus, order, powers) * Fraction(-1, n)


def euler_delta_factor(r: int, chi: DirichletCharacter, S, T) -> Cyclo:
    """prod_{q in S} (1 - chi(q) q^(-r)) * prod_{q in T} (1 - chi(q) q^(1-r))
    for r <= 0 and disjoint sets S and T of rational primes, at the order N
    of chi.  With chi(q) = zeta_N^k, each factor shifts integer weights on
    the powers of zeta_N by k, so the product is one ``root_of_unity_sum``;
    a prime dividing the modulus has chi(q) = 0 and the factor 1.  For
    the primitive core of chi, S gives the Euler factors of L_S(r, chi)
    and T the delta factors of delta_T(r, conjugate chi), whose
    contragredient lands back on chi's own value."""
    if r > 0:
        raise ArithmeticDomainError("only non-positive arguments are supported")
    S, T = set(S), set(T)
    if S & T:
        raise ArithmeticDomainError("S and T must be disjoint")
    n, f, powers = chi.order, chi.modulus, chi.powers
    weights = [1] + [0] * (n - 1)
    for primes, e in ((S, -r), (T, 1 - r)):
        for q in primes:
            k = powers.get(q % f if f > 1 else 1)
            if k is not None:
                c = q ** e
                # weights[j - k] wraps round to weights[j - k + n]
                weights = [w - c * weights[j - k] for j, w in enumerate(weights)]
    return root_of_unity_sum(n, weights)


def L_ST(r: int, chi: DirichletCharacter, S, T) -> Cyclo:
    """(S,T)-modified value: delta_T(r, conjugate chi) * L_S(r, chi), the
    primitive value times ``euler_delta_factor`` of the primitive core.

    S and T are disjoint sets of rational primes; factors at primes
    dividing the conductor are 1 (the primitive value already omits them).
    """
    prim = chi.primitive_core()
    return L_at_nonpositive(r, prim) * euler_delta_factor(r, prim, S, T)
