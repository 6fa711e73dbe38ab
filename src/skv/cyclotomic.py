"""Exact arithmetic in cyclotomic fields Q(zeta_n) over the power basis.

Elements are coefficient vectors of length phi(n) over the basis
1, zeta_n, ..., zeta_n^(phi(n)-1), reduced modulo the n-th cyclotomic
polynomial.  A vector is stored as integer numerators over one positive
common denominator, divided through by their gcd, as FLINT's fmpq_poly and
ANTIC's nf_elem store theirs; addition, multiplication, reduction, lifting
and the Galois action then do only integer work.  Values are immutable;
the per-order reduction caches are guarded by a lock so concurrent fills
stay idempotent.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

from .errors import ArithmeticDomainError, DivisionByZero, OrderCapExceeded

#: Largest cyclotomic order allowed when lifting to a common field.
ORDER_CAP = 10**6

def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _mobius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (remainder known to vanish)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        c //= den[-1]
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert all(c == 0 for c in num)
    return q


@lru_cache(maxsize=None)
def unit_residues(modulus: int) -> tuple[int, ...]:
    """The units mod f as residues: those in [1, f) coprime to f, and 1
    alone for f = 1."""
    return tuple(a for a in range(1, modulus) if gcd(a, modulus) == 1) or (1,)


@lru_cache(maxsize=None)
def unit_tower(modulus: int) -> tuple[tuple[int, int], ...]:
    """Greedy generators of (Z/modulus)^x with their relative orders: each
    unit a, smallest first, that the units taken so far do not generate,
    paired with the least m >= 2 such that a^m lies in the span of the
    earlier ones.  Every unit is then a_1^e_1 ... a_r^e_r for exactly one
    choice of exponents 0 <= e_i < m_i."""
    tower, span = [], {1}
    for a in range(2, modulus):
        if gcd(a, modulus) != 1 or a in span:
            continue
        # <span, a> is the union of the cosets span * a^k, 0 <= k < m
        grown, power, m = set(span), a, 1
        while power not in span:
            grown.update(s * power % modulus for s in span)
            power = power * a % modulus
            m += 1
        tower.append((a, m))
        span = grown
    return tuple(tower)


@lru_cache(maxsize=None)
def unit_generators(modulus: int) -> tuple[int, ...]:
    """A generating set of (Z/modulus)^x: the generators of ``unit_tower``."""
    return tuple(a for a, _ in unit_tower(modulus))


class _OrderData:
    """Cached data for one cyclotomic order: Phi_n and the reduced powers."""

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        self.poly = _cyclotomic_poly(n)  # integer coeffs, monic, len phi+1
        # terms[k] = the nonzero (index, coefficient) pairs of x^(phi+k)
        # mod Phi_n, filled lazily; last = the dense coefficients of the
        # latest power filled, from which the next one is found
        self._terms: list[tuple[tuple[int, int], ...]] = []
        self._last = [-c for c in self.poly[:-1]]
        self._lock = threading.Lock()
        # k -> zeta_n^k, filled by Cyclo.zeta; values are immutable
        self.zetas: dict[int, Cyclo] = {}

    def power_terms(self, k: int) -> tuple[tuple[int, int], ...]:
        """Nonzero (index, coefficient) pairs of x^k mod Phi_n, for k >= phi."""
        idx = k - self.phi
        if idx >= len(self._terms):
            with self._lock:
                while len(self._terms) <= idx:
                    if self._terms:
                        top = self._last[-1]
                        row = [0] + self._last[:-1]
                        if top:
                            for j in range(self.phi):
                                row[j] -= top * self.poly[j]
                        self._last = row
                    self._terms.append(
                        tuple((j, r) for j, r in enumerate(self._last) if r))
        return self._terms[idx]

    def numerators(self, terms) -> list[int]:
        """Power-basis numerators of sum w * zeta_n^e over the pairs
        (e, w) in ``terms``, 0 <= e < n and w an integer: each term is
        added as its reduced power, and no vector of length n is built."""
        phi, num = self.phi, [0] * self.phi
        for e, w in terms:
            if e < phi:
                num[e] += w
            else:
                for j, r in self.power_terms(e):
                    num[j] += w * r
        return num

    @cached_property
    def traces(self) -> tuple[int, ...]:
        """Tr(zeta_n^k) over Q for 0 <= k < n: the Ramanujan sum
        mu(m) * phi(n) / phi(m) with m = n / gcd(n, k)."""
        weight = {}
        out = []
        for k in range(self.n):
            m = self.n // gcd(self.n, k)
            if m not in weight:
                weight[m] = _mobius(m) * (self.phi // euler_phi(m))
            out.append(weight[m])
        return tuple(out)


_cyclo_cache: dict[int, _OrderData] = {}
# RLock: building _OrderData(n) recursively builds the divisor orders.
_cyclo_cache_lock = threading.RLock()


def _cyclotomic_poly(n: int) -> list[int]:
    """Phi_n as integer coefficient list, via iterated division of x^n - 1."""
    if n == 1:
        return [-1, 1]
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_int(num, _cyclotomic_poly_cached(d))
    return num


def _cyclotomic_poly_cached(n: int) -> list[int]:
    return order_data(n).poly


def order_data(n: int) -> _OrderData:
    if n < 1:
        raise ArithmeticDomainError(f"invalid cyclotomic order {n}")
    if n > ORDER_CAP:
        raise OrderCapExceeded(f"cyclotomic order {n} exceeds cap {ORDER_CAP}")
    data = _cyclo_cache.get(n)
    if data is None:
        with _cyclo_cache_lock:
            data = _cyclo_cache.get(n)
            if data is None:
                data = _OrderData(n)
                _cyclo_cache[n] = data
    return data


def _reduce_poly(num: list[int], data: _OrderData) -> list[int]:
    """Reduce an integer coefficient list of any length modulo Phi_n."""
    phi = data.phi
    out = num[:phi] + [0] * (phi - len(num))
    for k in range(phi, len(num)):
        c = num[k]
        if c:
            for j, r in data.power_terms(k):
                out[j] += c * r
    return out


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator
    (the numerators and the denominator are then coprime)."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values, 1
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _make(order: int, num, den: int) -> "Cyclo":
    """Cyclo from integer numerators already coprime to ``den > 0``."""
    x = object.__new__(Cyclo)
    _set_order(x, order)
    _set_num(x, tuple(num))
    _set_den(x, den)
    return x


def _normal(order: int, num, den: int) -> "Cyclo":
    """Cyclo from integer numerators over ``den > 0``, divided by their gcd."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return _make(order, num, den)


def _scale(x: "Cyclo", num: int, den: int) -> "Cyclo":
    """x * num / den for integers num and den > 0."""
    return _normal(x.order, [c * num for c in x.num], x.den * den)


def _product(a: "Cyclo", b: "Cyclo") -> "Cyclo":
    """a * b for operands of one order."""
    if b.is_rational():
        a, b = b, a
    if a.is_rational():
        return _scale(b, a.num[0], a.den)
    phi = len(a.num)
    conv = [0] * (2 * phi - 1)
    bn = b.num
    for i, x in enumerate(a.num):
        if x:
            conv[i:i + phi] = [c + x * y for c, y in zip(conv[i:i + phi], bn)]
    return _normal(a.order, _reduce_poly(conv, order_data(a.order)), a.den * b.den)


def _conjugate_product(y: "Cyclo", a: int, k: int) -> "Cyclo":
    """prod_{e=0}^{k-1} sigma_a^e(y) for k >= 1, by doubling: with
    P(j) that product over e < j, P(2j) = P(j) * sigma_a^j(P(j)) and
    P(j + 1) = y * sigma_a(P(j))."""
    n = y.order
    p, j = y, 1
    for bit in bin(k)[3:]:
        p = _product(p, p._substitute(pow(a, j, n), n))
        j *= 2
        if bit == "1":
            p = _product(y, p._substitute(a, n))
            j += 1
    return p


class Cyclo:
    """Immutable element of Q(zeta_n) in the power basis.

    ``num`` holds phi(n) integer numerators over the common denominator
    ``den``; ``den > 0`` and gcd(den, *num) == 1, so zero has ``den == 1``
    and every value has exactly one representation at its order.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        if isinstance(coeffs, Mapping):
            raise ArithmeticDomainError(
                "coefficients must be a sequence in basis order, not a mapping"
            )
        data = order_data(order)
        num, den = _over_common_denominator(coeffs)
        if len(num) != data.phi:
            raise ArithmeticDomainError(
                f"order {order} needs {data.phi} coefficients, got {len(num)}"
            )
        _set_order(self, order)
        _set_num(self, tuple(num))
        _set_den(self, den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyclo values are immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclo":
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def from_numerators(order: int, num, den: int) -> "Cyclo":
        """The element with power-basis coefficients num[i] / den, from
        phi(order) integer numerators and an integer den > 0."""
        if len(num) != order_data(order).phi or den <= 0:
            raise ArithmeticDomainError("need phi(order) numerators over a positive denominator")
        return _normal(order, num, den)

    @staticmethod
    def zero(order: int = 1) -> "Cyclo":
        return _make(order, (0,) * order_data(order).phi, 1)

    @staticmethod
    def one(order: int = 1) -> "Cyclo":
        c = [0] * order_data(order).phi
        c[0] = 1
        return _make(order, c, 1)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclo":
        """zeta_n^k, built once per n and k mod n and then shared."""
        data = order_data(n)
        k %= n
        z = data.zetas.get(k)
        if z is None:
            z = data.zetas.setdefault(k, _make(n, data.numerators(((k, 1),)), 1))
        return z

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ArithmeticDomainError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def is_algebraic_integer(self) -> bool:
        """True iff the element lies in Z[zeta_n] (the full ring of integers)."""
        return self.den == 1

    def is_p_integral(self, p: int) -> bool:
        """True iff the prime p divides no power-basis denominator."""
        return self.den % p != 0

    def _substitute(self, m: int, n: int) -> "Cyclo":
        """The image under x -> x^m reduced modulo Phi_n: the lift into
        Q(zeta_n) for m = n / order, sigma_m for n = order.  Both keep an
        element integral exactly when it was (Z[zeta_n] meets Q(zeta_order)
        in Z[zeta_order]), so the common denominator is unchanged."""
        data = order_data(n)
        phi = data.phi
        out = [0] * phi
        for i, c in enumerate(self.num):
            if c:
                e = (i * m) % n
                if e < phi:
                    out[e] += c
                else:
                    for j, r in data.power_terms(e):
                        out[j] += c * r
        return _make(n, out, self.den)

    def lift(self, n: int) -> "Cyclo":
        """Embed into Q(zeta_n); requires order | n."""
        if n == self.order:
            return self
        if n % self.order != 0:
            raise ArithmeticDomainError(f"cannot lift order {self.order} into {n}")
        return self._substitute(n // self.order, n)

    def _common(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        if self.order == other.order:
            return self, other
        n = lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        if a.den == b.den:
            return _normal(a.order, [x + y for x, y in zip(a.num, b.num)], a.den)
        g = gcd(a.den, b.den)
        sa, sb = b.den // g, a.den // g
        return _normal(a.order, [x * sa + y * sb for x, y in zip(a.num, b.num)],
                       a.den * sa)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _scale(self, other.numerator, other.denominator)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _product(*self._common(other))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise DivisionByZero("inverse of zero cyclotomic number")
        if self.is_rational():
            return Cyclo.rational(1 / self.to_fraction()).lift(self.order)
        # x^-1 = (product of the other conjugates of x) / N(x), the product
        # taken one step of the unit tower at a time: with y_0 = x and
        # Q_i = prod_{e=1}^{m_i-1} sigma_{a_i}^e(y_{i-1}), y_i = y_{i-1} Q_i
        # is the product of sigma(x) over <a_1, ..., a_i>, so y_r = N(x)
        # and x * Q_1 ... Q_r = N(x)
        n = self.order
        y, others = self, None
        for a, m in unit_tower(n):
            q = _conjugate_product(y, a, m - 1)._substitute(a, n)
            others = q if others is None else _product(others, q)
            y = _product(y, q)
        inv_norm = 1 / y.to_fraction()
        return _scale(others, inv_norm.numerator, inv_norm.denominator)

    def galois(self, k: int) -> "Cyclo":
        """Apply zeta_n -> zeta_n^k; requires gcd(k, n) = 1."""
        n = self.order
        k %= n
        if gcd(k, n) != 1:
            raise ArithmeticDomainError(f"galois index {k} not coprime to {n}")
        return self._substitute(k, n)

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # the normalised trace Tr(x) / phi(n) does not change under lifting,
        # so equal values hash alike at any orders, and for a rational x it
        # is x itself, so x hashes like the Fraction it equals
        data = order_data(self.order)
        trace = sum(map(mul, data.traces, self.num))
        return hash(Fraction(trace, self.den * data.phi))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.is_rational():
            return f"Cyclo({self.to_fraction()})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z{self.order}^{i}" if i else f"{c}")
        return "Cyclo(" + " + ".join(terms) + ")"

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        den = self.den
        return {
            "order": self.order,
            "coeffs": {str(i): rational_str(a, den) for i, a in enumerate(self.num) if a},
        }

    @staticmethod
    def from_json(obj: dict) -> "Cyclo":
        n = obj["order"]
        phi = order_data(n).phi
        coeffs = [0] * phi
        seen = set()
        for key, val in obj["coeffs"].items():
            if not DECIMAL_INDEX.fullmatch(key):
                raise ArithmeticDomainError(f"coefficient index {key!r} is not a decimal index")
            i = int(key)
            if not 0 <= i < phi:
                raise ArithmeticDomainError(f"coefficient index {i} out of range")
            if i in seen:
                raise ArithmeticDomainError(f"coefficient index {i} given twice")
            seen.add(i)
            coeffs[i] = fraction_from_str(val)
        return Cyclo(n, coeffs)


# the slot setters bypass the immutability guard in Cyclo.__setattr__
_set_order = Cyclo.order.__set__
_set_num = Cyclo.num.__set__
_set_den = Cyclo.den.__set__


def _coerce(value):
    if isinstance(value, Cyclo):
        return value
    if isinstance(value, (int, Fraction)):
        return _make(1, (value.numerator,), value.denominator)
    return NotImplemented


# -- Rational serialization ("+-num/den", den omitted when 1) -----------

# [0-9] and not \d, which also matches non-ASCII digits that int() reads
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
#: A power-basis or theta-source index key: ASCII digits only
DECIMAL_INDEX = re.compile(r"[0-9]+")


def rational_str(num: int, den: int) -> str:
    """num / den in lowest terms, for integers num and den > 0."""
    q = gcd(num, den)
    return str(num // q) if q == den else f"{num // q}/{den // q}"


def fraction_from_str(s: str) -> Fraction:
    """Parse "num" or "num/den" in ASCII digits with an optional sign on
    num; anything else (spaces, underscores, other digits) is a ValueError."""
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ValueError(f"{s!r} is not a rational of the form num or num/den")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    if int(den) == 0:
        raise ArithmeticDomainError(f"denominator must be positive in {s!r}")
    return Fraction(int(num), int(den))
