"""Characters of finite groups.

Linear characters are found by chain extension over the abelianization;
general irreducibles come with monomial certificates: a pair (U, psi) of a
subgroup and a linear character inducing the irreducible.  Values live in
Q(zeta_E) with E the group exponent, stored exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import Cyclo, root_of_unity_sum
from .errors import GroupError, InternalCheckError, NotMonomialError
from .groups import FiniteGroup


def chain_extension(elements, mul) -> list[dict]:
    """All homomorphisms of a finite abelian group into Q/Z, each a dict
    from element to exponent in [0, 1), sorted by their values along
    ``elements``.  ``elements`` lists the group with the identity first and
    ``mul`` multiplies two of them; each homomorphism is extended from the
    trivial subgroup one cyclic step at a time."""
    one = elements[0]
    covered = {one}
    chars: list[dict] = [{one: Fraction(0)}]
    for g in elements[1:]:
        if g in covered:
            continue
        # minimal m with g^m inside the current domain
        m, power = 1, g
        while power not in covered:
            power = mul(power, g)
            m += 1
        extended = []
        for chi in chars:
            base = chi[power]  # chi(g^m), must equal m * t mod 1
            for i in range(m):
                t = (base + i) / m
                new = dict(chi)
                shift = Fraction(0)
                gk = one
                for _ in range(m - 1):
                    gk = mul(gk, g)
                    shift += t
                    for h, v in chi.items():
                        new[mul(h, gk)] = (v + shift) % 1
                extended.append(new)
        chars = extended
        covered = set(chars[0])
    chars.sort(key=lambda c: tuple(c[g] for g in elements))
    return chars


def _abelian_linear_exponents(group: FiniteGroup) -> list[list[Fraction]]:
    """All homomorphisms of an abelian group into Q/Z, as exponent vectors."""
    if not group.is_abelian():
        raise GroupError("chain extension requires an abelian group")
    elements = list(range(group.order))
    return [[c[g] for g in elements] for c in chain_extension(elements, group.mul)]


def linear_characters(group: FiniteGroup) -> list[list[Fraction]]:
    """Linear characters of any finite group (inflated from the abelianization),
    each as a list of Fraction exponents mod 1 indexed by group element."""
    comm = group.commutator_subgroup()
    if len(comm) == 1:
        return _abelian_linear_exponents(group)
    quot, proj = group.quotient(comm)
    lifted = []
    for exps in _abelian_linear_exponents(quot):
        lifted.append([exps[proj[g]] for g in range(group.order)])
    return lifted


class Character:
    """Class function with exact cyclotomic values, one per conjugacy class."""

    def __init__(self, group: FiniteGroup, values):
        self.group = group
        self.classes = group.conjugacy_classes()
        if len(values) != len(self.classes):
            raise GroupError("one value per conjugacy class expected")
        self.exponent = group.exponent()
        self.values = tuple(self._lift_all(values))
        deg = self.values[0]
        if not deg.is_rational() or deg.to_fraction().denominator != 1 or deg.to_fraction() <= 0:
            raise GroupError("character degree must be a positive integer")
        self.degree = int(deg.to_fraction())

    def _lift_all(self, values):
        target = lcm(self.exponent, *(v.order for v in values))
        return [v.lift(target) for v in values]

    @staticmethod
    def from_linear(group: FiniteGroup, exps: list[Fraction]) -> "Character":
        class_ids = group.class_index()
        classes = group.conjugacy_classes()
        vals = [None] * len(classes)
        for g, e in enumerate(exps):
            c = class_ids[g]
            if vals[c] is None:
                vals[c] = Cyclo.from_root_of_unity(e)
        return Character(group, vals)

    def value_at(self, g: int) -> Cyclo:
        return self.values[self.group.class_index()[g]]

    def inner(self, other: "Character") -> Fraction:
        if other.group is not self.group and other.group.order != self.group.order:
            raise GroupError("characters live on different groups")
        total = Cyclo.zero()
        for cls, v, w in zip(self.classes, self.values, other.values):
            total = total + v * w.conjugate() * Fraction(len(cls))
        total = total * Fraction(1, self.group.order)
        return total.to_fraction()

    def contragredient_values(self) -> tuple[Cyclo, ...]:
        """Values of the contragredient: class of g carries the value at g^(-1)."""
        ids = self.group.class_index()
        out = []
        for cls in self.classes:
            out.append(self.values[ids[self.group.inverse(cls[0])]])
        return tuple(out)

    def galois_values(self, k: int) -> tuple[Cyclo, ...]:
        return tuple(v.galois(k) for v in self.values)

    def __eq__(self, other):
        return isinstance(other, Character) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __add__(self, other):
        return Character(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __repr__(self):
        return f"Character(deg={self.degree}, values={list(self.values)!r})"


def _check_multiplicative(group, u_elems, exps):
    # psi(a) + psi(b) - psi(ab) must be an integer; over the common
    # denominator D of the exponents that is a numerator divisible by D
    den = lcm(*(e.denominator for e in exps.values()))
    num = {a: e.numerator * (den // e.denominator) for a, e in exps.items()}
    for a in u_elems:
        na = num[a]
        for b in u_elems:
            if (na + num[b] - num[group.mul(a, b)]) % den:
                raise GroupError("psi is not multiplicative on the subgroup")


def induce_from_linear(group: FiniteGroup, u_elems, exps: dict[int, Fraction]) -> Character:
    """Induce a linear character of a subgroup to the whole group
    (average of psi over conjugators landing in the subgroup)."""
    u = sorted(set(u_elems))
    if not group.is_subgroup(u):
        raise GroupError("induction requires a subgroup")
    if set(exps) != set(u):
        raise GroupError("psi must be defined exactly on the subgroup")
    _check_multiplicative(group, u, exps)
    order = lcm(group.exponent(), *(e.denominator for e in exps.values()))
    u_set = set(u)
    vals = []
    for cls in group.conjugacy_classes():
        g = cls[0]
        weights = [0] * order
        for x in range(group.order):
            y = group.mul(group.mul(group.inverse(x), g), x)
            if y in u_set:
                e = exps[y]
                weights[(e.numerator * (order // e.denominator)) % order] += 1
        vals.append(root_of_unity_sum(order, weights) * Fraction(1, len(u)))
    return Character(group, vals)


class MonomialCertificate:
    """Witness that an irreducible is induced from a linear character."""

    def __init__(self, u_elems: tuple[int, ...], exps: dict[int, Fraction]):
        self.u_elems = tuple(u_elems)
        self.exps = dict(exps)

    def __repr__(self):
        return f"MonomialCertificate(U={self.u_elems})"


class CharacterTable:
    """Irreducible characters in a deterministic order, with certificates."""

    def __init__(self, group: FiniteGroup, chars, certificates):
        self.group = group
        order = sorted(range(len(chars)), key=lambda i: _char_sort_key(chars[i]))
        self.chars = [chars[i] for i in order]
        self.certificates = [certificates[i] for i in order]
        self.exponent = group.exponent()
        self._index = {c.values: i for i, c in enumerate(self.chars)}
        # memoised Galois permutation: (i, k mod exponent) -> j
        self._galois: dict[tuple[int, int], int] = {}
        # chi index -> matrices of its monomial representation, filled by
        # rednorm.monomial_representation
        self._rep_cache: dict[int, list] = {}

    def __len__(self):
        return len(self.chars)

    def __iter__(self):
        return iter(self.chars)

    def __getitem__(self, i):
        return self.chars[i]

    def index_of_values(self, values) -> int:
        try:
            return self._index[tuple(values)]
        except KeyError:
            raise GroupError("values do not match any irreducible") from None

    def contragredient_index(self, i: int) -> int:
        # chi(g^-1) is the complex conjugate of chi(g), i.e. sigma_-1(chi)
        return self.galois_index(i, -1)

    def galois_index(self, i: int, k: int) -> int:
        # character values lie in Q(zeta_E), where sigma_k depends on k mod E
        key = (i, k % self.exponent)
        j = self._galois.get(key)
        if j is None:
            j = self.index_of_values(self.chars[i].galois_values(k))
            self._galois[key] = j
        return j

    def check_galois(self, comps, context: str):
        """Self-check that per-character components are Galois-equivariant:
        sigma_k of the component at chi is the component at sigma_k(chi)."""
        exp = self.exponent
        for k in range(2, exp):
            if gcd(k, exp) != 1:
                continue
            for i in range(len(self.chars)):
                if comps[self.galois_index(i, k)] != comps[i].galois(k):
                    raise InternalCheckError(
                        f"{context}: components not Galois-equivariant "
                        f"at character {i}, sigma_{k}"
                    )

    def trivial_index(self) -> int:
        one = Cyclo.one()
        for i, c in enumerate(self.chars):
            if all(v == one for v in c.values):
                return i
        raise GroupError("no trivial character found")  # pragma: no cover


def _char_sort_key(chi: Character):
    one = Cyclo.one()
    trivial = all(v == one for v in chi.values)
    return (not trivial, chi.degree, tuple((v.order, v.coeffs) for v in chi.values))


def irreducibles_monomial(group: FiniteGroup) -> CharacterTable:
    """All irreducible characters via monomial certificates.

    Enumerates subgroups largest first, inducing their linear characters;
    raises NotMonomialError if the sum of squared degrees never reaches |G|.
    """
    found: list[Character] = []
    certs: list[MonomialCertificate] = []
    seen = set()
    total = 0
    for u in group.all_subgroups():
        sub, back = group.subgroup_as_group(u)
        for sub_exps in linear_characters(sub):
            exps = {back[i]: sub_exps[i] for i in range(sub.order)}
            chi = induce_from_linear(group, u, exps)
            if chi.inner(chi) != 1 or chi.values in seen:
                continue
            seen.add(chi.values)
            found.append(chi)
            certs.append(MonomialCertificate(u, exps))
            total += chi.degree ** 2
            if total == group.order:
                return CharacterTable(group, found, certs)
    raise NotMonomialError(
        f"only {total} of {group.order} in the degree-square count; "
        "group admits non-monomial irreducibles"
    )
