"""Characters of finite groups.

Linear characters are found by chain extension over the abelianization;
general irreducibles come with monomial certificates: a pair (U, psi) of a
subgroup and a linear character inducing the irreducible.  An abelian
group's table is its linear characters, each certified by (G, psi) and
checked to be a homomorphism, with no induction.  Every linear character
of a table, abelian or not, is kept as integers: an order n and, per
class, the power k of its value zeta_n^k; its ``Cyclo`` values are made
only when read.  The table takes its sort keys, value ids and value
numerators for such a character from those integers.  The values of the
other irreducibles live in Q(zeta_E), E the group exponent, stored
exactly.  A table finds Galois conjugates from the group's class power
maps, sigma_k(chi)(g) = chi(g^k), as GAP's character table library does,
and looks characters up by integer keys of their values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .cyclotomic import (Cyclo, order_data, root_of_unity_sum, unit_generators,
                         unit_residues)
from .errors import (ArithmeticDomainError, GroupError, InternalCheckError,
                     NotMonomialError)
from .groups import FiniteGroup, memo


def chain_extension(elements, mul) -> tuple[int, list[dict]]:
    """All homomorphisms of a finite abelian group into (1/n)Z/Z, n the
    group order, which every element order divides: ``(n, chars)`` with
    each character a dict from element to the integer k in [0, n) of its
    value zeta_n^k, sorted by their values along ``elements``.
    ``elements`` lists the group with the identity first and ``mul``
    multiplies two of them; each homomorphism is extended from the
    trivial subgroup one cyclic step at a time."""
    n = len(elements)
    one = elements[0]
    covered = {one}
    chars: list[dict] = [{one: 0}]
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
            base = chi[power]  # chi(g^m), must equal m * t mod n
            for i in range(m):
                t = (base + i * n) // m
                new = dict(chi)
                shift = 0
                gk = one
                for _ in range(m - 1):
                    gk = mul(gk, g)
                    shift += t
                    for h, v in chi.items():
                        new[mul(h, gk)] = (v + shift) % n
                extended.append(new)
        chars = extended
        covered = set(chars[0])
    chars.sort(key=lambda c: tuple(c[g] for g in elements))
    return n, chars


def linear_character_powers(group: FiniteGroup, u_elems=None) -> tuple[int, list[list[int]]]:
    """Linear characters of a subgroup U of ``group``, all of it by
    default: ``(n, rows)`` with psi(y) = zeta_n^k for k = row[j] and y the
    j-th element of sorted U, n the order of U's abelianization.  They
    come from chain extension over sorted U on the group's own table when
    U is abelian, and otherwise over the cosets of U' in U, each named by
    its smallest element, and are inflated back to U."""
    if u_elems is None:
        u, abelian = list(range(group.order)), group.is_abelian()
    else:
        u = sorted(set(u_elems))
        abelian = group.is_abelian_subset(u)
    if abelian:
        n, chars = chain_extension(u, group.mul)
        return n, [[c[y] for y in u] for c in chars]
    rows, derived = group.table, group.commutator_subgroup(u)
    coset: dict[int, int] = {}  # element of U -> smallest element of its coset
    for y in u:
        if y not in coset:
            for z in derived:
                coset[rows[y][z]] = y
    reps = sorted(set(coset.values()))
    n, chars = chain_extension(reps, lambda x, y: coset[rows[x][y]])
    return n, [[c[coset[y]] for y in u] for c in chars]


class Character:
    """Class function with exact cyclotomic values, one per conjugacy class,
    all stored at one ``order``.

    A linear character built by ``Character.linear`` keeps ``powers``:
    its value at each class is zeta_order^k for k the class's power, and
    ``values`` is made from them on first read.  Any other character has
    its values from the start, and ``powers`` None."""

    powers = None

    def __init__(self, group: FiniteGroup, values):
        self.group = group
        self.classes = group.conjugacy_classes()
        if len(values) != len(self.classes):
            raise GroupError("one value per conjugacy class expected")
        self.exponent = group.exponent()
        self.order = lcm(self.exponent, *(v.order for v in values))
        self.values = tuple(v.lift(self.order) for v in values)
        deg = self.values[0]
        if not deg.is_rational() or deg.to_fraction().denominator != 1 or deg.to_fraction() <= 0:
            raise GroupError("character degree must be a positive integer")
        self.degree = int(deg.to_fraction())

    @staticmethod
    def linear(group: FiniteGroup, order: int, powers) -> "Character":
        """The class function zeta_order^k, k = powers[c] at the c-th class,
        for ``order`` a multiple of the group exponent."""
        chi = object.__new__(Character)
        chi.group = group
        chi.classes = group.conjugacy_classes()
        chi.exponent = group.exponent()
        chi.order = order
        chi.powers = tuple(k % order for k in powers)
        if len(chi.powers) != len(chi.classes):
            raise GroupError("one value per conjugacy class expected")
        if order % chi.exponent or chi.powers[0]:
            raise GroupError("a linear character is 1 at the identity, "
                             "at an order that the exponent divides")
        chi.degree = 1
        return chi

    @cached_property
    def values(self) -> tuple[Cyclo, ...]:
        return tuple(Cyclo.zeta(self.order, k) for k in self.powers)

    def __eq__(self, other):
        return isinstance(other, Character) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"Character(deg={self.degree}, values={list(self.values)!r})"


def _check_multiplicative(group, u_elems, order, powers):
    # psi(a) psi(b) = psi(ab): the powers add up modulo the order
    for a in u_elems:
        pa, row = powers[a], group.table[a]
        for b in u_elems:
            if (pa + powers[b] - powers[row[b]]) % order:
                raise GroupError("psi is not multiplicative on the subgroup")


class MonomialCertificate:
    """Witness that an irreducible is induced from a linear character psi
    of a subgroup U: psi(y) = zeta_N^k for each ``(y, k)`` in ``powers``,
    with 0 <= k < N and N (``order``) the order of psi."""

    def __init__(self, u_elems: tuple[int, ...], order: int, powers: dict[int, int]):
        q = gcd(order, *powers.values())
        self.u_elems = tuple(u_elems)
        self.order = order // q
        self.powers = {y: k // q for y, k in powers.items()}

    def __repr__(self):
        return f"MonomialCertificate(U={self.u_elems})"


class CharacterTable:
    """Irreducible characters in a deterministic order, with certificates.

    Each distinct value gets a small id through its canonical key
    ``(order, num, den)`` at the common order of the table's values, and a
    character is looked up by the tuple of its value ids.  A linear
    character's keys, like its sort key and value numerators, come from
    its powers, with no ``Cyclo`` value made.  The Galois
    action comes from the group's class power maps: sigma_k(chi)(g) =
    chi(g^k), a permutation of chi's values.  The trivial character sorts
    first, which is checked once here.
    """

    def __init__(self, group: FiniteGroup, chars, certificates):
        self.group = group
        dense: dict[int, list] = {}  # order n -> numerators of zeta_n^k, 0 <= k < n

        def roots(n):
            if n not in dense:
                dense[n] = [Cyclo.zeta(n, k).num for k in range(n)]
            return dense[n]
        keys = [_char_sort_key(chi, roots) for chi in chars]
        order = sorted(range(len(chars)), key=keys.__getitem__)
        if not chars or keys[order[0]][0]:  # the first key's "not trivial"
            raise GroupError("no trivial character found")
        self.chars = [chars[i] for i in order]
        self.certificates = [certificates[i] for i in order]
        self.exponent = group.exponent()
        # common order of all character values; value key -> value id; per
        # character the ids of its values, class by class
        n = self.value_order = lcm(*(c.order for c in self.chars))
        self._value_ids: dict[tuple, int] = {}
        self._rows = []
        for c in self.chars:
            if c.powers is None:
                keys = self._value_keys(c.values)
            else:
                num, step = roots(n), n // c.order
                keys = ((n, num[k * step], 1) for k in c.powers)
            self._rows.append(tuple(self._value_ids.setdefault(key, len(self._value_ids))
                                    for key in keys))
        self._index = {row: i for i, row in enumerate(self._rows)}
        self._memo = {}

    def _value_keys(self, values):
        """Canonical ``(order, num, den)`` keys at ``value_order``, for
        values whose orders divide it."""
        n = self.value_order
        return ((n, w.num, w.den) for w in (v.lift(n) for v in values))

    def __len__(self):
        return len(self.chars)

    def __iter__(self):
        return iter(self.chars)

    def __getitem__(self, i):
        return self.chars[i]

    def index_of_values(self, values) -> int:
        """The character with these values, each stored at an order that
        divides ``value_order``, looked up by their keys."""
        i = self._index.get(tuple(map(self._value_ids.get, self._value_keys(values))))
        if i is None:
            raise GroupError("values do not match any irreducible")
        return i

    def contragredient_index(self, i: int) -> int:
        # chi(g^-1) is the complex conjugate of chi(g), i.e. sigma_-1(chi)
        return self.galois_index(i, -1)

    def galois_index(self, i: int, k: int) -> int:
        def build():
            if gcd(k, self.exponent) != 1:
                raise ArithmeticDomainError(
                    f"galois index {k} not coprime to the exponent {self.exponent}")
            row = self._rows[i]
            j = self._index.get(tuple(map(row.__getitem__, self.group.power_map(k))))
            if j is None:
                raise GroupError("values do not match any irreducible")
            return j
        # character values lie in Q(zeta_E), where sigma_k depends on k mod E
        return memo(self, ("galois_index", i, k % self.exponent), build)

    def galois_orbits(self) -> list[tuple[int, ...]]:
        """The Galois orbits on the characters, each sorted, in order of
        their smallest member."""
        def build():
            exp = self.exponent
            units = [k for k in range(1, exp + 1) if gcd(k, exp) == 1]
            seen, orbits = set(), []
            for i in range(len(self.chars)):
                if i not in seen:
                    orbit = tuple(sorted({self.galois_index(i, k) for k in units}))
                    seen.update(orbit)
                    orbits.append(orbit)
            return orbits
        return list(memo(self, "galois_orbits", build))

    def value_numerators(self, n: int | None = None) -> list[list[tuple]]:
        """Per character, per class: the nonzero ``(index, numerator)``
        pairs of the value lifted to Q(zeta_n), for n a multiple of
        ``value_order``, or at the character's own ``order`` for n None.
        Character values are algebraic integers, so the power-basis
        denominator is 1."""
        def build():
            # every character at the common order (any abelian table):
            # the rows at value_order, which the round trip also reads
            if n is None and all(chi.order == self.value_order for chi in self.chars):
                return self.value_numerators(self.value_order)
            rows = []
            for chi in self.chars:
                m = chi.order if n is None else n
                if chi.powers is not None:
                    # zeta_N^k is zeta_m^j, j = k m / N: one basis vector
                    # below phi(m), a reduced power from there on
                    data, step = order_data(m), m // chi.order
                    rows.append([((j, 1),) if j < data.phi else data.power_terms(j)
                                 for j in (k * step for k in chi.powers)])
                    continue
                row = []
                for v in chi.values:
                    w = v.lift(m)
                    if w.den != 1:
                        raise InternalCheckError("character value is not an algebraic integer")
                    row.append(tuple((j, a) for j, a in enumerate(w.num) if a))
                rows.append(row)
            return rows
        return memo(self, ("value_numerators", n), build)

    def galois_transversal(self, modulus: int) -> list[tuple]:
        """Per Galois orbit, ``(r, stabiliser, members)`` for the action of
        (Z/modulus)^x, modulus a multiple of the exponent: r is the
        orbit's first member, ``stabiliser`` generates the units k with
        sigma_k(r) = r, and ``members`` pairs every other member i with
        one unit k such that sigma_k(r) = i.  The members are reached
        from r along ``unit_generators(modulus)``; each step s from i that
        reaches an already reached j gives the Schreier generator
        k_i s / k_j of the stabiliser, and those are thinned to the ones
        that the earlier ones do not generate.  Kept on the table per
        modulus."""
        def build():
            gens = unit_generators(modulus)
            out = []
            for orbit in self.galois_orbits():
                r = orbit[0]
                reach, schreier = {r: 1}, set()
                queue = [r]
                for i in queue:
                    for s in gens:
                        j, k = self.galois_index(i, s), reach[i] * s % modulus
                        if j not in reach:
                            reach[j] = k
                            queue.append(j)
                        else:
                            schreier.add(k * pow(reach[j], -1, modulus) % modulus)
                if len(reach) != len(orbit):
                    raise InternalCheckError("Galois orbit not reached by the unit generators")
                stabiliser, span = [], {1}
                for g in sorted(schreier):
                    if g in span:
                        continue
                    stabiliser.append(g)
                    # <span, g> is the union of the cosets span * g^e
                    grown, power = set(span), g
                    while power not in span:
                        grown.update(h * power % modulus for h in span)
                        power = power * g % modulus
                    span = grown
                out.append((r, tuple(stabiliser),
                            tuple((i, reach[i]) for i in orbit if i != r)))
            return out
        return memo(self, ("galois_transversal", modulus), build)

    def check_galois(self, comps, context: str, fills=None):
        """Self-check that per-character components are Galois-equivariant:
        sigma_k of the component at chi is the component at sigma_k(chi),
        for every unit k modulo L = lcm(exponent, component orders).

        It runs once per Galois orbit, on ``galois_transversal(L)``: each
        stabiliser generator must fix the component x_r at the orbit's
        first member r, and each other member i must hold sigma_k(x_r) for
        its one k with sigma_k(r) = i.  That is the same check.  An
        equivariant tuple passes it.  Conversely, the units fixing x_r form
        a group, so all of Stab(r) fixes it; for any unit k and member i,
        with j = sigma_k(i), the unit k_j^(-1) k k_i lies in Stab(r), so
        sigma_k(x_i) = sigma_k sigma_(k_i)(x_r) = sigma_(k_j)(x_r) = x_j.

        ``fills`` is the table's ``galois_fills`` map for components built
        by ``CentralElement.from_orbits``, which leave each filled j ->
        (r, k) as None: the component there is sigma_k(x_r) by
        construction, which the stabiliser check makes the one
        equivariant value, so it is skipped."""
        fills = fills or {}
        modulus = lcm(self.exponent, *(c.order for c in comps if c is not None))
        for r, stabiliser, members in self.galois_transversal(modulus):
            x = comps[r]
            pairs = [(r, k) for k in stabiliser] + [m for m in members if m[0] not in fills]
            for i, k in pairs:
                if x.galois(k) != comps[i]:
                    raise InternalCheckError(
                        f"{context}: components not Galois-equivariant "
                        f"at character {i}, sigma_{k}"
                    )

    def trivial_index(self) -> int:
        # the constructor checks that the trivial character sorts first
        return 0

    def galois_fills(self) -> dict[int, tuple[int, int]]:
        """j -> (r, k) for each character j whose certificate is the
        sigma_k image of the certificate at r, the first member of j's
        Galois orbit: the same subgroup and order, powers k * p mod N.
        k runs over the units modulo M = lcm(exponent, certificate
        orders).  In each orbit of three or more, r and its image under
        the first generator of (Z/M)^x that moves it are never filled, so
        a self-check over a filled element compares two components
        computed independently.  Built once per table; callers do not
        change it.

        For a rational central element built from the certificates (a
        theta, a local product, a reduced norm), sigma_k of the component
        at r is then the very value, at the very order, that computing
        the component at j would give.  ``CentralElement.from_orbits``
        stores None at j and makes that image only when every component
        is read, and ``check_galois`` skips j."""
        def build():
            certs = self.certificates
            modulus = lcm(self.exponent, *(c.order for c in certs))
            fills = {}
            for orbit in self.galois_orbits():
                if len(orbit) < 3:  # nothing beyond r and its partner
                    continue
                r = orbit[0]
                partner = next(j for j in (self.galois_index(r, g)
                                           for g in unit_generators(modulus)) if j != r)
                cert = certs[r]
                for k in unit_residues(modulus):
                    j = self.galois_index(r, k)
                    if j in (r, partner) or j in fills:
                        continue
                    image = certs[j]
                    if image.u_elems == cert.u_elems and image.order == cert.order and \
                            image.powers == {y: k * p % cert.order
                                             for y, p in cert.powers.items()}:
                        fills[j] = (r, k)
            return fills
        return memo(self, "galois_fills", build)


def _char_sort_key(chi: Character, roots):
    """(not trivial, degree, each value's (order, num, den)), a linear
    character's from its powers with ``roots(n)`` the numerators of the
    n-th roots of unity.  Character values are algebraic integers, so den
    is 1 and the numerators order as the coefficients do."""
    if chi.powers is not None:
        num = roots(chi.order)
        return (any(chi.powers), 1, tuple((chi.order, num[k], 1) for k in chi.powers))
    one = Cyclo.one()
    trivial = all(v == one for v in chi.values)
    return (not trivial, chi.degree,
            tuple((v.order, v.num, v.den) for v in chi.values))


def _abelian_table(group: FiniteGroup) -> CharacterTable:
    """Table of an abelian group straight from its linear characters, each
    certified by (G, psi) and kept as its powers of zeta_E, E the
    exponent.  Certificate: |G| distinct characters, each trivial at the
    identity and multiplicative on ``group.generators()``, which makes
    each a homomorphism and the list all of Irr(G)."""
    n, exp = group.order, group.exponent()
    elems = tuple(range(n))
    # per generator s, the column h -> hs of the table
    columns = [(s, [row[s] for row in group.table]) for s in group.generators()]
    order, rows = linear_character_powers(group)
    chars, certs = [], []
    for a in rows:
        if a[0] or any((ah + a[s] - a[hs]) % order
                       for s, column in columns for ah, hs in zip(a, column)):
            raise InternalCheckError("abelian table: a linear character is not multiplicative")
        # each element is its own class; a homomorphism into (1/order)Z/Z
        # takes values of order dividing the exponent, so a[g] * exp is a
        # multiple of order
        chars.append(Character.linear(group, exp, [k * exp // order for k in a]))
        certs.append(MonomialCertificate(elems, order, dict(zip(elems, a))))
    table = CharacterTable(group, chars, certs)
    if len(chars) != n or len(table._index) != n:
        raise InternalCheckError(
            f"abelian table: {len(table._index)} distinct of {len(chars)} "
            f"linear characters for a group of order {n}")
    return table


def irreducibles_monomial(group: FiniteGroup) -> CharacterTable:
    """All irreducible characters with monomial certificates.

    An abelian group takes its table straight from its linear characters.
    Otherwise this enumerates subgroups largest first, inducing their
    linear characters, and raises NotMonomialError if the sum of squared
    degrees never reaches |G|.
    """
    if group.is_abelian():
        return _abelian_table(group)
    return _induced_table(group)


def _induced_table(group: FiniteGroup) -> CharacterTable:
    """Induce the linear characters of every subgroup U, largest first,
    each in chain-extension order, keeping each induced character that is
    irreducible and new.  Ind psi at the class of g is (|C_G(g)| / |U|)
    times the sum of psi over the class members in U, kept as integer
    weights w_k on the powers of zeta_n, n = lcm(exponent, order of psi);
    it is irreducible exactly when <chi, chi> = 1, which in traces over Q
    is sum_cls |cls| sum_{k,l} w_k w_l Tr(zeta_n^(k-l)) = |G| |U|^2 phi(n).
    At U = G every psi is irreducible as it stands, and is kept as its
    powers of zeta_n, the order its values would have."""
    found: list[Character] = []
    certs: list[MonomialCertificate] = []
    seen = set()
    total = 0
    size, exp, ids = group.order, group.exponent(), group.class_index()
    classes = group.conjugacy_classes()
    for u in group.all_subgroups():
        if not group.is_subgroup(u):
            raise GroupError("induction requires a subgroup")
        inside = [[] for _ in classes]  # per class, its members in U
        for y in u:
            inside[ids[y]].append(y)
        order, rows = linear_character_powers(group, u)
        n = lcm(exp, order)
        step, data = n // order, order_data(n)
        for row in rows:
            powers = dict(zip(u, row))
            _check_multiplicative(group, u, order, powers)
            if len(u) == size:
                # U = G: psi is its own induction, a linear character, kept
                # as its powers of zeta_n
                chi = Character.linear(group, n, [powers[c[0]] * step for c in classes])
            else:
                weights, norm = [], 0
                for cls, members in zip(classes, inside):
                    w = [0] * n
                    for y in members:
                        w[powers[y] * step] += size // len(cls)
                    terms = [(k, c) for k, c in enumerate(w) if c]
                    norm += len(cls) * sum(a * c * data.traces[(k - l) % n]
                                           for k, a in terms for l, c in terms)
                    weights.append(w)
                if norm != size * len(u) ** 2 * data.phi:
                    continue
                chi = Character(group, [root_of_unity_sum(n, w) * Fraction(1, len(u))
                                        for w in weights])
                if chi.values in seen:
                    continue
                seen.add(chi.values)
            found.append(chi)
            certs.append(MonomialCertificate(u, order, powers))
            total += chi.degree ** 2
            if total == size:
                return CharacterTable(group, found, certs)
    raise NotMonomialError(
        f"only {total} of {group.order} in the degree-square count; "
        "group admits non-monomial irreducibles"
    )
