"""Characters of finite groups.

Every abelian group's characters come from integer coordinates: a basis
G = Z/d_1 x ... x Z/d_k (``groups.abelian_coordinates``, on a bare
multiplication table) gives each element its coordinate vector x, and
``check_coordinates`` certifies that x is an isomorphism.  Each dual
vector a then gives the character chi_a(g) =
zeta_E^(sum_i a_i x_i(g) E / d_i), E the exponent (``dual_rows``).  An
abelian group's table is these characters, certified by (G, chi_a), and
sigma_k(chi_a) = chi_(k a) is its whole Galois action; the certificate
keeps the dual vector a, and makes its dict of powers only when read.

A non-abelian group's linear characters, and those of each subgroup U
it induces from, are the characters of U/U' found the same way
(``linear_character_powers``), and its other irreducibles come with
monomial certificates: a pair (U, psi) of a subgroup and a linear character
inducing the irreducible.  Every linear character of a table, abelian or
not, is kept as integers: an order n and, per class, the power k of its
value zeta_n^k; its ``Cyclo`` values are made only when read.  The table
takes its sort keys, value ids and value numerators for such a character
from those integers.  The values of the other irreducibles are induced
in integers: per class, weights on the powers of zeta_n, reduced modulo
Phi_n and divided exactly by |U|, give the power-basis numerators of the
value, stored exactly at order n; a candidate is compared with the
characters found so far by its numerators at order |G|.  A non-abelian
table finds Galois conjugates from the group's class power maps,
sigma_k(chi)(g) = chi(g^k), as GAP's character table library does.
Every table looks characters up by integer keys of their values.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm, prod
from operator import add, mod

from .cyclotomic import Cyclo, order_data, unit_generators, unit_residues
from .errors import (ArithmeticDomainError, GroupError, InternalCheckError,
                     NotMonomialError)
from .groups import FiniteGroup, abelian_coordinates, memo


def linear_character_powers(group: FiniteGroup, u_elems) -> tuple[int, list[list[int]]]:
    """Linear characters of a subgroup U of ``group``: ``(n, rows)`` with
    psi(y) = zeta_n^k for k = row[j] and y the j-th element of sorted U, n
    the order of U's abelianization, sorted by their rows.  They are the
    characters of U/U' (``abelian_characters``) on a bare table of the
    cosets, each named by its smallest element, inflated back to U; no
    group is built.  Sorted along the cosets' smallest elements, they are
    sorted along U, as each other element repeats the value of a coset
    already passed."""
    u = sorted(set(u_elems))
    rows = group.table
    derived = (0,) if group.is_abelian_subset(u) else group.commutator_subgroup(u)
    coset: dict[int, int] = {}  # element of U -> position of its coset
    reps = []
    for y in u:
        if y not in coset:
            for z in derived:
                coset[rows[y][z]] = len(reps)
            reps.append(y)
    n, chars = abelian_characters([[coset[rows[x][y]] for y in reps] for x in reps])
    return n, [[c[coset[y]] for y in u] for c in chars]


def abelian_characters(table) -> tuple[int, list[tuple[int, ...]]]:
    """Every character of the abelian group with this multiplication
    table, element 0 the identity: ``(n, rows)``, n the order and each row
    the powers of zeta_n at the elements, sorted.  They are the rows of
    ``dual_rows`` on the coordinates of ``groups.abelian_coordinates``,
    which ``check_coordinates`` certifies."""
    orders, coords = abelian_coordinates(table)
    check_coordinates(table, orders, coords)
    n = len(table)
    return n, sorted(dual_rows(orders, coords, n)[1])


def dual_rows(orders, coords, exp: int) -> tuple[list[tuple], list[tuple]]:
    """``(duals, rows)``: the dual vectors a of Z/d_1 x ... x Z/d_k
    (d_i = orders[i]) in lexicographic order, and per a the powers
    sum_i a_i x_i(g) exp / d_i mod exp of zeta_exp at each element g, x =
    coords, for exp a multiple of every d_i.  Each row is that of its
    predecessor plus that of a unit vector."""
    duals, rows = [()], [(0,) * len(coords)]
    for i, d in enumerate(orders):
        step = exp // d
        unit = [x[i] * step for x in coords]
        grown_duals, grown_rows = [], []
        for a, row in zip(duals, rows):
            for t in range(d):
                if t:
                    row = tuple(map(exp.__rmod__, map(add, row, unit)))
                grown_duals.append(a + (t,))
                grown_rows.append(row)
        duals, rows = grown_duals, grown_rows
    return duals, rows


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
        chi.powers = tuple(map(order.__rmod__, powers))
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
        self.powers = dict(zip(powers, map(q.__rfloordiv__, powers.values())))

    def __repr__(self):
        return f"MonomialCertificate(U={self.u_elems})"


class DualCertificate(MonomialCertificate):
    """The certificate (G, chi_a) of an abelian table's character chi_a,
    kept as its dual vector a (``dual``) and the row of its powers of
    zeta_E on G, E the exponent.  Its order is that of a in
    Z/d_1 x ... x Z/d_k, the lcm of the d_i / gcd(a_i, d_i), and the dict
    of its |G| powers at that order is made on first read."""

    def __init__(self, u_elems: tuple[int, ...], orders, dual, exponent: int, row):
        self.u_elems = u_elems
        self.dual = dual
        self.order = lcm(*(d // gcd(a, d) for a, d in zip(dual, orders)))
        self._step, self._row = exponent // self.order, row

    @cached_property
    def powers(self) -> dict[int, int]:
        return dict(zip(self.u_elems, map(self._step.__rfloordiv__, self._row)))


class CharacterTable:
    """Irreducible characters in a deterministic order, with certificates.

    Each distinct value gets a small id through its canonical key
    ``(order, num, den)`` at the common order of the table's values, and a
    character is looked up by the tuple of its value ids.  A linear
    character's keys, like its sort key and value numerators, come from
    its powers, with no ``Cyclo`` value made.  The Galois action comes
    from the group's class power maps: sigma_k(chi)(g) = chi(g^k), a
    permutation of chi's values.  The trivial character sorts first,
    which is checked once here.  An abelian group's table is an
    ``AbelianTable``.
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
                for k in unit_residues(modulus):
                    j = self.galois_index(r, k)
                    if j not in (r, partner) and j not in fills and \
                            self._certificate_is_image(certs[r], certs[j], k):
                        fills[j] = (r, k)
            return fills
        return memo(self, "galois_fills", build)

    @staticmethod
    def _certificate_is_image(cert, image, k) -> bool:
        # the same subgroup and order, powers k * p mod N
        return image.u_elems == cert.u_elems and image.order == cert.order and \
            image.powers == {y: k * p % cert.order for y, p in cert.powers.items()}


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


def check_coordinates(table, orders, coords):
    """Certificate of ``groups.abelian_coordinates`` on the table of a
    group G: raise InternalCheckError unless x: g -> coords[g] is a
    bijection of G onto Z/d_1 x ... x Z/d_k (d_i = orders[i]) with
    x(g b_i) = x(g) + e_i for every element g and every i, b_i the element
    with x(b_i) = e_i.  Then x(1) = 0, since the z with x(z) = 0 has
    x(z b_i) = x(b_i), so z = 1; and x is an isomorphism: the h with
    x(gh) = x(g) + x(h) for every g contain 1 and are closed under right
    multiplication by each b_i, so they contain every word in the b_i,
    and those words have every coordinate vector, hence make up G.  So E, the exponent, is
    lcm(d_i), every dual vector a gives a homomorphism chi_a(g) =
    zeta_E^(sum_i a_i x_i(g) E / d_i), and the |G| of them are distinct,
    so they are Irr(G)."""
    n, k = len(table), len(orders)
    # mixed-radix position of each vector, the last coordinate fastest
    weights = [1] * k
    for i in range(k - 2, -1, -1):
        weights[i] = weights[i + 1] * orders[i + 1]
    if prod(orders) != n or len(coords) != n or any(len(x) != k for x in coords):
        raise InternalCheckError(f"abelian table: coordinates do not fit a group of order {n}")
    pos = [sum(c % d * w for c, d, w in zip(x, orders, weights)) for x in coords]
    at = {p: g for g, p in enumerate(pos)}
    if len(at) != n:
        raise InternalCheckError("abelian table: two elements share a coordinate vector")
    for d, w in zip(orders, weights):
        b, wrap = at[w], (d - 1) * w
        if [pos[row[b]] for row in table] != \
                [p - wrap if p // w % d == d - 1 else p + w for p in pos]:
            raise InternalCheckError(
                f"abelian table: multiplying by the basis element {b} does not "
                "add its unit vector")


class AbelianTable(CharacterTable):
    """Table of an abelian group G = Z/d_1 x ... x Z/d_k from the integer
    coordinates of ``FiniteGroup.abelian_coordinates``, whose certificate
    is ``check_coordinates``.  The character chi_a of a dual vector a has
    the power sum_i a_i x_i(g) E / d_i of zeta_E at g, E the exponent
    (``dual_rows``), and is certified by (G, chi_a).  A character's row of
    value ids is its row of powers, and its sort key ranks the E roots of
    unity once.  Galois conjugation is sigma_k(chi_a) = chi_(k a), so
    ``galois_index``, the orbits and the fills need no power map, and
    ``value_numerators`` reads one table of the E powers."""

    def __init__(self, group: FiniteGroup):
        orders, coords = group.abelian_coordinates()
        check_coordinates(group.table, orders, coords)
        n, exp = group.order, group.exponent()
        self.group, self.exponent, self.value_order = group, exp, exp
        self._orders = orders
        duals, rows = dual_rows(orders, coords, exp)
        # zeta_E^k ranked by its numerators: a linear character's sort key
        # (see ``_char_sort_key``) orders as its row of ranks
        nums = [Cyclo.zeta(exp, k).num for k in range(exp)]
        rank = [0] * exp
        for r, k in enumerate(sorted(range(exp), key=nums.__getitem__)):
            rank[k] = r
        keys = [tuple(map(rank.__getitem__, row)) for row in rows]
        order = [0] + sorted(range(1, n), key=keys.__getitem__)  # the trivial chi_0 first
        elems = tuple(range(n))
        self._rows = [rows[i] for i in order]
        self._duals = [duals[i] for i in order]
        self.chars = [Character.linear(group, exp, row) for row in self._rows]
        self.certificates = [DualCertificate(elems, orders, a, exp, row)
                             for a, row in zip(self._duals, self._rows)]
        self._value_ids = {(exp, num, 1): k for k, num in enumerate(nums)}
        self._index = {row: i for i, row in enumerate(self._rows)}
        self._position = {a: i for i, a in enumerate(self._duals)}
        self._memo = {}

    def galois_index(self, i: int, k: int) -> int:
        if gcd(k, self.exponent) != 1:
            raise ArithmeticDomainError(
                f"galois index {k} not coprime to the exponent {self.exponent}")
        return self._position[tuple(map(mod, map(k.__mul__, self._duals[i]), self._orders))]

    def value_numerators(self, n: int | None = None) -> list[list[tuple]]:
        n = self.value_order if n is None else n

        def build():
            # zeta_E^k is zeta_n^j, j = k n / E: one basis vector below
            # phi(n), a reduced power from there on
            data = order_data(n)
            terms = [((j, 1),) if j < data.phi else data.power_terms(j)
                     for j in range(0, n, n // self.value_order)]
            return [list(map(terms.__getitem__, row)) for row in self._rows]
        return memo(self, ("value_numerators", n), build)

    @staticmethod
    def _certificate_is_image(cert, image, k) -> bool:
        # chi_(k a) is certified by (G, chi_(k a)), whose powers are k times
        # those of chi_a at the same order
        return True


def irreducibles_monomial(group: FiniteGroup) -> CharacterTable:
    """All irreducible characters with monomial certificates.

    An abelian group takes its table from its coordinates
    (``AbelianTable``).  Otherwise this enumerates subgroups largest
    first, inducing their linear characters, and raises NotMonomialError
    if the sum of squared degrees never reaches |G|.
    """
    if group.is_abelian():
        return AbelianTable(group)
    return _induced_table(group)


def _induced_table(group: FiniteGroup) -> CharacterTable:
    """Induce the linear characters of every subgroup U, largest first,
    each in the order of ``linear_character_powers``, keeping each induced
    character that is irreducible and new.  Ind psi at the class of g is
    (|C_G(g)| / |U|) times the sum of psi over the class members in U,
    kept as sparse integer weights w_k on the powers of zeta_n,
    n = lcm(exponent, order of psi); it is irreducible exactly when <chi, chi> = 1, which in
    traces over Q is sum_cls |cls| sum_{k,l} w_k w_l Tr(zeta_n^(k-l)) =
    |G| |U|^2 phi(n).  Its values are then algebraic integers, so each
    class's weights, reduced modulo Phi_n in integers, divide exactly by
    |U| (``_induced_numerators``), and the value is stored at order n.  It
    is new unless an earlier one has the same numerators at order |G|,
    which every such n divides.  At U = G every psi is irreducible as it
    stands, and is kept as its powers of zeta_n, the order its values
    would have."""
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
                    w: dict[int, int] = {}
                    for y in members:
                        k = powers[y] * step
                        w[k] = w.get(k, 0) + size // len(cls)
                    norm += len(cls) * sum(a * c * data.traces[(k - l) % n]
                                           for k, a in w.items() for l, c in w.items())
                    weights.append(w)
                if norm != size * len(u) ** 2 * data.phi:
                    continue
                key = tuple(_induced_numerators(w, n, size, len(u)) for w in weights)
                if key in seen:
                    continue
                seen.add(key)
                nums = key if n == size else \
                    [_induced_numerators(w, n, n, len(u)) for w in weights]
                chi = Character(group, [Cyclo.from_numerators(n, num, 1) for num in nums])
            found.append(chi)
            certs.append(MonomialCertificate(u, order, powers))
            total += chi.degree ** 2
            if total == size:
                return CharacterTable(group, found, certs)
    raise NotMonomialError(
        f"only {total} of {group.order} in the degree-square count; "
        "group admits non-monomial irreducibles"
    )


def _induced_numerators(weights: dict[int, int], n: int, m: int, u: int) -> tuple[int, ...]:
    """Power-basis numerators, over the denominator 1, of the algebraic
    integer sum_k w_k zeta_n^k / u written in Q(zeta_m), for n | m: the
    weights reduced modulo Phi_m, each divided exactly by u."""
    step = m // n
    num = order_data(m).numerators((k * step, w) for k, w in weights.items())
    if gcd(u, *num) != u:
        raise InternalCheckError("induced character value is not an algebraic integer")
    return tuple(map(u.__rfloordiv__, num))
