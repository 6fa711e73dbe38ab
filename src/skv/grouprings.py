"""Group rings over Q and their centres, with exact cyclotomic components.

Every group-ring element lives in Q[G]: ``GroupRingElement`` stores
integer numerators over one denominator, in lowest terms, and its
constructor rejects any coefficient that is not rational.  A central
element is stored through its character components: the value of each
irreducible character (normalized by degree) on the element.  This is the form in
which integrality in a maximal order is checked, and it makes
multiplication componentwise.

A rational central element is fixed by one component per Galois orbit of
characters, since the centre of Q[G] is the sum of the fields Q(chi) over
Irr(G)/Gal (Curtis-Reiner, Methods of Representation Theory I, section 7).
``CentralElement.from_orbits`` builds such an element from the characters
that the table's ``galois_fills`` does not fill and runs the Galois
self-check, once per orbit, on them.  The element keeps these computed
components and the fill map; every other component is the sigma_k image
of its orbit's first member, made only when a caller reads every
component (a report).  Products of two such elements multiply only the
computed components.

``CentralElement.to_group_ring`` turns components back into group-ring
coefficients.  It sums one trace per Galois orbit of characters, as
integer dot products with the cached traces of roots of unity, and then
checks the rational result by the forward transform, which must give back
every computed component; the filled ones then follow by Galois
equivariance.  A tuple that is not Galois-equivariant is no element of
the centre of Q[G], and fails that check with ``InternalCheckError``.

The forward transform ``_forward`` is the one routine that takes a class
function to its character components, x_chi = chi(1)^(-1) sum_C s_C
chi(C) / d, for the sums s_C / d of its coefficients over each class C,
with integers s_C and one denominator d: it sums integer numerators
against the values of chi at chi's own order and reduces once.  The
round trip of ``to_group_ring``, ``CentralElement.from_group_ring`` (and
with it the idempotents ``idempotent_eps`` and ``minus_idempotent``) and,
on the table of H, ``product_coefficients`` all go through it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .characters import CharacterTable, irreducibles_monomial
from .cyclotomic import Cyclo, order_data
from .errors import CentralityError, GroupError, InternalCheckError
from .groups import FiniteGroup, memo


class GroupRingElement:
    """Element of Q[G] in lowest terms: the coefficient at g is
    nums[g] / den, with one integer per group element in ``nums``, den > 0
    and gcd(den, *nums) == 1.  Equality, hashing and integrality (den == 1)
    read the pair directly.  Elements are not changed after construction."""

    __slots__ = ("group", "nums", "den")

    def __init__(self, group: FiniteGroup, coeffs=None):
        fracs = {}
        for g, c in (coeffs or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise GroupError(f"group-ring coefficient {c!r} is not rational: "
                                 "elements live over QG")
            if not 0 <= int(g) < group.order:
                raise GroupError(f"{g!r} is no element index of a group of order {group.order}")
            fracs[int(g)] = Fraction(c)
        # over the lcm of the reduced denominators the pair is in lowest terms
        self.group, self.den = group, lcm(*(c.denominator for c in fracs.values()))
        nums = [0] * group.order
        for g, c in fracs.items():
            nums[g] = c.numerator * (self.den // c.denominator)
        self.nums = tuple(nums)

    @staticmethod
    def _make(group: FiniteGroup, nums, den: int) -> "GroupRingElement":
        """The element sum_g nums[g] g / den, for den > 0, in lowest terms."""
        k = gcd(den, *nums)
        elem = object.__new__(GroupRingElement)
        elem.group, elem.nums, elem.den = group, tuple(a // k for a in nums), den // k
        return elem

    @staticmethod
    def basis(group: FiniteGroup, g: int) -> "GroupRingElement":
        return GroupRingElement(group, {g: 1})

    @staticmethod
    def scalar(group: FiniteGroup, c) -> "GroupRingElement":
        return GroupRingElement(group, {0: c})

    @staticmethod
    def norm_element(group: FiniteGroup, elems) -> "GroupRingElement":
        """Sum of the listed group elements (N_H for a subgroup H)."""
        return GroupRingElement(group, {g: 1 for g in elems})

    def items(self) -> list:
        """(g, coefficient) for each nonzero coefficient, in element order."""
        return [(g, Fraction(a, self.den)) for g, a in enumerate(self.nums) if a]

    def __add__(self, other):
        self._compat(other)
        nums = [a * other.den + b * self.den for a, b in zip(self.nums, other.nums)]
        return GroupRingElement._make(self.group, nums, self.den * other.den)

    def __neg__(self):
        return GroupRingElement._make(self.group, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GroupRingElement):
            other = GroupRingElement.scalar(self.group, other)
        self._compat(other)
        # an integer convolution over the nonzero entries of both factors
        table = self.group.table
        right = [(b, y) for b, y in enumerate(other.nums) if y]
        out = [0] * self.group.order
        for a, x in enumerate(self.nums):
            if x:
                row = table[a]
                for b, y in right:
                    out[row[b]] += x * y
        return GroupRingElement._make(self.group, out, self.den * other.den)

    __rmul__ = __mul__

    def _compat(self, other):
        if other.group.table != self.group.table:
            raise GroupError("elements live over different groups")

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_integral(self) -> bool:
        return self.den == 1

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums \
            and self.group.table == other.group.table

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        parts = [f"({c})*{self.group.labels[g]}" for g, c in self.items()]
        return " + ".join(parts) if parts else "0"


class CentralElement:
    """Element of the center of Q(zeta)[G], stored by character components.

    components[i] = chi_i(x) / chi_i(1) for the i-th irreducible of the
    table; multiplication is componentwise in this coordinate system.
    ``to_group_ring`` needs an element of the centre of Q[G].
    ``fills`` is the table's ``galois_fills`` map for an element built by
    ``from_orbits`` (or a product or rational multiple of such elements),
    and the empty map for an element given every component.  ``computed``
    holds the components, with None at each filled character; the
    ``components`` are made on first read, each filled j -> (r, k) taking
    sigma_k of the component at r.
    """

    def __init__(self, table: CharacterTable, components):
        self.table = table
        self.group = table.group
        comps = [c if isinstance(c, Cyclo) else Cyclo.rational(c) for c in components]
        if len(comps) != len(table):
            raise GroupError("one component per irreducible expected")
        self.computed = tuple(comps)
        self.fills = {}

    @cached_property
    def components(self) -> tuple:
        comps = list(self.computed)
        for j, (r, k) in self.fills.items():
            comps[j] = comps[r].galois(k)
        return tuple(comps)

    def component(self, i: int) -> Cyclo:
        """``components[i]``, read from ``computed`` where it is there, so
        that an element built per orbit makes no sigma_k image for it."""
        comp = self.computed[i]
        return self.components[i] if comp is None else comp

    @staticmethod
    def from_orbits(table: CharacterTable, compute, context: str) -> "CentralElement":
        """The rational central element with component ``compute(i)`` at
        each character i that ``table.galois_fills()`` does not fill, and
        sigma_k of the component at r at each filled j -> (r, k), made
        only when ``components`` is read.  The Galois self-check runs over
        the computed components, once per orbit, so the two members
        computed in each orbit of three or more are compared."""
        fills = table.galois_fills()
        elem = CentralElement._filled(
            table, [None if i in fills else compute(i) for i in range(len(table))], fills)
        table.check_galois(elem.computed, context, fills)
        return elem

    @staticmethod
    def _filled(table: CharacterTable, computed, fills) -> "CentralElement":
        """The element with these components at the characters that
        ``fills`` leaves out, None at the others, keeping ``fills``."""
        elem = object.__new__(CentralElement)
        elem.table = table
        elem.group = table.group
        elem.computed = tuple(computed)
        elem.fills = fills
        return elem

    @staticmethod
    def from_group_ring(table: CharacterTable, x: GroupRingElement) -> "CentralElement":
        """The components of a central x = sum_g a_g g, by the forward
        transform ``_forward`` of its class sums, built by ``from_orbits``
        with its Galois self-check."""
        sums = []
        for cls in table.group.conjugacy_classes():
            for g in cls[1:]:
                if x.nums[g] != x.nums[cls[0]]:
                    raise CentralityError(
                        f"coefficients at conjugate elements {cls[0]} and {g} differ"
                    )
            sums.append(len(cls) * x.nums[cls[0]])
        return CentralElement.from_orbits(
            table, lambda i: _forward(table, sums, x.den, i), "from_group_ring")

    def to_group_ring(self) -> GroupRingElement:
        """The element as sum_g a_g g, where
        a_g = |G|^(-1) sum_chi chi(1) x_chi chi(g^(-1)).

        An element of Q[G] has Galois-equivariant components, so each
        Galois orbit of characters contributes the trace
        chi(1) (m / phi(N)) Tr(x_chi chi(g^(-1))) of its representative chi,
        with m the orbit size and N the common order (see
        ``_orbit_traces``).  That result is checked by the forward
        transform, which must give back every component exactly; Q[G] maps
        onto exactly the equivariant tuples, so the check fails precisely
        for a tuple that is no element of the centre of Q[G], and raises
        ``InternalCheckError``.  An element that keeps the fill map
        compares its computed components only: the forward transform of a
        rational class function is Galois-equivariant, so once it gives
        back the component at r it gives back sigma_k of it at each filled
        j, which is the component there (see ``_gives_back``).

        The element, which is immutable, is kept on the table per
        ``_key()``, each computed component's exact ``(order, num, den)``,
        so each distinct input runs the transform and its check once.  The
        repeats come from ``check all``, whose suites transform
        the same thetas and sku elements again: in the theta report, the
        integrality checks, the annihilation check and the product
        coefficients.
        """
        def build():
            nums, den = self._orbit_traces()
            if not self._gives_back(nums, den):
                raise InternalCheckError(
                    "group-ring coefficients do not give back the components: "
                    "the element is not in the centre of QG")
            return GroupRingElement._make(
                self.group, [nums[c] for c in self.group.class_index()], den)
        return memo(self.table, ("to_group_ring", self._key()), build)

    def _key(self) -> tuple:
        """Each computed component's exact ``(order, num, den)``, and None
        at each filled character: the table has one fill map, so this
        tells apart every element that keeps it from every other."""
        return tuple(None if c is None else (c.order, c.num, c.den) for c in self.computed)

    def _orbit_traces(self) -> tuple[list[int], int]:
        """Numerators per class over one denominator of the trace-form
        coefficients.  Traces are integer dot products: with
        x = sum_a x_a zeta^a / d at order N and t_k = Tr(zeta_N^k),
        Tr(x zeta^b) = sum_a x_a t_(a+b) / d, so one vector
        w_b = sum_a x_a t_(a+b) per orbit serves every class."""
        table, group = self.table, self.group
        comps = self.computed
        n = lcm(table.value_order, *(c.order for c in comps if c is not None))
        data = order_data(n)
        traces, phi = data.traces, data.phi
        classes = group.conjugacy_classes()
        ids = group.class_index()
        inverse_class = [ids[group.inverse(c[0])] for c in classes]
        values = table.value_numerators(n)
        terms = []
        for orbit in table.galois_orbits():
            i = orbit[0]
            x = comps[i].lift(n)
            if x.is_zero():
                continue
            nonzero = [(a, xa) for a, xa in enumerate(x.num) if xa]
            w = [sum(xa * traces[(a + b) % n] for a, xa in nonzero) for b in range(phi)]
            terms.append((table[i].degree * len(orbit), x.den, w, values[i]))
        common = lcm(*(d for _, d, _, _ in terms))
        nums = [0] * len(classes)
        for scale, d, w, row in terms:
            scale *= common // d
            for c in range(len(classes)):
                nums[c] += scale * sum(w[b] * v for b, v in row[inverse_class[c]])
        return nums, group.order * phi * common

    def _gives_back(self, nums: list[int], den: int) -> bool:
        """Round trip: does the class function a_C = nums[C] / den have
        exactly these components, by ``_forward``?  The filled characters
        of an element that keeps the fill map (None in ``computed``) are
        skipped: a_C is rational, so x_j = sigma_k(x_r) for j -> (r, k),
        and the component at j is sigma_k of the one at r; this accepts
        exactly what the comparison at every character accepts."""
        sums = [len(cls) * a for cls, a in zip(self.group.conjugacy_classes(), nums)]
        return all(want is None or _forward(self.table, sums, den, i) == want
                   for i, want in enumerate(self.computed))

    def __mul__(self, other):
        if isinstance(other, CentralElement):
            self._compat(other)
            # a product of elements with one fill map keeps it
            keep = other.fills is self.fills
            factors = other.computed if keep else other.components
        else:
            # sigma_k fixes a rational factor, not an irrational one
            keep = not isinstance(other, Cyclo)
            factors = [other] * len(self.computed)
        own, fills = (self.computed, self.fills) if keep else (self.components, {})
        return CentralElement._filled(
            self.table, [None if a is None else a * b for a, b in zip(own, factors)], fills)

    __rmul__ = __mul__

    def _compat(self, other):
        if other.table is not self.table and (other.group.table != self.group.table
                                              or other.table.chars != self.table.chars):
            raise GroupError("central elements use different character tables")

    def __eq__(self, other):
        if not isinstance(other, CentralElement):
            return NotImplemented
        self._compat(other)
        # one fill map: the filled components are images of equal ones
        if other.fills is self.fills:
            return self.computed == other.computed
        return self.components == other.components

    def __repr__(self):
        return f"CentralElement({list(self.components)!r})"


def _forward(table: CharacterTable, class_sums, den: int, i: int) -> Cyclo:
    """The forward transform: the component chi_i(1)^(-1) sum_C s_C
    chi_i(C) / den at the i-th character of ``table`` of the class function
    whose coefficients over each class C add up to s_C / den, for integers
    ``class_sums`` s_C.  It sums integer numerators against the values of
    chi_i at its own order (``table.value_numerators()``), where the
    component lies, and reduces once."""
    chi = table[i]
    acc = [0] * order_data(chi.order).phi
    for s, terms in zip(class_sums, table.value_numerators()[i]):
        if s:
            for b, v in terms:
                acc[b] += s * v
    return Cyclo.from_numerators(chi.order, acc, den * chi.degree)


def central_unit(table: CharacterTable) -> CentralElement:
    """The unit of the centre, built per Galois orbit with the table's
    fill map, so that its products keep the map.  Kept on the table;
    callers do not change it."""
    def build():
        one = Cyclo.one()
        return CentralElement.from_orbits(table, lambda i: one, "unit")
    return memo(table, "central_unit", build)


def idempotent_eps(table: CharacterTable, h_elems) -> CentralElement:
    """Central idempotent |H|^(-1) N_H for a normal subgroup H: component 1
    exactly at characters trivial on H.  Kept on the table per H."""
    h = tuple(sorted(set(h_elems)))

    def build():
        group = table.group
        if not group.is_subgroup(h) or not group.is_normal(h):
            raise GroupError("epsilon idempotent needs a normal subgroup")
        return CentralElement.from_group_ring(
            table, GroupRingElement(group, {g: Fraction(1, len(h)) for g in h}))
    return memo(table, ("idempotent_eps", h), build)


def minus_idempotent(table: CharacterTable, j: int) -> CentralElement:
    """(1 - j)/2 for a central involution j; component 1 at odd characters.
    Kept on the table per j."""
    def build():
        group = table.group
        if j == 0 or group.mul(j, j) != 0 or j not in group.center():
            raise GroupError("minus projection needs a central involution")
        elem = CentralElement.from_group_ring(
            table, GroupRingElement(group, {0: Fraction(1, 2), j: Fraction(-1, 2)}))
        # the component (1 - chi(j)/chi(1))/2 is 0 or 1 exactly when chi(j) = +-chi(1)
        if any(c is not None and c not in (0, 1) for c in elem.computed):
            raise GroupError("character value at a central involution must be +-1")
        return elem
    return memo(table, ("minus_idempotent", j), build)


class MembershipVerdict:
    """Result of a maximal-order membership test, with a failure witness."""

    def __init__(self, ok: bool, mode: str, witness=None):
        self.ok = ok
        self.mode = mode
        self.witness = witness

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, "mode": self.mode, "witness": self.witness}

    def __repr__(self):
        return f"MembershipVerdict(ok={self.ok}, mode={self.mode!r}, witness={self.witness!r})"


def _product_pairing(table: CharacterTable, h_elems, c_elems):
    """Match Irr(G) with Irr(H) x Irr(C) for an internal direct product.
    Each product character chi * lambda is looked up by the integer key of
    its values; the result is kept on the table per (sorted H, sorted C).
    The trivial split G = {1} x G pairs the table with itself, (0, j) -> j,
    with no second table of G."""
    h = tuple(sorted(set(h_elems)))
    c = tuple(sorted(set(c_elems)))
    def build():
        group = table.group
        if h == (0,) and c == tuple(range(group.order)):
            return (irreducibles_monomial(FiniteGroup([[0]])), table,
                    {(0, j): j for j in range(len(table))}, {0: 0}, dict(enumerate(c)))
        sub_h, back_h = group.subgroup_as_group(h)
        sub_c, back_c = group.subgroup_as_group(c)
        pos_h = {v: k for k, v in back_h.items()}
        pos_c = {v: k for k, v in back_c.items()}
        # unique factorization g = h*c
        factor = {}
        for hh in h:
            for cc in c:
                g = group.mul(hh, cc)
                if g in factor:
                    raise GroupError("not a direct product: non-unique factorization")
                factor[g] = (hh, cc)
        if len(factor) != group.order:
            raise GroupError("not a direct product: factorization does not cover the group")
        tab_h = irreducibles_monomial(sub_h)
        tab_c = irreducibles_monomial(sub_c)
        ids_h = sub_h.class_index()
        ids_c = sub_c.class_index()
        # per class of G: the classes of its H and C factors
        split = [(ids_h[pos_h[hh]], ids_c[pos_c[cc]])
                 for hh, cc in (factor[cls[0]] for cls in group.conjugacy_classes())]
        pairing = {}
        for i, chi in enumerate(tab_h):
            for j, lam in enumerate(tab_c):
                vals = [chi.values[a] * lam.values[b] for a, b in split]
                try:
                    pairing[(i, j)] = table.index_of_values(vals)
                except GroupError:
                    raise GroupError("product character not found in the table") from None
        return tab_h, tab_c, pairing, back_h, back_c
    return memo(table, ("_product_pairing", h, c), build)


def product_coefficients(x: CentralElement, h_elems, c_elems):
    """Coefficients over the abelian factor: for each chi in Irr(H) and c in
    C, alpha_chi(c) = chi(1)^(-1) sum_(h in H) a_(hc) chi(h), where
    x = sum_g a_g g in Q[G].  By orthogonality over C this is the row
    formula |C|^(-1) sum_lambda x_(chi lambda) lambda(c)^(-1), the
    coefficient at c of the element of Q(chi)[C] with components
    x_(chi lambda).  It is ``_forward`` on the table of H, with the sums
    of the a_(hc) over each class of H.  A rational alpha is stored at
    order 1."""
    tab_h, _, _, back_h, back_c = _product_pairing(x.table, h_elems, c_elems)
    a = x.to_group_ring()
    group = x.group
    sub_classes = [[back_h[h] for h in cls] for cls in tab_h.group.conjugacy_classes()]
    out = {}
    for c in back_c.values():
        # per class of H: the sum of the coefficients at h * c over its h
        sums = [sum(a.nums[group.mul(h, c)] for h in cls) for cls in sub_classes]
        for i in range(len(tab_h)):
            alpha = _forward(tab_h, sums, a.den, i)
            out[(i, c)] = Cyclo.rational(alpha.to_fraction()) if alpha.is_rational() else alpha
    return out


def max_order_membership(x: CentralElement, product=None,
                         p: int | None = None) -> MembershipVerdict:
    """Integrality of a central element in the maximal order.

    Without ``product`` (mode "full"): every character component must be
    an algebraic integer.  With ``product = (H, C)`` for a direct product
    G = H x C (mode "product"): the coefficients over C, per irreducible
    of H, must be algebraic integers, or p-integral when p is given.
    """
    if product is None:
        # a filled component sigma_k(x_r) keeps the power-basis denominator
        # of x_r, and r comes first in its orbit, so it is tested there
        for i, comp in enumerate(x.computed):
            if comp is not None and not comp.is_algebraic_integer():
                return MembershipVerdict(False, "full", {"chiIndex": i, "value": comp.to_json()})
        return MembershipVerdict(True, "full")
    coeffs = product_coefficients(x, product[0], product[1])
    for (i, c), val in sorted(coeffs.items()):
        ok = val.is_p_integral(p) if p is not None else val.is_algebraic_integer()
        if not ok:
            return MembershipVerdict(
                False, "product", {"chiIndex": i, "cElement": c, "value": val.to_json()}
            )
    return MembershipVerdict(True, "product")
