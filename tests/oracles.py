"""Reference implementations that only tests call.

Each one is a direct, slower form of something skv computes another way,
or a helper no verdict needs; tests compare against them or exercise them.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from skv.arithdata import (ExtensionFixture, PlaceData, PlaceSets, local_factor,
                           mu_tate_annihilators)
from skv.characters import (Character, CharacterTable, MonomialCertificate,
                            _check_multiplicative, chain_extension, irreducibles_monomial,
                            linear_character_powers)
from skv.cyclotomic import (Cyclo, _product, _scale, order_data, root_of_unity_sum,
                            unit_generators, unit_residues)
from skv.engine import _dirichlet_for_table
from skv.errors import FixtureError, GroupError, InternalCheckError, NotMonomialError
from skv.grouprings import CentralElement, GroupRingElement, _product_pairing
from skv.groups import FiniteGroup
from skv.linalg import char_poly, mat_add, mat_det, mat_identity, mat_mul, mat_scale
from skv.lvalues import (BernoulliData, DirichletCharacter, L_at_nonpositive,
                         bernoulli_polynomial, characters_mod, euler_delta_factor)
from skv.rednorm import (FiniteGModule, MonomialRepresentation, _represented,
                         apply_representation, grm_identity, monomial_representation)
from skv.verify import SUITES, CheckOptions, Verdict


def value_at(chi: Character, g: int) -> Cyclo:
    """chi(g) for a group element g."""
    return chi.values[chi.group.class_index()[g]]


def contragredient_values(chi: Character) -> tuple[Cyclo, ...]:
    """Values of the contragredient: class of g carries the value at g^(-1)."""
    ids = chi.group.class_index()
    return tuple(chi.values[ids[chi.group.inverse(cls[0])]] for cls in chi.classes)


def galois_values(chi: Character, k: int) -> tuple[Cyclo, ...]:
    """sigma_k applied to every value of chi."""
    return tuple(v.galois(k) for v in chi.values)


def from_root_of_unity(exponent: Fraction) -> Cyclo:
    """e^(2*pi*i*exponent) for a rational exponent."""
    e = Fraction(exponent)
    return Cyclo.zeta(e.denominator, e.numerator % e.denominator)


def inverse_by_conjugates(x: Cyclo) -> Cyclo:
    """x^-1 for a non-rational x of order n, as the product of sigma_k(x)
    over every unit k != 1 mod n, divided by the norm N(x)."""
    n = x.order
    others = Cyclo.one(n)
    for k in range(2, n):
        if gcd(k, n) == 1:
            others = _product(others, x._substitute(k, n))
    inv_norm = 1 / _product(others, x).to_fraction()
    return _scale(others, inv_norm.numerator, inv_norm.denominator)


def inner(chi: Character, psi: Character) -> Fraction:
    """<chi, psi> = (1/|G|) sum over classes of |cls| chi(g) conj(psi(g)),
    in Cyclo arithmetic."""
    if psi.group is not chi.group and psi.group.order != chi.group.order:
        raise GroupError("characters live on different groups")
    total = Cyclo.zero()
    for cls, v, w in zip(chi.classes, chi.values, psi.values):
        total = total + v * conjugate(w) * Fraction(len(cls))
    total = total * Fraction(1, chi.group.order)
    return total.to_fraction()


def quotient(group: FiniteGroup, normal_elems) -> tuple[FiniteGroup, list[int]]:
    """Quotient by a normal subgroup; returns (G/N, projection element ->
    coset index)."""
    ns = sorted(set(normal_elems))
    if not group.is_subgroup(ns) or not group.is_normal(ns):
        raise GroupError("quotient requires a normal subgroup")
    coset_of = [-1] * group.order
    reps = []
    for g in range(group.order):
        if coset_of[g] == -1:
            idx = len(reps)
            reps.append(g)
            for h in ns:
                coset_of[group.mul(g, h)] = idx
    tbl = [[coset_of[group.mul(a, b)] for b in reps] for a in reps]
    return FiniteGroup(tbl), coset_of


def linear_character_powers_by_quotient(group: FiniteGroup) -> tuple[int, list[list[int]]]:
    """Linear characters of a finite group as ``(n, rows)``, by chain
    extension on the group itself or on its abelianization, built as a
    quotient group."""
    elements = list(range(group.order))
    if group.is_abelian():
        n, chars = chain_extension(elements, group.mul)
        return n, [[c[g] for g in elements] for c in chars]
    quot, proj = quotient(group, group.commutator_subgroup())
    n, rows = linear_character_powers_by_quotient(quot)
    return n, [[row[proj[g]] for g in elements] for row in rows]


def induce_powers(group: FiniteGroup, u_elems, order: int, powers: dict[int, int]) -> Character:
    """Induce the linear character psi(y) = zeta_order^powers[y] of a
    subgroup to the whole group (average of psi over conjugators landing
    in the subgroup)."""
    u = sorted(set(u_elems))
    if not group.is_subgroup(u):
        raise GroupError("induction requires a subgroup")
    if set(powers) != set(u):
        raise GroupError("psi must be defined exactly on the subgroup")
    _check_multiplicative(group, u, order, powers)
    n = lcm(group.exponent(), order)
    step = n // order
    rows, inv = group.table, group.inv
    vals = []
    for cls in group.conjugacy_classes():
        g = cls[0]
        weights = [0] * n
        for x in range(group.order):
            y = rows[rows[inv[x]][g]][x]
            if y in powers:
                weights[powers[y] * step % n] += 1
        vals.append(root_of_unity_sum(n, weights) * Fraction(1, len(u)))
    return Character(group, vals)


def induced_table_by_groups(group: FiniteGroup) -> CharacterTable:
    """The table of induced characters as built before the integer path:
    each candidate U as its own group, its linear characters through a
    quotient group, each induced in Cyclo values and tested with inner
    products."""
    found, certs, seen, total = [], [], set(), 0
    for u in group.all_subgroups():
        sub, back = group.subgroup_as_group(u)
        order, rows = linear_character_powers_by_quotient(sub)
        for row in rows:
            powers = {back[i]: k for i, k in enumerate(row)}
            chi = induce_powers(group, u, order, powers)
            if inner(chi, chi) != 1 or chi.values in seen:
                continue
            seen.add(chi.values)
            found.append(chi)
            certs.append(MonomialCertificate(u, order, powers))
            total += chi.degree ** 2
            if total == group.order:
                return CharacterTable(group, found, certs)
    raise NotMonomialError(
        f"only {total} of {group.order} in the degree-square count; "
        "group admits non-monomial irreducibles"
    )


def induced_table_by_cyclo_values(group: FiniteGroup) -> CharacterTable:
    """The induced table as built before its values came from integer
    numerators: induce the linear characters of every subgroup U, largest
    first, each in chain-extension order, keeping each induced character
    that is irreducible and new, by its tuple of Cyclo values.  Ind psi at the class of g is (|C_G(g)| / |U|)
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


def cyclo_linear_table(group: FiniteGroup) -> CharacterTable:
    """The table with every linear character built from Cyclo values, as
    before the integer characters: an abelian group's as Cyclo.zeta powers
    of zeta_E, E the exponent, lifted by the Character constructor; a
    non-abelian group's by ``induced_table_by_groups``, which induces the
    characters of U = G in Cyclo sums at lcm(E, order of psi)."""
    if not group.is_abelian():
        return induced_table_by_groups(group)
    exp, elems = group.exponent(), tuple(range(group.order))
    order, rows = linear_character_powers(group, range(group.order))
    step = order // exp
    roots = [Cyclo.zeta(exp, j) for j in range(exp)]
    chars = [Character(group, [roots[a[c[0]] // step] for c in group.conjugacy_classes()])
             for a in rows]
    certs = [MonomialCertificate(elems, order, dict(zip(elems, a))) for a in rows]
    return CharacterTable(group, chars, certs)


def check_abelian_characters(group: FiniteGroup, order: int, rows):
    """The certificate of an abelian table before coordinates: |G|
    distinct characters, each given by its powers of zeta_order at every
    element, trivial at the identity and multiplicative on
    ``group.generators()``, which makes each a homomorphism and the list
    all of Irr(G).  Raises InternalCheckError as that table did."""
    columns = [(s, [row[s] for row in group.table]) for s in group.generators()]
    for a in rows:
        if a[0] or any((ah + a[s] - a[hs]) % order
                       for s, column in columns for ah, hs in zip(a, column)):
            raise InternalCheckError("abelian table: a linear character is not multiplicative")
    distinct = len({tuple(k % order for k in a) for a in rows})
    if len(rows) != group.order or distinct != group.order:
        raise InternalCheckError(
            f"abelian table: {distinct} distinct of {len(rows)} "
            f"linear characters for a group of order {group.order}")


def abelian_table_by_chain_extension(group: FiniteGroup) -> CharacterTable:
    """An abelian group's table as built before coordinates: the linear
    characters by chain extension, ``check_abelian_characters``, and the
    base table, whose Galois action reads the class power maps and whose
    fills compare certificates."""
    exp, elems = group.exponent(), tuple(range(group.order))
    order, rows = linear_character_powers(group, range(group.order))
    check_abelian_characters(group, order, rows)
    chars = [Character.linear(group, exp, [k * exp // order for k in a]) for a in rows]
    certs = [MonomialCertificate(elems, order, dict(zip(elems, a))) for a in rows]
    return CharacterTable(group, chars, certs)


def coordinate_characters(orders, coords) -> tuple[int, list[list[int]]]:
    """``(L, rows)``: per dual vector a of Z/d_1 x ... x Z/d_k (d_i =
    orders[i]), the powers of zeta_L, L = lcm(orders), of the class
    function g -> zeta_L^(sum_i a_i x_i(g) L / d_i) for x = coords, with
    each coordinate read mod d_i."""
    big = lcm(*orders)
    steps = [big // d for d in orders]
    rows = [[sum(a_i * (x_i % d) * s for a_i, x_i, d, s in zip(a, x, orders, steps)) % big
             for x in coords]
            for a in itertools.product(*(range(d) for d in orders))]
    return big, rows


def coset_columns(table: CharacterTable, i: int) -> tuple[int, int, list]:
    """``(degree, order, columns)`` of the i-th monomial representation,
    built on the left cosets of the certificate's U for every degree, as
    before linear characters were read straight from the certificate."""
    group, cert = table.group, table.certificates[i]
    reps = group.coset_reps(cert.u_elems)
    coset = [None] * group.order
    for k, x in enumerate(reps):
        for y in cert.u_elems:
            coset[group.mul(x, y)] = (k, cert.powers[y])
    return len(reps), cert.order, [tuple(coset[group.mul(g, x)] for x in reps)
                                   for g in range(group.order)]


def all_subgroups_by_closures(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup, sorted by decreasing order then lexicographically,
    found by extending each subgroup found by every element outside it."""
    found = {(0,)} | {group.subgroup_closure([g]) for g in range(group.order)}
    frontier = set(found)
    while frontier:
        nxt = set()
        for sub in frontier:
            for g in range(1, group.order):
                if g not in sub:
                    ext = group.subgroup_closure(set(sub) | {g})
                    if ext not in found:
                        found.add(ext)
                        nxt.add(ext)
        frontier = nxt
    return sorted(found, key=lambda s: (-len(s), s))


def monomial_test_groups() -> dict[str, FiniteGroup]:
    """Non-abelian groups to test the induced table on: monomial ones of
    orders 6 to 36, and SL(2,3), which is not monomial."""
    perms = {"S3": [[1, 2, 0], [1, 0, 2]], "D4": [[1, 2, 3, 0], [0, 3, 2, 1]],
             "A4": [[1, 2, 0, 3], [0, 2, 3, 1]], "S4": [[1, 0, 2, 3], [1, 2, 3, 0]],
             "D5": [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]],
             "D6": [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]],
             # x -> x + 1 and x -> 2x on Z/5: the Frobenius group of order 20
             "F20": [[1, 2, 3, 4, 0], [0, 2, 4, 1, 3]],
             "Q8": [[1, 4, 7, 2, 5, 0, 3, 6], [2, 3, 4, 5, 6, 7, 0, 1]]}
    groups = {name: FiniteGroup.from_permutations(p) for name, p in perms.items()}
    product = FiniteGroup.direct_product
    groups["S3xC2"] = product(groups["S3"], FiniteGroup.cyclic(2))
    groups["s3c2"] = ExtensionFixture.load(os.path.join(
        os.path.dirname(__file__), "..", "src", "skv", "fixtures", "s3c2.json")).group
    groups["Q8xC3"] = product(groups["Q8"], FiniteGroup.cyclic(3))
    groups["S3xC6"] = product(groups["S3"], FiniteGroup.cyclic(6))
    groups["D4xC2"] = product(groups["D4"], FiniteGroup.cyclic(2))
    # SL(2,3) on the eight nonzero vectors of F_3^2
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]

    def acting(m):
        return [vecs.index(((m[0][0] * x + m[0][1] * y) % 3,
                            (m[1][0] * x + m[1][1] * y) % 3)) for x, y in vecs]

    groups["SL(2,3)"] = FiniteGroup.from_permutations(
        [acting([[1, 1], [0, 1]]), acting([[1, 0], [1, 1]])])
    return groups


def induce_from_linear(group: FiniteGroup, u_elems, exps: dict[int, Fraction]) -> Character:
    """Induce a linear character of a subgroup, given by its Fraction
    exponents mod 1, to the whole group."""
    return induce_powers(group, u_elems, *powers_over_common_order(exps))


def powers_over_common_order(exps) -> tuple[int, dict]:
    """Fraction exponents mod 1 as ``(N, powers)``: each exponent e as the
    integer e * N mod N, N the common denominator."""
    order = lcm(*(e.denominator for e in exps.values()))
    return order, {a: e.numerator * (order // e.denominator) % order
                   for a, e in exps.items()}


def fraction_exps(chi) -> dict[int, Fraction]:
    """The values of a certificate's psi or of a Dirichlet character as
    Fraction exponents mod 1: k / N for each integer power k of zeta_N."""
    return {a: Fraction(k, chi.order) for a, k in chi.powers.items()}


def fraction_certificate_exps(table: CharacterTable, i: int) -> dict[int, Fraction]:
    """The Fraction exponents of the i-th certificate's psi, found from the
    character: for an abelian group the exponent e in [0, 1) of each value
    chi(g) = zeta^e; otherwise the first linear character of U's own group,
    in chain-extension order, whose induction is chi."""
    group, chi = table.group, table[i]
    u = table.certificates[i].u_elems
    if group.is_abelian():
        exp, ids = group.exponent(), group.class_index()
        powers = {Cyclo.zeta(exp, k).num: k for k in range(exp)}
        return {g: Fraction(powers[chi.values[ids[g]].lift(exp).num], exp)
                for g in range(group.order)}
    sub, back = group.subgroup_as_group(u)
    for exps in linear_characters(sub):
        psi = {back[j]: e for j, e in enumerate(exps)}
        if induce_from_linear(group, u, psi).values == chi.values:
            return psi
    raise GroupError("no linear character of U induces the character")


def product_pairing_scan(table: CharacterTable, h_elems, c_elems) -> dict:
    """Irr(H) x Irr(C) -> Irr(G) for G = H x C, each product character
    matched by a linear scan of exact value comparisons."""
    group = table.group
    h = sorted(set(h_elems))
    c = sorted(set(c_elems))
    sub_h, back_h = group.subgroup_as_group(h)
    sub_c, back_c = group.subgroup_as_group(c)
    pos_h = {v: k for k, v in back_h.items()}
    pos_c = {v: k for k, v in back_c.items()}
    factor = {group.mul(hh, cc): (hh, cc) for hh in h for cc in c}
    ids_h = sub_h.class_index()
    ids_c = sub_c.class_index()
    pairing = {}
    for i, chi in enumerate(irreducibles_monomial(sub_h)):
        for j, lam in enumerate(irreducibles_monomial(sub_c)):
            vals = []
            for cls in group.conjugacy_classes():
                hh, cc = factor[cls[0]]
                vals.append(chi.values[ids_h[pos_h[hh]]] * lam.values[ids_c[pos_c[cc]]])
            idx = None
            for gidx, gchi in enumerate(table):
                if all(gchi.values[t] == vals[t] for t in range(len(vals))):
                    idx = gidx
                    break
            if idx is None:
                raise GroupError("product character not found in the table")
            pairing[(i, j)] = idx
    return pairing


def product_coefficients_by_rows(x: CentralElement, h_elems, c_elems) -> dict:
    """``product_coefficients`` by the row formula: for chi in Irr(H) and
    c in C, alpha_chi(c) = |C|^(-1) sum_lambda x_(chi lambda) lambda(c)^(-1),
    summed over Irr(C) in Q(zeta); a rational alpha is stored at order 1."""
    tab_h, tab_c, pairing, _, back_c = _product_pairing(x.table, h_elems, c_elems)
    sub = tab_c.group
    ids = sub.class_index()
    out = {}
    for i in range(len(tab_h)):
        for ci, c in back_c.items():
            acc = Cyclo.zero()
            for j, lam in enumerate(tab_c):
                acc = acc + x.components[pairing[(i, j)]] * lam.values[ids[sub.inverse(ci)]]
            acc = acc * Fraction(1, len(tab_c))
            out[(i, c)] = Cyclo.rational(acc.to_fraction()) if acc.is_rational() else acc
    return out


def from_group_ring_by_values(table: CharacterTable, x: GroupRingElement) -> list[Cyclo]:
    """The components x_chi = chi(1)^(-1) sum_g a_g chi(g) of a central x,
    summed in ``Cyclo`` values over the group elements, character by
    character, where ``CentralElement.from_group_ring`` sums integer
    numerators per class."""
    ids = table.group.class_index()
    comps = []
    for chi in table:
        acc = Cyclo.zero()
        for g, c in x.items():
            acc = acc + chi.values[ids[g]] * c
        comps.append(acc * Fraction(1, chi.degree))
    return comps


def idempotent_eps_by_values(table: CharacterTable, h_elems) -> list[Cyclo]:
    """The components of |H|^(-1) N_H for a normal subgroup H: 1 at each
    character whose values on H all equal its degree, 0 elsewhere."""
    ids = table.group.class_index()
    comps = []
    for chi in table:
        deg = Cyclo.rational(chi.degree)
        trivial_on_h = all(chi.values[ids[g]] == deg for g in h_elems)
        comps.append(Cyclo.one() if trivial_on_h else Cyclo.zero())
    return comps


def minus_idempotent_by_values(table: CharacterTable, j: int) -> list[Cyclo]:
    """The components of (1 - j)/2 for a central involution j: 1 at each
    character with chi(j) = -chi(1), 0 where chi(j) = chi(1)."""
    ids = table.group.class_index()
    comps = []
    for chi in table:
        q = (chi.values[ids[j]] * Fraction(1, chi.degree)).to_fraction()
        if q not in (1, -1):
            raise GroupError("character value at a central involution must be +-1")
        comps.append(Cyclo.one() if q == -1 else Cyclo.zero())
    return comps


def product_coefficients_by_values(x: CentralElement, h_elems, c_elems) -> dict:
    """``product_coefficients`` as sums of ``Cyclo`` values over H: for chi
    in Irr(H) and c in C, alpha_chi(c) = chi(1)^(-1) sum_(h in H) a_(hc)
    chi(h), with a_g the coefficients of ``x.to_group_ring()``; a
    non-rational alpha lies at the order of chi, a rational one at 1."""
    tab_h, _, _, back_h, back_c = _product_pairing(x.table, h_elems, c_elems)
    a = dict(x.to_group_ring().items())
    ids = tab_h.group.class_index()
    out = {}
    for c in back_c.values():
        for i, chi in enumerate(tab_h):
            alpha = Cyclo.zero()
            for k, h in back_h.items():
                coeff = a.get(x.group.mul(h, c))
                if coeff:
                    alpha = alpha + chi.values[ids[k]] * coeff
            alpha = alpha * Fraction(1, chi.degree)
            out[(i, c)] = Cyclo.rational(alpha.to_fraction()) if alpha.is_rational() else alpha
    return out


def dense_trace(column, n: int, order: int) -> Cyclo:
    """Trace of a monomial matrix with the given columns, as a weight
    vector of length ``order`` on the roots of unity, reduced once."""
    weights = [0] * order
    for j, (i, k) in enumerate(column):
        if i == j:
            weights[k * order // n] += 1
    return root_of_unity_sum(order, weights)


def monomial_matrix(rep: MonomialRepresentation, g: int) -> list[list[Cyclo]]:
    """rho(g) as a Cyclo matrix: zeta_N^k as Cyclo.zeta(N/q, k/q) with
    q = gcd(k, N), and Cyclo.zero() off the monomial pattern."""
    d, n = rep.degree, rep.order
    m = [[Cyclo.zero() for _ in range(d)] for _ in range(d)]
    for j, (i, k) in enumerate(rep.columns[g]):
        q = gcd(k, n)
        m[i][j] = Cyclo.zeta(n // q, k // q)
    return m


def local_factor_matrix(fix: ExtensionFixture, place: PlaceData, chi_index: int,
                        r: int, kind: str) -> Cyclo:
    """det(1 - s rho(phi^-1) P) with the inertia projector P summed as
    Cyclo matrices, s = N^(1-r) for delta_T and N^(-r) for euler_S."""
    group = fix.group
    rep = monomial_representation(fix.table, chi_index)
    d = rep.degree
    proj = [[Cyclo.zero() for _ in range(d)] for _ in range(d)]
    for i in place.inertia:
        rho = monomial_matrix(rep, i)
        proj = [[proj[a][b] + rho[a][b] for b in range(d)] for a in range(d)]
    proj = mat_scale(proj, Fraction(1, len(place.inertia)))
    phi_inv = monomial_matrix(rep, group.inverse(place.frobenius))
    scale = Fraction(place.residue_norm) ** ((1 - r) if kind == "delta_T" else (-r))
    m = mat_scale(mat_mul(phi_inv, proj), scale)
    return mat_det(mat_sub(mat_identity(d), m))


def mat_sub(a, b) -> list[list[Cyclo]]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def det_by_elimination(a) -> Cyclo:
    """``mat_det`` as it was before row selections shared their
    elimination: one matrix, eliminated on its own, with the same pivot
    search, swaps, rows to clear and 2x2 finish."""
    n = len(a)
    if n == 0:
        return Cyclo.one()
    if n == 1:
        return Cyclo.zero() if a[0][0].is_zero() else a[0][0]
    m = [row[:] for row in a]
    det = Cyclo.one()
    for col in range(n - 2):
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
    (p, b), (c, d) = m[n - 2][n - 2:], m[n - 1][n - 2:]
    if p.is_zero():
        if c.is_zero():
            return Cyclo.zero()
        (p, b), (c, d) = (c, d), (p, b)
        det = -det
    tail = p * d if c.is_zero() else p * d - c * b
    return Cyclo.zero() if tail.is_zero() else det * tail


def fitting_by_minors(h, table: CharacterTable) -> list[CentralElement]:
    """The generators of ``fitting_of_presentation(h, table)`` as they were
    computed before the minors shared one elimination per character: per
    b x b row selection, in ``itertools.combinations`` order, its own
    ``det_by_elimination`` of the selected rows of each character's block
    of all of h, built by ``CentralElement.from_orbits``."""
    b = len(h[0])
    blocks = _represented(h, table)
    gens = []
    for rows in itertools.combinations(range(len(h)), b):
        def det(i, rows=rows):
            d, block = blocks[i]
            return det_by_elimination([block[r * d + j] for r in rows for j in range(d)])
        gens.append(CentralElement.from_orbits(table, det, "reduced norm"))
    return gens


def run_all(fix: ExtensionFixture,
            options: CheckOptions = CheckOptions()) -> list[Verdict]:
    """Every suite in registry order, as ``check all`` runs them."""
    return [suite.run(fix, options) for suite in SUITES.values()]


def is_trivial(chi: DirichletCharacter) -> bool:
    return not any(chi.powers.values())


def exponent_at(chi: DirichletCharacter, a: int) -> Fraction | None:
    """chi(a) as a Fraction exponent mod 1, or None where chi(a) = 0."""
    k = chi.powers.get(a % chi.modulus if chi.modulus > 1 else 1)
    return None if k is None else Fraction(k, chi.order)


def is_odd(chi: DirichletCharacter) -> bool:
    """chi(-1) = -1."""
    if chi.modulus <= 2:
        return False
    return 2 * chi.powers[chi.modulus - 1] == chi.order


def trivial_character(modulus: int = 1) -> DirichletCharacter:
    """The trivial character mod ``modulus``, through the checked constructor."""
    return DirichletCharacter(modulus, 1, dict.fromkeys(unit_residues(modulus), 0))


def dirichlet_from_exps(modulus: int, exps) -> DirichletCharacter:
    """The checked character mod ``modulus`` with chi(a) = exp(2 pi i e)
    for the Fraction exponent e = exps[a] mod 1 of each unit residue a."""
    return DirichletCharacter(modulus, *powers_over_common_order(
        {a: Fraction(e) for a, e in exps.items()}))


def primitive_core_by_fractions(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive core through Fraction exponents: the value at each unit
    b mod the conductor d read at a lift of b to a unit mod f."""
    d, f = chi.conductor, chi.modulus
    exps = fraction_exps(chi)
    core = {}
    for b in unit_residues(d):
        # the smallest a = b mod d coprime to f
        a = next(b + t * d for t in range(f // d) if gcd(b + t * d, f) == 1)
        core[b] = exps[a % f if f > 1 else 1]
    return dirichlet_from_exps(d, core)


def euler_delta_by_primes(r: int, chi: DirichletCharacter, S, T) -> Cyclo:
    """prod_{q in S} (1 - chi(q) q^(-r)) * prod_{q in T} (1 - chi(q) q^(1-r))
    as one Cyclo factor per prime, starting from 1 at the order of chi."""
    val = Cyclo.one(chi.order)
    for q in sorted(set(S)):
        val = val * (Cyclo.one() - chi(q) * Fraction(q) ** (-r))
    for q in sorted(set(T)):
        val = val * (Cyclo.one() - chi(q) * Fraction(q) ** (1 - r))
    return val


def bernoulli_eval(bn: BernoulliData, x: Fraction) -> Fraction:
    """B_n(x) by Horner's rule in Fractions."""
    acc = Fraction(0)
    for c in reversed(bn.coeffs):
        acc = acc * x + c
    return acc


def generalized_bernoulli_fractions(n: int, chi: DirichletCharacter) -> Cyclo:
    """B_{n,chi} = f^(n-1) sum_a chi(a) B_n(a/f) with Fraction weights."""
    f = chi.modulus
    bn = bernoulli_polynomial(n)
    order = chi.order
    weights = [Fraction(0)] * order
    for a in range(1, f + 1):
        e = exponent_at(chi, a)
        if e is None:
            continue
        k = (e.numerator * (order // e.denominator)) % order
        weights[k] += bernoulli_eval(bn, Fraction(a, f))
    return root_of_unity_sum(order, weights) * Fraction(f) ** (n - 1)


def galois_equivariant_all_units(table: CharacterTable, comps) -> bool:
    """Is sigma_k of the component at chi the component at sigma_k(chi)
    for every unit k modulo lcm(exponent, component orders)?"""
    n = lcm(table.exponent, *(c.order for c in comps))
    return all(comps[table.galois_index(i, k)] == comps[i].galois(k)
               for k in range(1, n) if gcd(k, n) == 1
               for i in range(len(comps)))


def galois_equivariant_every_component(table: CharacterTable, comps) -> bool:
    """The Galois self-check over every component: sigma_k of the
    component at chi is the component at sigma_k(chi), for every character
    chi and every k in ``unit_generators(L)``, L = lcm(exponent, component
    orders)."""
    n = lcm(table.exponent, *(c.order for c in comps))
    return all(comps[table.galois_index(i, k)] == comps[i].galois(k)
               for k in unit_generators(n) for i in range(len(comps)))


def mu_tate_annihilates(fix: ExtensionFixture, r: int, x: GroupRingElement) -> bool:
    """Membership test: does x kill the Tate-twist module?"""
    data = mu_tate_annihilators(fix, r)
    w, act = data["w"], data["action"]
    total = 0
    for g, q in x.items():
        if q.denominator != 1:
            return False
        total = (total + q.numerator * act[g]) % w
    return total % w == 0


def sigma_isomorphism(elem: dict, c_group, n: int):
    """Reindex an element of M_n(F)[C] as an n x n matrix over F[C].

    elem maps a C-element to an n x n Cyclo matrix; the result has
    CycloGroupRingElement entries over C."""
    if not c_group.is_abelian():
        raise GroupError("sigma isomorphism requires an abelian group")
    out = [[CycloGroupRingElement(c_group) for _ in range(n)] for _ in range(n)]
    for c, mat in elem.items():
        for i in range(n):
            for j in range(n):
                out[i][j] = out[i][j] + CycloGroupRingElement(c_group, {c: mat[i][j]})
    return out


def sigma_inverse(mat, c_group, n: int) -> dict:
    """Inverse of sigma_isomorphism."""
    if not c_group.is_abelian():
        raise GroupError("sigma isomorphism requires an abelian group")
    out = {}
    for i in range(n):
        for j in range(n):
            for c, v in mat[i][j].coeffs.items():
                if c not in out:
                    out[c] = [[Cyclo.zero() for _ in range(n)] for _ in range(n)]
                out[c][i][j] = v
    return out


def subgroup_h_r(group: FiniteGroup, involutions, r: int) -> tuple[int, ...]:
    """Subgroup cutting out the reduction step at r: pair products for even r,
    the involutions themselves for odd r.  Result must be normal."""
    invs = sorted(set(involutions))
    for j in invs:
        if group.mul(j, j) != 0:
            raise GroupError(f"element {j} is not an involution")
    if r > 0:
        raise GroupError("r must be a non-positive integer")
    if r % 2 == 0:
        gens = {group.mul(a, b) for a in invs for b in invs}
    else:
        gens = set(invs)
    sub = group.subgroup_closure(gens) if gens else (0,)
    if not group.is_normal(sub):
        raise GroupError("generated subgroup is not normal (inconsistent fixture)")
    return sub


def relative_class_number_qzeta(p: int) -> Fraction:
    """Minus-part class number of the p-th cyclotomic field (p an odd
    prime): 2p times the product of -B_{1,chi}/2 = L(0, chi)/2 over the odd
    characters mod p."""
    val = Cyclo.rational(2 * p)
    for chi in characters_mod(p):
        if is_odd(chi):
            val = val * (L_at_nonpositive(0, chi) * Fraction(1, 2))
    return val.to_fraction()


def linear_characters(group: FiniteGroup) -> list[list[Fraction]]:
    """Linear characters of any finite group, each as a list of Fraction
    exponents mod 1 indexed by group element."""
    n, rows = linear_character_powers(group, range(group.order))
    return [[Fraction(k, n) for k in row] for row in rows]


# -- fixture checks over every pair, as they ran before the generating-set
#    checks; each has the signature of the check it replaces, so a test can
#    swap it in


def mu_action_all_pairs(group: FiniteGroup, mu: dict, w: int):
    """mu(g) mu(h) = mu(gh) mod w for every pair (g, h)."""
    for g in range(group.order):
        for h in range(group.order):
            if (mu[g] * mu[h] - mu[group.mul(g, h)]) % w != 0:
                raise FixtureError("muL action is not a homomorphism")


def cyclotomic_map_all_pairs(group: FiniteGroup, f: int, mp: dict, units):
    """mp(a) mp(b) = mp(ab) for every pair of units mod f."""
    key = (lambda a: a % f) if f > 1 else (lambda a: 1)
    for a in units:
        for b in units:
            if group.mul(mp[key(a)], mp[key(b)]) != mp[key(a * b)]:
                raise FixtureError("cyclotomic map is not a homomorphism")


def local_groups_by_subgroups(place: PlaceData, group: FiniteGroup, dec_gens, ine_gens):
    """The place checks on G_P and G_P / I_P built as groups: I_P normal
    in G_P, Frobenius in G_P, and its order in the quotient [G_P : I_P]."""
    dec = set(place.decomposition)
    sub, back = group.subgroup_as_group(sorted(dec))
    pos = {v: k for k, v in back.items()}
    if not sub.is_normal([pos[g] for g in place.inertia]):
        raise FixtureError(f"place {place.label}: inertia not normal in decomposition")
    if place.frobenius not in dec:
        raise FixtureError(f"place {place.label}: Frobenius outside decomposition")
    quot, proj = quotient(sub, [pos[g] for g in place.inertia])
    if quot.element_order(proj[pos[place.frobenius]]) != len(dec) // len(place.inertia):
        raise FixtureError(
            f"place {place.label}: Frobenius order inconsistent with |G_P/I_P|")


def module_action_all_pairs(module: FiniteGModule, group: FiniteGroup):
    """rho(g) rho(h) = rho(gh), row i modulo the i-th factor, for every pair."""
    k = len(module.factors)
    for g in range(group.order):
        for h in range(group.order):
            prod = module._mat_mul(module.action[g], module.action[h])
            target = module.action[group.mul(g, h)]
            for i in range(k):
                for j in range(k):
                    if (prod[i][j] - target[i][j]) % module.factors[i] != 0:
                        raise FixtureError(f"action is not a homomorphism at ({g}, {h})")


def local_product_per_character(fix: ExtensionFixture, labels, r: int, kind: str) -> list[Cyclo]:
    """The local-factor product at every character, each factor computed
    on its own: no component is a Galois image of another."""
    table = fix.table
    comps = [Cyclo.one() for _ in range(len(table))]
    for lab in sorted(set(str(x) for x in labels)):
        place = fix.place(lab)
        for i in range(len(table)):
            comps[i] = comps[i] * local_factor(fix, place, i, r, kind)
    return comps


def theta_per_character(fix: ExtensionFixture, sets: PlaceSets) -> list[Cyclo]:
    """The components of the abelian theta_S^T(r), each computed on its
    own as L(r, chi_prim) times the Euler-delta factor of chi_prim, which
    must equal the per-character local product."""
    r = sets.r
    s_fin = [lab for lab in sets.S if not fix.place(lab).infinite]
    s_primes = sorted(fix.place(lab).residue_char for lab in s_fin)
    t_primes = sorted(fix.place(lab).residue_char for lab in sets.T)
    euler = local_product_per_character(fix, s_fin, r, "euler_S")
    delta = local_product_per_character(fix, sets.T, r, "delta_T")
    comps = []
    for i, chi in enumerate(_dirichlet_for_table(fix)):
        prim = chi.primitive_core()
        factor = euler_delta_factor(r, prim, s_primes, t_primes)
        assert factor == euler[i] * delta[i]
        comps.append(L_at_nonpositive(r, prim) * factor)
    return comps


def star_adjoint_per_character(a, table: CharacterTable):
    """The star adjoint of a square matrix over ZG glued per character:
    at each chi, (-1)^(m - 1) sum_(j >= 1) f[j] A^(j - 1) with f the
    characteristic polynomial of its m x m block, times the idempotent
    e_chi = chi(1) |G|^(-1) sum_g chi(g^(-1)) g, summed over every chi in
    Q(zeta)[G].  The sum must lie in Q[G]; it is returned over QG."""
    group = table.group
    ids = group.class_index()
    b = len(a)
    adjoint = [[CycloGroupRingElement(group) for _ in range(b)] for _ in range(b)]
    for i, chi in enumerate(table):
        block = apply_representation(monomial_representation(table, i), a)
        f = char_poly(block)
        m = len(block)
        power, part = grm_identity(group, b), None
        for j in range(1, m + 1):
            term = [[CycloGroupRingElement.lift(x) * (f[j] * (-1) ** (m - 1)) for x in row]
                    for row in power]
            part = term if part is None else mat_add(part, term)
            power = mat_mul(power, a)
        eps = CycloGroupRingElement(group, {
            g: chi.values[ids[group.inverse(g)]] * Fraction(chi.degree, group.order)
            for g in range(group.order)})
        adjoint = mat_add(adjoint, [[eps * x for x in row] for row in part])
    return [[x.to_rational() for x in row] for row in adjoint]


# -- test-only algebra --------------------------------------------------------


class CycloGroupRingElement:
    """Sparse element of Q(zeta)[G], as {g: Cyclo}: the group ring over a
    cyclotomic field, which skv's GroupRingElement (over Q) does not hold.
    A rational coefficient is read as a Cyclo."""

    def __init__(self, group: FiniteGroup, coeffs=None):
        self.group = group
        self.coeffs = {}
        for g, c in (coeffs or {}).items():
            c = c if isinstance(c, Cyclo) else Cyclo.rational(c)
            if not c.is_zero():
                self.coeffs[g] = c

    @staticmethod
    def lift(x: GroupRingElement) -> "CycloGroupRingElement":
        return CycloGroupRingElement(x.group, dict(x.items()))

    def to_rational(self) -> GroupRingElement:
        """The element of Q[G]; fails on a non-rational coefficient."""
        return GroupRingElement(self.group, {g: c.to_fraction() for g, c in self.coeffs.items()})

    def __add__(self, other):
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out[g] + c if g in out else c
        return CycloGroupRingElement(self.group, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return CycloGroupRingElement(self.group,
                                         {g: c * other for g, c in self.coeffs.items()})
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                g = self.group.mul(a, b)
                out[g] = out[g] + ca * cb if g in out else ca * cb
        return CycloGroupRingElement(self.group, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, CycloGroupRingElement):
            return NotImplemented
        keys = self.coeffs.keys() | other.coeffs.keys()
        zero = Cyclo.zero()
        return all(self.coeffs.get(g, zero) == other.coeffs.get(g, zero) for g in keys)


def sparse_sum(x: dict, y: dict) -> dict:
    """x + y for sparse maps g -> nonzero Fraction over Q[G]."""
    out = dict(x)
    for g, c in y.items():
        out[g] = out.get(g, 0) + c
    return {g: c for g, c in out.items() if c}


def sparse_product(group: FiniteGroup, x: dict, y: dict) -> dict:
    """x * y for sparse maps g -> nonzero Fraction over Q[G]: the double
    loop over both supports, summed in Fractions, that GroupRingElement
    replaced by an integer convolution over one denominator."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            g = group.mul(a, b)
            out[g] = out.get(g, 0) + ca * cb
    return {g: c for g, c in out.items() if c}


def sharp(x: GroupRingElement) -> GroupRingElement:
    """The anti-involution g -> g^(-1) of Q[G], extended linearly."""
    return GroupRingElement(x.group, {x.group.inverse(g): c for g, c in x.items()})


def conjugate(x: Cyclo) -> Cyclo:
    """Complex conjugate: sigma_(-1)."""
    return x.galois(x.order - 1) if x.order > 1 else x


def direct_sum(x: CentralElement) -> dict:
    """Group-ring coefficients of a central element from the sum over every
    character in Q(zeta): {g: a_g} with
    a_g = |G|^(-1) sum_chi chi(1) x_chi chi(g^(-1)), zeros left out."""
    group, table = x.group, x.table
    ids = group.class_index()
    coeffs = {}
    for g in range(group.order):
        acc = Cyclo.zero()
        gi = ids[group.inverse(g)]
        for chi, comp in zip(table, x.components):
            acc = acc + comp * chi.values[gi] * Fraction(chi.degree, group.order)
        if not acc.is_zero():
            coeffs[g] = acc
    return coeffs


def check_associative_all_triples(group: FiniteGroup):
    """``FiniteGroup._check_associative`` over every triple (a, b, c): row
    ab of the table must equal row b read through row a, i.e. (ab)c =
    a(bc) for every c; order 1 is skipped, since itemgetter of one index
    returns a bare int."""
    tbl = group.table
    if group.order > 1:
        for row_a in tbl:
            for ab, row_b in zip(row_a, tbl):
                if tbl[ab] != itemgetter(*row_b)(row_a):
                    raise GroupError("multiplication table is not associative")


def normal_closure_by_conjugates(group: FiniteGroup, elems) -> tuple[int, ...]:
    """The subgroup generated by every conjugate g h g^-1 of every h in
    ``elems``."""
    return group.subgroup_closure({group.mul(group.mul(g, h), group.inverse(g))
                                   for g in range(group.order) for h in elems})


def greedy_generators_by_closures(group: FiniteGroup) -> tuple[int, ...]:
    """``FiniteGroup.generators`` as it was first built: each element,
    smallest first, outside the closure of the generators so far, with the
    closure recomputed from the identity for each one."""
    gens, span = [], {0}
    for g in range(group.order):
        if g not in span:
            gens.append(g)
            span = set(group.subgroup_closure(gens))
    return tuple(gens)


def is_normal_by_conjugation(group: FiniteGroup, elems) -> bool:
    """g h g^-1 lies in ``elems`` for every element g and every h in it."""
    s = set(elems)
    return all(group.mul(group.mul(g, h), group.inverse(g)) in s
               for g in range(group.order) for h in s)


def class_index_by_conjugation(group: FiniteGroup) -> tuple[int, ...]:
    """Class id per element, in order of minimal member, from the
    conjugates x g x^-1 of each element g not yet placed."""
    ids, next_id = [-1] * group.order, 0
    for g in range(group.order):
        if ids[g] < 0:
            for x in range(group.order):
                ids[group.mul(group.mul(x, g), group.inverse(x))] = next_id
            next_id += 1
    return tuple(ids)


def cyclic_product(*orders) -> FiniteGroup:
    """Z/orders[0] x Z/orders[1] x ..., built by ``direct_product``."""
    group = FiniteGroup.cyclic(orders[0])
    for n in orders[1:]:
        group = FiniteGroup.direct_product(group, FiniteGroup.cyclic(n))
    return group


def relabelled(group: FiniteGroup, rng) -> FiniteGroup:
    """The same group with its non-identity elements renumbered by a
    shuffle drawn from ``rng``."""
    perm = [0] + rng.sample(range(1, group.order), group.order - 1)
    table = [[0] * group.order for _ in range(group.order)]
    for a, row in enumerate(group.table):
        for b, ab in enumerate(row):
            table[perm[a]][perm[b]] = perm[ab]
    return FiniteGroup(table)
