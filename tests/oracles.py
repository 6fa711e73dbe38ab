"""Reference implementations that only tests call.

Each one is a direct, slower form of something skv computes another way,
or a helper no verdict needs; tests compare against them or exercise them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from skv.arithdata import ExtensionFixture, PlaceData, mu_tate_annihilators
from skv.characters import (Character, CharacterTable, _powers_over_common_order,
                            induce_powers, irreducibles_monomial,
                            linear_character_powers)
from skv.cyclotomic import Cyclo, root_of_unity_sum
from skv.errors import FixtureError, GroupError
from skv.grouprings import GroupRingElement
from skv.groups import FiniteGroup
from skv.linalg import mat_det, mat_identity, mat_mul, mat_scale, mat_sub
from skv.lvalues import (BernoulliData, DirichletCharacter, L_at_nonpositive,
                         bernoulli_polynomial, characters_mod)
from skv.rednorm import (FiniteGModule, MonomialRepresentation,
                         monomial_representation)


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


def induce_from_linear(group: FiniteGroup, u_elems, exps: dict[int, Fraction]) -> Character:
    """Induce a linear character of a subgroup, given by its Fraction
    exponents mod 1, to the whole group."""
    return induce_powers(group, u_elems, *_powers_over_common_order(exps))


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
        e = chi.exponent_at(a)
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


def mu_tate_annihilates(fix: ExtensionFixture, r: int, x: GroupRingElement) -> bool:
    """Membership test: does x kill the Tate-twist module?"""
    data = mu_tate_annihilators(fix, r)
    w, act = data["w"], data["action"]
    total = 0
    for g, c in x.coeffs.items():
        if not c.is_rational():
            return False
        q = c.to_fraction()
        if q.denominator != 1:
            return False
        total = (total + q.numerator * act[g]) % w
    return total % w == 0


def sigma_isomorphism(elem: dict, c_group, n: int):
    """Reindex an element of M_n(F)[C] as an n x n matrix over F[C].

    elem maps a C-element to an n x n Cyclo matrix; the result has
    GroupRingElement entries over C."""
    if not c_group.is_abelian():
        raise GroupError("sigma isomorphism requires an abelian group")
    out = [[GroupRingElement(c_group) for _ in range(n)] for _ in range(n)]
    for c, mat in elem.items():
        for i in range(n):
            for j in range(n):
                if not mat[i][j].is_zero():
                    out[i][j] = out[i][j] + GroupRingElement(c_group, {c: mat[i][j]})
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
        if chi.is_odd():
            val = val * (L_at_nonpositive(0, chi) * Fraction(1, 2))
    return val.to_fraction()


def linear_characters(group: FiniteGroup) -> list[list[Fraction]]:
    """Linear characters of any finite group, each as a list of Fraction
    exponents mod 1 indexed by group element."""
    n, rows = linear_character_powers(group)
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
    quot, proj = sub.quotient([pos[g] for g in place.inertia])
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
