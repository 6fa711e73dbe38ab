"""Assembly of equivariant Stickelberger elements and Sinnott-Kurihara
generator sets.

The sharp convention used throughout: the component of theta_S^T(r) at an
irreducible chi is L_S^T(r, contragredient chi), equivalently the sharp of
theta has chi-component L_S^T(r, chi).
"""

from __future__ import annotations

from fractions import Fraction

from .arithdata import (ExtensionFixture, GeneratorSet, PlaceSets,
                        delta_element, euler_element, generate_A_S)
from .cyclotomic import unit_residues
from .errors import FixtureError, InternalCheckError
from .grouprings import (CentralElement, GroupRingElement, _product_pairing,
                         central_unit, idempotent_eps, minus_idempotent)
from .groups import detect_direct_product, memo
from .lvalues import DirichletCharacter, L_at_nonpositive, euler_delta_factor
from .rednorm import reduced_norm


class ThetaElement:
    """A Stickelberger element with its defining metadata."""

    SHARP_NOTE = "component at chi is L_S^T(r, contragredient chi)"

    def __init__(self, central: CentralElement, S, T, r: int, provenance: str):
        self.central = central
        self.S = sorted(set(str(x) for x in S))
        self.T = sorted(set(str(x) for x in T))
        self.r = int(r)
        self.provenance = provenance

    def to_json(self) -> dict:
        out = {
            "schema": "skvtheta/1",
            "S": self.S,
            "T": self.T,
            "r": self.r,
            "sharpConvention": self.SHARP_NOTE,
            "provenance": self.provenance,
            "components": [c.to_json() for c in self.central.components],
        }
        out["coefficients"] = {
            self.central.group.labels[g]: str(c)
            for g, c in self.central.to_group_ring().items()
        }
        return out


def _dirichlet_for_table(fix: ExtensionFixture):
    """Match each irreducible of an abelian fixture with the conjugate of
    the Dirichlet character it pulls back to under the fixture's
    restriction map.  An abelian table certifies each character by its
    integer powers on G, which this negates."""
    if not fix.group.is_abelian():
        raise FixtureError("the computed theta path needs an abelian group")
    if fix.cyclotomic is None:
        raise FixtureError("the computed theta path needs the cyclotomic field data")
    f = fix.cyclotomic["conductor"]
    mp = fix.cyclotomic["map"]
    return [DirichletCharacter(f, cert.order, {a: -cert.powers[mp[a]] for a in unit_residues(f)})
            for cert in fix.table.certificates]


def _validate_parity(fix: ExtensionFixture, comps, r: int, context: str,
                     trivial_index: int):
    """Functional-equation parity: components that must vanish, do.  A
    component left None is a filled sigma_k(x_r) of an element's
    ``computed``: it vanishes exactly when x_r does, and Galois conjugate
    characters share their parity, so it is tested at its orbit's first
    member r."""
    if fix.j is None:
        return
    odd = minus_idempotent(fix.table, fix.j)
    n = 1 - r
    for i, comp in enumerate(comps):
        if comp is None:
            continue
        even = odd.component(i).is_zero()
        forced = (even and n % 2 == 1 and i != trivial_index) or \
                 (not even and n % 2 == 0)
        if forced and not comp.is_zero():
            raise InternalCheckError(
                f"{context}: parity forces component {i} to vanish but it does not"
            )


def theta_abelian(fix: ExtensionFixture, sets: PlaceSets) -> ThetaElement:
    """theta_S^T(r) for an abelian fixture over the rationals, built by
    ``CentralElement.from_orbits``: only the characters that the table's
    fill map leaves out (each Galois orbit's first member and one partner)
    are computed, and every other component is sigma_k of its orbit's
    first one.  At each computed character the Euler and delta factors are
    computed twice: once from the Dirichlet character
    (``euler_delta_factor``) and once as the fixture's local determinants,
    whose product is filled the same way.  The two must agree exactly,
    also where L(r, chi) vanishes; the component is the primitive L-value
    times that factor.  The Galois self-check, run once per orbit, then
    compares each orbit's two computed members."""
    r = sets.r
    table = fix.table
    dirichlet = memo(fix, "_dirichlet_for_table", lambda: _dirichlet_for_table(fix))
    s_fin = [lab for lab in sets.S if not fix.place(lab).infinite]
    s_primes = sorted(fix.place(lab).residue_char for lab in s_fin)
    t_primes = sorted(fix.place(lab).residue_char for lab in sets.T)
    local = euler_element(fix, s_fin, r) * delta_element(fix, sets.T, r)

    def component(i):
        prim = dirichlet[i].primitive_core()
        factor = euler_delta_factor(r, prim, s_primes, t_primes)
        if factor != local.computed[i]:
            raise InternalCheckError(
                f"theta assembly mismatch at character {i}: "
                "Dirichlet path and local-factor path disagree"
            )
        return L_at_nonpositive(r, prim) * factor

    central = CentralElement.from_orbits(table, component, "theta_abelian")
    _validate_parity(fix, central.computed, r, "theta_abelian", table.trivial_index())
    # the round trip of to_group_ring checks that theta lies in QG
    central.to_group_ring()
    return ThetaElement(central, sets.S, sets.T, r, "computed:dirichlet")


# -- monomial assembly ------------------------------------------------------


def translated_place_labels(fix: ExtensionFixture, m_elems, labels) -> list[str]:
    """Places of the fixed field of a subgroup above the given base places:
    one per double coset, labelled label/i."""
    out = []
    for lab in labels:
        d = fix.place(lab).decomposition
        n = len(fix.group.double_cosets(m_elems, d))
        out.extend(f"{lab}/{i}" for i in range(n))
    return sorted(out)


def _product_split(fix: ExtensionFixture):
    dp = detect_direct_product(fix.group)
    if dp is None:
        return tuple(range(fix.group.order)), (0,)
    return dp


def theta_monomial(fix: ExtensionFixture, sets: PlaceSets) -> ThetaElement:
    """theta_S^T(r) for G = H x C from per-certificate abelian theta sources.

    Each source supplies, for one irreducible chi of H with certificate
    (U, psi), the values L_{S'}^{T'}(r, psi^ab * lambda) over lambda in
    Irr(C), tagged with the translated place sets.  The sources are the
    fixture's own, validated on load.  Use ``theta`` to pick between this
    and the computed path.
    """
    r = sets.r
    h_elems, c_elems = _product_split(fix)
    table = fix.table
    tab_h, tab_c, pairing, back_h, _ = _product_pairing(table, h_elems, c_elems)
    by_chi: dict[int, list] = {}
    for src, vals in zip(fix.subextension_thetas, fix.theta_values):
        by_chi.setdefault(int(src["chiIndex"]), []).append((src, vals))
    comps_sharp = [None] * len(table)
    for i in range(len(tab_h)):
        cert = tab_h.certificates[i]
        # U x C inside G
        m_elems = sorted({fix.group.mul(back_h[u], c)
                          for u in cert.u_elems for c in c_elems})
        want_s = translated_place_labels(fix, m_elems, sets.S)
        want_t = translated_place_labels(fix, m_elems, sets.T)
        src = vals = None
        for cand, cand_vals in by_chi.get(i, []):
            if int(cand["r"]) != r:
                continue
            if sorted(cand["sPrimeLabels"]) != want_s or sorted(cand["tPrimeLabels"]) != want_t:
                continue
            src, vals = cand, cand_vals
            break
        if src is None:
            raise FixtureError(
                f"no theta source for H-character {i} with r={r}, "
                f"S'={want_s}, T'={want_t}"
            )
        if "uElems" in src and sorted(src["uElems"]) != sorted(cert.u_elems):
            raise FixtureError(
                f"source for H-character {i} declares subgroup {sorted(src['uElems'])}, "
                f"certificate has {sorted(cert.u_elems)}"
            )
        if set(vals) != set(range(len(tab_c))):
            raise FixtureError(
                f"source for H-character {i} must cover all {len(tab_c)} C-characters"
            )
        for j in range(len(tab_c)):
            comps_sharp[pairing[(i, j)]] = vals[j]
    table.check_galois(comps_sharp, "theta_monomial")
    # the sharp convention: the component at chi is the source value at
    # its contragredient
    central = CentralElement.from_orbits(
        table, lambda i: comps_sharp[table.contragredient_index(i)], "theta_monomial")
    _validate_parity(fix, central.computed, r, "theta_monomial", table.trivial_index())
    return ThetaElement(central, sets.S, sets.T, r, "fixture:sources")


def _computed_path(fix: ExtensionFixture) -> bool:
    """Abelian G with cyclotomic field data: theta comes from Dirichlet
    L-values rather than from declared sources."""
    return fix.group.is_abelian() and fix.cyclotomic is not None


def theta(fix: ExtensionFixture, sets: PlaceSets) -> ThetaElement:
    """theta_S^T(r) by the path the fixture supports: ``theta_abelian``
    when it can be computed, else ``theta_monomial`` from theta sources.
    Built once per fixture and (S, T, r); callers do not change it."""
    def build():
        return (theta_abelian if _computed_path(fix) else theta_monomial)(fix, sets)
    return memo(fix, ("theta", tuple(sets.S), tuple(sets.T), sets.r), build)


# -- Sinnott-Kurihara generators --------------------------------------------


def _inertia_norm(fix: ExtensionFixture, label: str) -> CentralElement:
    """nr(N_I) at a finite place, kept on the fixture per place label."""
    def build():
        n_i = GroupRingElement.norm_element(fix.group, fix.place(label).inertia)
        return reduced_norm([[n_i]], fix.table)
    return memo(fix, ("_inertia_norm", label), build)


def u_prime_place_generators(fix: ExtensionFixture, label: str):
    """The two generators of the local norm module at a finite place:
    nr(N_I) and nr(1 - eps phi^-1)."""
    place = fix.place(label)
    group = fix.group
    eps_phi = GroupRingElement(
        group,
        {group.mul(i, group.inverse(place.frobenius)): Fraction(1, len(place.inertia))
         for i in place.inertia},
    )
    one = GroupRingElement.basis(group, 0)
    return [
        (f"{label}:nr(N_I)", _inertia_norm(fix, label)),
        (f"{label}:nr(1-eps*phi^-1)", reduced_norm([[one - eps_phi]], fix.table)),
    ]


def u_prime_generators(fix: ExtensionFixture, S) -> GeneratorSet:
    """Products of the local generators over the finite places of S,
    one choice per place (2^|S_fin| elements)."""
    s_fin = sorted(lab for lab in set(str(x) for x in S)
                   if not fix.place(lab).infinite)
    need = set(fix.ramified_labels())
    if not need <= set(str(x) for x in S):
        raise FixtureError("U' requires S to contain all ramified places")
    combos = [("1", central_unit(fix.table))]
    for lab in s_fin:
        local = u_prime_place_generators(fix, lab)
        combos = [(f"{tag}*{ltag}" if tag != "1" else ltag, elem * lelem)
                  for tag, elem in combos for ltag, lelem in local]
    return GeneratorSet(combos, truncated=False,
                        notes=[f"{len(combos)} products over {len(s_fin)} finite places"])


def l_zero_sharp(fix: ExtensionFixture) -> CentralElement:
    """L(0)^sharp, which is exactly the untruncated theta at r = 0 (S =
    infinite places only, T empty): the sharp is already built into theta.
    L(0) is defined without any Hyp conditions."""
    return theta(fix, PlaceSets(fix.infinite_labels(), [], 0)).central


def sku_prime_generators(fix: ExtensionFixture, S, bound: int = 2) -> GeneratorSet:
    """Truncated generating set of the modified Sinnott-Kurihara module:
    all products delta_T(0) * u' * L(0)^sharp."""
    a_s = generate_A_S(fix, S, bound)
    u_p = u_prime_generators(fix, S)
    l0 = l_zero_sharp(fix)
    prov = "computed" if _computed_path(fix) else "fixture-sources"
    gens = []
    for atag, a in a_s.generators:
        for utag, u in u_p.generators:
            gens.append((f"{atag}|{utag}|L(0)#", a * u * l0))
    notes = list(a_s.notes) + list(u_p.notes) + [f"L(0)# provenance: {prov}"]
    if not gens:
        notes.append("warning: empty generator set (no admissible T)")
    return GeneratorSet(gens, truncated=True, notes=notes)


def inertia_norm_product(fix: ExtensionFixture, J) -> CentralElement:
    """prod_{p in J} nr(N_I) as a central element."""
    out = central_unit(fix.table)
    for lab in sorted(set(str(x) for x in J)):
        out = out * _inertia_norm(fix, lab)
    return out


def theta_with_inertia_norms(fix: ExtensionFixture, J, sets: PlaceSets) -> CentralElement:
    """prod_{p in J} nr(N_I) * theta_{S_J}^T(r), with the vanishing pattern
    of the norm product verified against the subgroup generated by the
    inertia groups of J."""
    j_labels = sorted(set(str(x) for x in J))
    ram = set(fix.ramified_labels())
    if not set(j_labels) <= ram:
        raise FixtureError("J must consist of ramified places")
    s_j = sorted((set(sets.S) - set(j_labels)) | set(fix.infinite_labels()))
    factor = inertia_norm_product(fix, j_labels)
    # H_J: normal closure of the inertia subgroups of the places in J
    gens = []
    for lab in j_labels:
        gens.extend(fix.place(lab).inertia)
    h_j = fix.group.normal_closure(gens) if gens else (0,)
    eps = idempotent_eps(fix.table, h_j)
    # sigma_k(x) vanishes exactly when x does, and Galois conjugate
    # characters have one kernel, so a filled component is tested at its
    # orbit's first member
    for i, comp in enumerate(factor.computed):
        if comp is not None and eps.component(i).is_zero() and not comp.is_zero():
            raise InternalCheckError(
                f"inertia norm product must vanish at character {i} "
                "(kernel does not contain H_J)"
            )
    return factor * theta(fix, PlaceSets(s_j, sets.T, sets.r)).central
