"""Machine-checked verdicts for the integrality and annihilation theorems.

Each check returns a Verdict with status "verified", "falsified" or
"inconclusive".  Inconclusive always carries a reason (failed hypotheses or
a fixture gap); falsified carries an explicit witness.  Truncation of any
searched set is recorded in the notes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, NamedTuple

from .arithdata import (ExtensionFixture, PlaceSets, check_admissible,
                        generate_A_S, hyp_t_sets, mu_tate_annihilators)
from .characters import CharacterTable
from .engine import (_product_split, sku_prime_generators, theta,
                     theta_with_inertia_norms)
from .errors import FixtureError, SkvError
from .grouprings import (CentralElement, GroupRingElement, central_unit,
                         max_order_membership)
from .rednorm import (FittingInvariant, annihilation_check,
                      certified_h_elements, reduced_norm,
                      reduced_norm_component)


class Verdict:
    """Outcome of one check, with witnesses and truncation notes."""

    def __init__(self, check_id: str, status: str, witnesses=None,
                 notes=None, provenance=None):
        if status not in ("verified", "falsified", "inconclusive"):
            raise SkvError(f"unknown verdict status {status!r}")
        self.check_id = check_id
        self.status = status
        self.witnesses = witnesses or []
        self.notes = notes or []
        self.provenance = provenance or []

    def __bool__(self):
        return self.status == "verified"

    def to_json(self) -> dict:
        return {
            "checkId": self.check_id,
            "status": self.status,
            "witnesses": self.witnesses,
            "notes": self.notes,
            "provenance": self.provenance,
        }

    def __repr__(self):
        return f"Verdict({self.check_id!r}, {self.status!r})"


def _is_exact_integral(x: CentralElement) -> bool:
    """Exact group-ring integrality: rational integer coefficients."""
    return x.to_group_ring().is_integral()


def _integrality_failure(x: CentralElement, abelian: bool,
                         in_zg: bool | None = None) -> dict | None:
    """Witness fields when x leaves the maximal order or, for abelian G,
    has a non-integral ZG coefficient; None when x passes both.  A caller
    that has already decided whether x lies in ZG passes that as in_zg."""
    mv = max_order_membership(x)
    if not mv.ok:
        return {"membership": mv.to_json()}
    if abelian and not (_is_exact_integral(x) if in_zg is None else in_zg):
        return {"failure": "abelian exact integrality"}
    return None


def check_theorem_stickelberger_int(fix: ExtensionFixture, sets: PlaceSets) -> Verdict:
    """Integrality of theta_S^T(r) in Z_p(zeta)-span of the product order:
    for an admissible (S, T) the element lies in zeta(M_p(H))[C] for the
    direct-product splitting G = H x C (full integrality when p is None)."""
    check_id = "theorem-stickelberger-int"
    adm = check_admissible(fix, sets)
    if not adm.ok:
        return Verdict(check_id, "inconclusive",
                       notes=["(p,r)-admissibility failed"] + adm.reasons)
    try:
        th = theta(fix, sets)
    except FixtureError as exc:
        return Verdict(check_id, "inconclusive",
                       notes=[f"fixture gap: {exc}"],
                       provenance=[f"admissibility: {adm.reasons}"])
    h_elems, c_elems = _product_split(fix)
    mv = max_order_membership(th.central, product=(h_elems, c_elems), p=sets.p)
    prov = [f"theta: {th.provenance}",
            f"product splitting |H|={len(h_elems)}, |C|={len(c_elems)}",
            "membership mode: product" + (f", p={sets.p}" if sets.p else "")]
    if not mv.ok:
        return Verdict(check_id, "falsified",
                       witnesses=[{"membership": mv.to_json()}],
                       provenance=prov)
    witnesses = [{"membership": mv.to_json()},
                 {"theta": th.to_json()}]
    return Verdict(check_id, "verified", witnesses=witnesses, provenance=prov)


def check_theorem_sku_maxord(fix: ExtensionFixture, S, bound: int = 2) -> Verdict:
    """The modified Sinnott-Kurihara generators lie in the maximal order,
    and the inertia-norm twisted theta elements do as well, over every
    subset J of the ramified places and every admissible T in the pool."""
    check_id = "theorem-sku-maxord"
    notes = []
    try:
        sku = sku_prime_generators(fix, S, bound)
    except (FixtureError, SkvError) as exc:
        return Verdict(check_id, "inconclusive", notes=[f"fixture gap: {exc}"])
    notes.extend(sku.notes)
    if not sku.generators:
        return Verdict(check_id, "inconclusive",
                       notes=notes + ["no admissible T in the fixture pool"])
    abelian = fix.group.is_abelian()
    for tag, gen in sku.generators:
        failure = _integrality_failure(gen, abelian)
        if failure is not None:
            return Verdict(check_id, "falsified",
                           witnesses=[{"generator": tag, **failure}],
                           notes=notes)
    # sweep: prod_{p in J} nr(N_I) * theta_{S_J}^T(0) for every J and T
    ram = sorted(fix.ramified_labels())
    swept = 0
    for t_combo in hyp_t_sets(fix, S, bound):
        t_labels = list(t_combo)
        sets = PlaceSets(S, t_labels)
        for size in range(len(ram) + 1):
            for j_combo in itertools.combinations(ram, size):
                try:
                    elem = theta_with_inertia_norms(fix, list(j_combo), sets)
                except FixtureError as exc:
                    notes.append(f"sweep gap at J={list(j_combo)}, "
                                 f"T={t_labels}: {exc}")
                    continue
                swept += 1
                failure = _integrality_failure(elem, abelian)
                if failure is not None:
                    return Verdict(check_id, "falsified",
                                   witnesses=[{"J": list(j_combo),
                                               "T": t_labels, **failure}],
                                   notes=notes)
    notes.append(f"swept {swept} (J, T) combinations over "
                 f"{len(ram)} ramified places")
    if swept == 0:
        return Verdict(check_id, "inconclusive",
                       notes=notes + ["no (J, T) combination was checkable"])
    witnesses = [{"generators": [tag for tag, _ in sku.generators]},
                 {"sweep": swept}]
    return Verdict(check_id, "verified", witnesses=witnesses, notes=notes)


def _nr_candidates(n: int):
    """Coefficient maps over a group of order n with coefficients +-1 and
    support at most 2: every single term, then every pair of terms."""
    values = (-1, 1)
    for g in range(n):
        for c in values:
            yield {g: c}
    for a, b in itertools.combinations(range(n), 2):
        for ca in values:
            for cb in values:
                yield {a: ca, b: cb}


def _bounded_nr_search(table: CharacterTable, target: CentralElement):
    """Try to realize the target as a reduced norm of a single group-ring
    element of support at most 2 and coefficient height 1.  Returns the
    witness coefficients or None; the search is truncated, so failure
    proves nothing.

    A candidate is rejected at its first character component that differs
    from the target: first the trivial one, which is the augmentation sum
    of its coefficients and needs no block, then the others in table order.
    One that matches every component is confirmed by its full reduced
    norm, with that norm's Galois self-check, before it is returned."""
    group = table.group
    trivial = table.trivial_index()
    for coeffs in _nr_candidates(group.order):
        # the trivial component of nr(x) is the augmentation sum c_g
        if target.components[trivial] != sum(coeffs.values()):
            continue
        cand = [[GroupRingElement(group, coeffs)]]
        matches = all(reduced_norm_component(cand, table, i) == want
                      for i, want in enumerate(target.components)
                      if i != trivial)
        if matches and reduced_norm(cand, table) == target:
            return {str(g): str(c) for g, c in coeffs.items()}
    return None


def _integrality_tier(fix: ExtensionFixture, x: CentralElement):
    """Three-tier membership report for the integral-trace ideal:
    certified, necessary-condition-pass, or falsified."""
    if fix.group.is_abelian():
        if _is_exact_integral(x):
            return "certified", {"reason": "abelian: exact ZG coefficients"}
        return "falsified", {"reason": "abelian: non-integral ZG coefficient"}
    mv = max_order_membership(x)
    if not mv.ok:
        return "falsified", {"membership": mv.to_json()}
    witness = _bounded_nr_search(fix.table, x)
    if witness is not None:
        return "certified", {"nrWitness": witness}
    return "necessary-condition-pass", {
        "note": "maximal-order integrality holds; bounded nr-search "
                "(support <= 2, height <= 1) found no certificate"}


def check_brumer(fix: ExtensionFixture, S, bound: int = 2) -> Verdict:
    """Annihilation of the fixture class groups by |G| * theta_S^T(0), plus
    the necessary integrality condition on theta_S^T(0) itself."""
    check_id = "conjecture-brumer"
    if not fix.class_groups:
        return Verdict(check_id, "inconclusive",
                       notes=["fixture gap: no class-group data"])
    notes = []
    witnesses = []
    try:
        th0 = theta(fix, PlaceSets(S, [], 0))
        a_s = generate_A_S(fix, S, bound)
    except FixtureError as exc:
        return Verdict(check_id, "inconclusive", notes=[f"fixture gap: {exc}"])
    notes.extend(a_s.notes)
    if not a_s.generators:
        return Verdict(check_id, "inconclusive",
                       notes=notes + ["no admissible T in the fixture pool"])
    h_elems = certified_h_elements(fix.table)
    for k, entry in enumerate(fix.class_groups):
        if entry["module"].is_trivial_module():
            witnesses.append({"classGroup": k, "vacuous": True})
            continue
        for atag, a in a_s.generators:
            x = a * th0.central
            tier, detail = _integrality_tier(fix, x)
            if tier == "falsified":
                return Verdict(check_id, "falsified",
                               witnesses=[{"classGroup": k, "aGenerator": atag,
                                           "integrality": detail}],
                               notes=notes)
            ann = annihilation_check(
                FittingInvariant([x], quadratic=False, zero=False),
                entry["module"], h_elems)
            if not ann.ok:
                return Verdict(check_id, "falsified",
                               witnesses=[{"classGroup": k, "aGenerator": atag,
                                           "annihilation": ann.to_json()}],
                               notes=notes)
            witnesses.append({"classGroup": k, "aGenerator": atag,
                              "integrality": tier,
                              "hTimesAThetaAnnihilates": True})
    return Verdict(check_id, "verified", witnesses=witnesses, notes=notes)


def check_brumer_stark_necessary(fix: ExtensionFixture, S) -> Verdict:
    """Necessary conditions only: |mu_L| * theta_S(0) is integral and kills
    the fixture class groups.  The anti-unit and abelian-extension
    conditions on the conjecture are out of scope and noted as such."""
    check_id = "brumer-stark-necessary"
    notes = ["anti-unit condition and the abelianness of L(alpha^(1/w))/K "
             "are out of scope; only integrality and annihilation are checked"]
    try:
        th = theta(fix, PlaceSets(S, [], 0))
    except FixtureError as exc:
        return Verdict(check_id, "inconclusive",
                       notes=notes + [f"fixture gap: {exc}"])
    x = th.central * Fraction(fix.mu_order)
    tier, detail = _integrality_tier(fix, x)
    if tier == "falsified":
        return Verdict(check_id, "falsified",
                       witnesses=[{"integrality": detail}], notes=notes)
    notes.append(f"w*theta integrality tier: {tier}")
    witnesses = [{"w": fix.mu_order, "integrality": {"tier": tier, **detail}}]
    if not fix.class_groups:
        notes.append("no class-group data; annihilation part skipped")
        return Verdict(check_id, "verified", witnesses=witnesses, notes=notes)
    one = [("certified:1", central_unit(fix.table))]
    for k, entry in enumerate(fix.class_groups):
        ann = annihilation_check(FittingInvariant([x], False, False),
                                 entry["module"], one)
        if not ann.ok:
            return Verdict(check_id, "falsified",
                           witnesses=[{"classGroup": k,
                                       "annihilation": ann.to_json()}],
                           notes=notes)
        witnesses.append({"classGroup": k, "annihilates": True})
    return Verdict(check_id, "verified", witnesses=witnesses, notes=notes)


def check_negative_r(fix: ExtensionFixture, S, r: int) -> Verdict:
    """At r < 0: nr(x) * theta_S(r) is integral for every generator x of the
    annihilator of the (1-r)-fold Tate twist of the roots of unity."""
    check_id = "negative-r-int"
    if r >= 0:
        return Verdict(check_id, "inconclusive",
                       notes=["check is defined for r < 0 only"])
    if fix.cyclotomic is None:
        return Verdict(check_id, "inconclusive",
                       notes=["fixture gap: no cyclotomic data"])
    sets = PlaceSets(S, [], r)
    if not set(fix.minimal_s()) <= set(sets.S):
        return Verdict(check_id, "inconclusive",
                       notes=["S must contain all ramified and infinite "
                              "places"])
    try:
        data = mu_tate_annihilators(fix, r)
        th = theta(fix, sets)
    except FixtureError as exc:
        return Verdict(check_id, "inconclusive", notes=[f"fixture gap: {exc}"])
    abelian = fix.group.is_abelian()
    # for abelian G, nr(x) = x, so nr(x) * theta lies in ZG exactly when
    # x * theta does: theta goes to the group ring once, not once per x.
    # ZG lies in the maximal order, so an x that passes is verified
    # without nr(x); only a failing x builds nr(x) * theta for its witness
    theta_zg = th.central.to_group_ring() if abelian else None
    witnesses = [{"w": data["w"]}]
    labels = fix.group.labels
    for x in data["generators"]:
        # report format: each coefficient written as "Cyclo(q)"
        tag = " + ".join(f"Cyclo({c})*{labels[g]}" for g, c in x.items())
        in_zg = (x * theta_zg).is_integral() if abelian else None
        failure = None if in_zg else _integrality_failure(
            reduced_norm([[x]], fix.table) * th.central, abelian, in_zg)
        if failure is not None:
            return Verdict(check_id, "falsified",
                           witnesses=[{"annihilator": tag, **failure}])
        witnesses.append({"annihilator": tag, "integral": True})
    notes = ["abelian: exact ZG integrality checked"] if abelian \
        else ["non-abelian: maximal-order integrality checked"]
    return Verdict(check_id, "verified", witnesses=witnesses, notes=notes)


def exceptional_prime_screening(fix: ExtensionFixture) -> dict:
    """Screen 2 and each ramified residue characteristic p for the
    hypotheses that make p exceptional: p = 2, a wildly ramified p-adic
    place that is not almost tame (complex conjugation outside the
    decomposition group), or a declared nontrivial p-part of the class
    group of the p-th cyclotomic field."""
    primes = {2} | {pl.residue_char for pl in fix.places
                    if not pl.infinite and pl.ramified}
    out = []
    for q in sorted(primes):
        flags = []
        if q == 2:
            flags.append("p=2 is always exceptional")
        for pl in fix.places:
            if pl.infinite or pl.residue_char != q or not pl.wild:
                continue
            if fix.j is None:
                flags.append(f"wild place {pl.label}: no complex conjugation "
                             "data, almost-tameness unknown")
            elif fix.j not in pl.decomposition:
                flags.append(f"wild place {pl.label}: not almost tame "
                             "(conjugation outside the decomposition group)")
        if q in fix.cl_zeta_p_flags:
            flags.append(f"declared: p divides the class number of the "
                         f"{q}-th cyclotomic field")
        out.append({"p": q, "exceptional": bool(flags), "flags": flags})
    return {"screened": out}


def default_sets(fix: ExtensionFixture, bound: int = 2) -> PlaceSets | None:
    """Smallest admissible (S, T) with S the ramified and infinite places
    and T from the fixture pool, or None."""
    S = fix.minimal_s()
    pool = [lab for lab in fix.finite_labels() if lab not in S]
    for size in range(1, bound + 1):
        for combo in itertools.combinations(pool, size):
            sets = PlaceSets(S, list(combo), 0)
            if check_admissible(fix, sets).ok:
                return sets
    return None


# -- suite registry -----------------------------------------------------------


class CheckOptions(NamedTuple):
    """The ``check`` flags as given; None leaves the choice to the suite."""

    S: list[str] | None = None  # None or empty: the ramified and infinite places
    T: list[str] | None = None  # None: the smallest admissible T of the pool
    r: int | None = None  # None: 0 for stickelberger, -1 for negative-r
    p: int | None = None
    bound: int = 2


class Suite(NamedTuple):
    """A verdict suite: its runner and the ``check`` flags it reads."""

    run: Callable[[ExtensionFixture, CheckOptions], Verdict]
    reads: frozenset
    # the flags it reads instead once --T is given; None: it never reads --T
    reads_with_t: frozenset | None = None


def _stickelberger(fix: ExtensionFixture, opts: CheckOptions) -> Verdict:
    if opts.T is not None:
        return check_theorem_stickelberger_int(fix, PlaceSets(
            opts.S or fix.minimal_s(), opts.T,
            0 if opts.r is None else opts.r, opts.p))
    sets = default_sets(fix, opts.bound)
    if sets is None:
        return Verdict("theorem-stickelberger-int", "inconclusive",
                       notes=["no admissible T in the fixture pool "
                              f"(bound {opts.bound})"])
    return check_theorem_stickelberger_int(fix, sets)


#: Every suite in report order.  The runners look the checks up by name at
#: call time, so a patched or wrapped check is the one that runs.
SUITES: dict[str, Suite] = {
    "stickelberger": Suite(_stickelberger, frozenset({"bound"}),
                           frozenset({"T", "S", "r", "p"})),
    "sku": Suite(lambda fix, o: check_theorem_sku_maxord(
        fix, o.S or fix.minimal_s(), o.bound), frozenset({"S", "bound"})),
    "brumer": Suite(lambda fix, o: check_brumer(
        fix, o.S or fix.minimal_s(), o.bound), frozenset({"S", "bound"})),
    "brumer-stark": Suite(lambda fix, o: check_brumer_stark_necessary(
        fix, o.S or fix.minimal_s()), frozenset({"S"})),
    "negative-r": Suite(lambda fix, o: check_negative_r(
        fix, o.S or fix.minimal_s(), -1 if o.r is None else o.r),
        frozenset({"S", "r"})),
}

#: The flags ``check all`` reads; every suite gets them unchanged.
ALL_READS = frozenset({"bound", "r"})


def reject_unread_flags(suite: str, given) -> None:
    """Reject the ``check`` flags that the suite, or ``all``, never reads."""
    entry = SUITES.get(suite)
    if entry is None:
        reads, mode = ALL_READS, ""
    elif entry.reads_with_t is None:
        reads, mode = entry.reads, ""
    elif "T" in given:
        reads, mode = entry.reads_with_t, " with --T"
    else:
        reads, mode = entry.reads, " without --T"
    unread = sorted(set(given) - reads)
    if unread:
        raise SkvError(f"check {suite}{mode} does not read "
                       + ", ".join(f"--{flag}" for flag in unread))
