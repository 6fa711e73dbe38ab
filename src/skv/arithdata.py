"""Arithmetic fixtures: extensions with explicit local data.

Fixtures carry decomposition/inertia groups, Frobenius lifts and residue
norms per place, roots-of-unity data, class-group modules, and optional
imported theta sources.  Everything is validated on load; all downstream
checks assume a validated fixture.  Schema: "skvfix/1" (strict, unknown
fields rejected).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd

from .characters import CharacterTable, irreducibles_monomial
from .cyclotomic import DECIMAL_INDEX, Cyclo, unit_generators, unit_residues
from .errors import FixtureError, SkvError
from .grouprings import CentralElement, GroupRingElement
from .groups import FiniteGroup, memo
from .rednorm import (FiniteGModule, monomial_representation,
                      reduced_norm_component)


def _has_type(value, kind) -> bool:
    """``type(value) is kind``, so int admits no bool and no float;
    ``list[t]`` and ``dict[str, t]`` check every element, ``a | b``
    either type, and ``object`` is anything (its reader checks it)."""
    if type(kind) is type:
        return kind is object or type(value) is kind
    origin, args = getattr(kind, "__origin__", None), kind.__args__
    if origin is list:
        return type(value) is list and all(_has_type(v, args[0]) for v in value)
    if origin is dict:
        return type(value) is dict and all(_has_type(v, args[1]) for v in value.values())
    return any(_has_type(value, a) for a in args)


def _require_keys(obj: dict, fields: dict, required: set, where: str):
    """obj is an object with only the given fields, each of its exact
    type in ``fields``, and every required one."""
    if type(obj) is not dict:
        raise FixtureError(f"{where} must be an object")
    unknown = set(obj) - set(fields)
    if unknown:
        raise FixtureError(f"unknown fields {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise FixtureError(f"missing fields {sorted(missing)} in {where}")
    for key, value in obj.items():
        if not _has_type(value, fields[key]):
            kind = fields[key]
            raise FixtureError(f"{where} {key} must be "
                               f"{kind.__name__ if isinstance(kind, type) else kind}")


def _check_element_keys(action: dict, elements: dict, where: str):
    """Every key of an action names a group element as ``elements`` does:
    str(g) for g in [0, |G|), so that no "01", " 1" or "-0" stands beside
    the key it would be read as."""
    for key in action:
        if key not in elements:
            raise FixtureError(f"{where} key {key!r} is not an element index "
                               f"in [0, {len(elements)})")


THETA_SOURCE_FIELDS = {"schema": str, "chiIndex": int, "uElems": list[int],
                       "sPrimeLabels": list[str], "tPrimeLabels": list[str],
                       "r": int, "provenance": str, "values": dict}


def validate_theta_source(src) -> dict[int, Cyclo]:
    """Shape check of one imported theta source (schema "skvtheta/1"):
    everything ``engine.theta_monomial`` reads from it.  Returns its
    values, parsed, by integer index."""
    _require_keys(src, THETA_SOURCE_FIELDS, set(THETA_SOURCE_FIELDS) - {"uElems"},
                  "theta source")
    if src["schema"] != "skvtheta/1":
        raise FixtureError(f"unsupported theta source schema {src['schema']!r}")
    values = {}
    for j, v in src["values"].items():
        if not (isinstance(j, str) and DECIMAL_INDEX.fullmatch(j)):
            raise FixtureError(f"theta source values key {j!r} is not an integer index")
        if int(j) in values:
            raise FixtureError(f"theta source values index {int(j)} given twice")
        try:
            values[int(j)] = Cyclo.from_json(v)
        except (SkvError, KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FixtureError(
                f"theta source value {j}: not a cyclotomic number ({exc})") from None
    return values


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PlaceData:
    """One place of the base field with its local Galois data."""

    FIELDS = {"label": str, "residueChar": int, "residueNorm": int,
              "decompositionGens": list[int], "inertiaGens": list[int],
              "frobenius": int, "ramified": bool, "wild": bool, "infinite": bool,
              "complexAtL": bool}

    def __init__(self, group: FiniteGroup, obj: dict):
        _require_keys(obj, self.FIELDS, {"label", "decompositionGens"}, "place")
        self.label = obj["label"]
        self.infinite = obj.get("infinite", False)
        self.complex_at_l = obj.get("complexAtL", False)
        self.decomposition = group.subgroup_closure(obj["decompositionGens"])
        self.inertia = group.subgroup_closure(obj.get("inertiaGens", []))
        self.frobenius = obj.get("frobenius", 0)
        self.ramified = obj.get("ramified", len(self.inertia) > 1)
        self.wild = obj.get("wild", False)
        if self.infinite:
            self.residue_char = 0
            self.residue_norm = 0
            return
        self.residue_char = obj["residueChar"]
        self.residue_norm = obj["residueNorm"]
        q, n = self.residue_char, self.residue_norm
        if not _is_prime(q):
            raise FixtureError(f"place {self.label}: residue characteristic not prime")
        # before the loop, which never ends at 0
        if n < q:
            raise FixtureError(f"place {self.label}: residue norm not a power of {q}")
        m = n
        while m % q == 0:
            m //= q
        if m != 1:
            raise FixtureError(f"place {self.label}: residue norm not a power of {q}")
        dec, ine = set(self.decomposition), set(self.inertia)
        if not ine <= dec:
            raise FixtureError(f"place {self.label}: inertia not inside decomposition")
        self._check_local_groups(group, obj["decompositionGens"], obj.get("inertiaGens", []))
        if self.ramified != (len(ine) > 1):
            raise FixtureError(f"place {self.label}: ramified flag inconsistent")
        if self.wild != (len(ine) % q == 0):
            raise FixtureError(f"place {self.label}: wild flag inconsistent")

    def _check_local_groups(self, group: FiniteGroup, dec_gens, ine_gens):
        """I_P is normal in G_P, tested on the generators of both (see
        ``ExtensionFixture.load``), and Frobenius lies in G_P with order
        [G_P : I_P] modulo I_P."""
        dec, ine = set(self.decomposition), set(self.inertia)
        rows, inv = group.table, group.inv
        if any(rows[rows[d][i]][inv[d]] not in ine
               for d in set(dec_gens) for i in set(ine_gens)):
            raise FixtureError(f"place {self.label}: inertia not normal in decomposition")
        if self.frobenius not in dec:
            raise FixtureError(f"place {self.label}: Frobenius outside decomposition")
        # the order of Frobenius in G_P / I_P is the least k with Frob^k in I_P
        k, power = 1, self.frobenius
        while power not in ine:
            power = rows[power][self.frobenius]
            k += 1
        if k != len(dec) // len(ine):
            raise FixtureError(
                f"place {self.label}: Frobenius order inconsistent with |G_P/I_P|"
            )


def _check_mu_action(group: FiniteGroup, mu: dict, w: int):
    """mu is a homomorphism G -> (Z/w)^x, checked on ``group.generators()``."""
    gens = group.generators()
    if (mu[0] - 1) % w or any((mu[g] * mu[s] - mu[group.mul(g, s)]) % w
                              for g in range(group.order) for s in gens):
        raise FixtureError("muL action is not a homomorphism")


def _check_cyclotomic_map(group: FiniteGroup, f: int, mp: dict, units):
    """mp is a homomorphism (Z/f)^x -> G, checked on ``unit_generators(f)``."""
    key = (lambda a: a % f) if f > 1 else (lambda a: 1)
    if mp[key(1)] != 0 or any(group.mul(mp[key(a)], mp[b]) != mp[key(a * b)]
                              for a in units for b in unit_generators(f)):
        raise FixtureError("cyclotomic map is not a homomorphism")


def _check_places_against_map(fix: "ExtensionFixture", f: int, mp: dict):
    """Over K = Q every place's local data comes from the cyclotomic map.
    At a prime q with f = q^v f', q prime to f': the inertia group is the
    image of the units = 1 mod f', and the Frobenius lift lies in map(a) I
    for the unit a = q mod f', a = 1 mod q^v.  The decomposition group is
    then <I, map(a)>, because the local-group checks of PlaceData make it
    <I, Frobenius>.  A prime of f with nontrivial inertia must be a place.
    Complex conjugation, when given, is map(-1), which also generates the
    decomposition group of an infinite place."""
    group = fix.group
    key = (lambda a: a % f) if f > 1 else (lambda a: 1)
    units = unit_residues(f)
    finite = [pl for pl in fix.places if not pl.infinite]
    primes = {q for q in range(2, f + 1) if f % q == 0 and _is_prime(q)}
    for q in sorted(primes | {pl.residue_char for pl in finite}):
        part = 1
        while f % (part * q) == 0:
            part *= q
        rest = f // part
        inertia = {mp[key(b)] for b in units if (b - 1) % rest == 0}
        frob = mp[key(q + rest * ((1 - q) * pow(rest, -1, part) % part))]
        places = [pl for pl in finite if pl.residue_char == q]
        if not places and len(inertia) > 1:
            raise FixtureError(f"cyclotomic map: the prime {q} ramifies but is not a place")
        coset = {group.mul(frob, i) for i in inertia}
        for pl in places:
            for what, ok in (("inertia group", set(pl.inertia) == inertia),
                             ("Frobenius", pl.frobenius in coset)):
                if not ok:
                    raise FixtureError(
                        f"place {pl.label}: {what} does not match the cyclotomic map")
    conj = mp[key(-1)]
    if fix.j is not None and fix.j != conj:
        raise FixtureError("complex conjugation does not match the cyclotomic map")
    real = set(group.subgroup_closure([conj]))
    for pl in fix.places:
        if pl.infinite and set(pl.decomposition) != real:
            raise FixtureError(f"place {pl.label}: decomposition group does not match "
                               "complex conjugation of the cyclotomic map")


def _check_mu_against_map(fix: "ExtensionFixture"):
    """Over K = Q the cyclotomic map fixes the roots of unity of L: their
    order is w = ``mu_tate_order(fix, 0)``, and g acts on them as kappa(g)
    mod w (see ``_kappa_powers``); every unit mod f that maps to g gives
    that value, because w is the order of the untwisted action."""
    w = mu_tate_order(fix, 0)
    if fix.mu_order != w:
        raise FixtureError(f"muL order {fix.mu_order} does not match the cyclotomic map, "
                           f"whose field has {w} roots of unity")
    for g, a in _kappa_powers(fix, 1, w).items():
        if fix.mu_action[g] != a:
            raise FixtureError(f"muL action of element {g} does not match the cyclotomic map")


class PlaceSets:
    """S/T selection with the evaluation point and optional local prime."""

    def __init__(self, S, T, r: int = 0, p: int | None = None):
        self.S = sorted(set(str(x) for x in S))
        self.T = sorted(set(str(x) for x in T))
        self.r = int(r)
        self.p = int(p) if p is not None else None
        if self.p is not None and not _is_prime(self.p):
            raise FixtureError(f"p must be a prime, got {self.p}")
        if self.r > 0:
            raise FixtureError("r must be a non-positive integer")
        if set(self.S) & set(self.T):
            raise FixtureError("S and T must be disjoint")


class ExtensionFixture:
    """A Galois extension presented through explicit local and module data."""

    FIELDS = {"schema": str, "name": str, "group": dict, "complexConjugation": object,
              "places": list, "muL": dict, "classGroups": list,
              "cyclotomic": dict | None, "subextensionThetas": list,
              "clZetaPFlag": object}

    def __init__(self, obj: dict):
        _require_keys(obj, self.FIELDS, {"schema", "name", "group", "places", "muL"},
                      "fixture")
        if obj["schema"] != "skvfix/1":
            raise FixtureError(f"unsupported schema {obj['schema']!r}")
        self.name = obj["name"]
        gobj = obj["group"]
        _require_keys(gobj, {"table": object, "labels": object}, {"table"}, "group")
        self.group = FiniteGroup(gobj["table"], labels=gobj.get("labels"))
        self.j = obj.get("complexConjugation")
        if self.j is not None:
            # type(j) is int also rejects bool, as FiniteGroup's entries do
            if type(self.j) is not int or not 0 <= self.j < self.group.order:
                raise FixtureError("complex conjugation must be an element index "
                                   f"in 0..{self.group.order - 1}")
            if self.j == 0 or self.group.mul(self.j, self.j) != 0 \
                    or self.j not in self.group.center():
                raise FixtureError("complex conjugation must be a central involution")
        self.places = [PlaceData(self.group, p) for p in obj["places"]]
        labels = [p.label for p in self.places]
        if len(set(labels)) != len(labels):
            raise FixtureError("duplicate place labels")
        mu = obj["muL"]
        _require_keys(mu, {"order": int, "action": dict[str, int]}, {"order", "action"},
                      "muL")
        self.mu_order = mu["order"]
        if self.mu_order < 1:
            raise FixtureError("muL order must be positive")
        # only the key str(g) names element g
        elements = {str(g): g for g in range(self.group.order)}
        _check_element_keys(mu["action"], elements, "muL action")
        self.mu_action = {}
        for g in range(self.group.order):
            if str(g) not in mu["action"]:
                raise FixtureError(f"muL action missing element {g}")
            a = mu["action"][str(g)] % self.mu_order
            if gcd(a, self.mu_order) != 1:
                raise FixtureError(f"muL action value {a} not a unit mod {self.mu_order}")
            self.mu_action[g] = a
        _check_mu_action(self.group, self.mu_action, self.mu_order)
        self.class_groups = []
        for cg in obj.get("classGroups", []):
            _require_keys(cg, {"setT": list[str], "p": int | None, "factors": list[int],
                               "action": dict}, {"setT", "factors", "action"}, "classGroup")
            _check_element_keys(cg["action"], elements, "classGroup action")
            action = {elements[key]: m for key, m in cg["action"].items()}
            self.class_groups.append({
                "setT": cg["setT"],
                "p": cg.get("p"),
                "module": FiniteGModule(self.group, cg["factors"], action),
            })
        self.cyclotomic = None
        cyc = obj.get("cyclotomic")
        if cyc is not None:
            _require_keys(cyc, {"conductor": object, "map": dict[str, int]},
                          {"conductor", "map"}, "cyclotomic")
            f = cyc["conductor"]
            # type(f) is int also rejects bool; below 1 there are no residues
            if type(f) is not int or f < 1:
                raise FixtureError("cyclotomic conductor must be a positive integer")
            units = unit_residues(f)
            # only the key str(a) names the unit a; mu_tate_annihilators
            # lifts every key to a unit, which a non-unit never becomes
            residues = {str(a): a for a in units}
            for key in cyc["map"]:
                if key not in residues:
                    raise FixtureError(f"cyclotomic map keys must be the units mod {f} "
                                       f"in decimal, not {key!r}")
            mp = {residues[key]: g for key, g in cyc["map"].items()}
            for a in units:
                if a not in mp:
                    raise FixtureError(f"cyclotomic map missing residue {a}")
            if set(mp[a] for a in units) != set(range(self.group.order)):
                raise FixtureError("cyclotomic map must be surjective")
            _check_cyclotomic_map(self.group, f, mp, units)
            self.cyclotomic = {"conductor": f, "map": mp}
            # the base field is Q, whose residue field at p is F_p
            for place in self.places:
                if not place.infinite and place.residue_norm != place.residue_char:
                    raise FixtureError(
                        f"place {place.label}: residue norm {place.residue_norm} "
                        f"must equal the residue characteristic {place.residue_char} "
                        "over Q")
            _check_places_against_map(self, f, mp)
            _check_mu_against_map(self)
        self.subextension_thetas = obj.get("subextensionThetas", [])
        # per theta source, its values parsed once, by integer index
        self.theta_values = [validate_theta_source(src) for src in self.subextension_thetas]
        # the primes p declared to divide the class number of Q(zeta_p): one
        # integer or a list of them; type(k) is int also rejects bool
        flags = obj.get("clZetaPFlag")
        flags = [] if flags is None else flags if isinstance(flags, list) else [flags]
        if not all(type(k) is int for k in flags):
            raise FixtureError("clZetaPFlag must be an integer or a list of integers")
        self.cl_zeta_p_flags = flags
        self._memo = {}

    @staticmethod
    def load(path: str) -> "ExtensionFixture":
        """Read and validate a fixture file.  Its homomorphism checks run
        over generating sets: the muL action and each class-group action
        on ``group.generators()``, the cyclotomic map on
        ``unit_generators(conductor)``.  With rho(1) = 1, the check
        rho(g) rho(s) = rho(gs) for every g and every generator s gives
        every pair by induction on word length (see groups).  Likewise a
        place's inertia group I is normal in its decomposition group D when
        each generator of D conjugates each generator of I into I; no
        subgroup or quotient group is built."""
        with open(path) as fh:
            return ExtensionFixture(json.load(fh))

    @property
    def table(self) -> CharacterTable:
        return memo(self, "table", lambda: irreducibles_monomial(self.group))

    def place(self, label: str) -> PlaceData:
        for p in self.places:
            if p.label == str(label):
                return p
        raise FixtureError(f"unknown place label {label!r}")

    def infinite_labels(self) -> list[str]:
        return [p.label for p in self.places if p.infinite]

    def ramified_labels(self) -> list[str]:
        return [p.label for p in self.places if not p.infinite and p.ramified]

    def finite_labels(self) -> list[str]:
        return [p.label for p in self.places if not p.infinite]

    def minimal_s(self) -> list[str]:
        """The ramified and infinite places, sorted: the smallest S that
        the standing hypotheses allow, and every suite's default S."""
        return sorted(set(self.ramified_labels()) | set(self.infinite_labels()))


class SetVerdict:
    def __init__(self, ok: bool, reasons: list[str]):
        self.ok = ok
        self.reasons = reasons

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, "reasons": self.reasons}


def _torsion_criterion(fix: ExtensionFixture, t_labels, w: int,
                       name: str = "mu_L") -> tuple[bool, str]:
    """Sufficient criterion for the torsion of order w (|mu_L| for E_S^T)
    to die: T contains a place whose residue characteristic does not
    divide w."""
    if w == 1:
        return True, f"{name} trivial"
    for lab in t_labels:
        p = fix.place(lab)
        if not p.infinite and w % p.residue_char != 0:
            return True, f"place {lab} has residue characteristic prime to w={w}"
    return False, f"no place in T with residue characteristic prime to w={w}"


def check_hyp_ST(fix: ExtensionFixture, sets: PlaceSets) -> SetVerdict:
    """The standing hypotheses on (S, T): S covers ramified and infinite
    places, S and T are disjoint, and the S-units congruent to 1 at T are
    torsionfree (sufficient criterion)."""
    for lab in sets.S + sets.T:
        fix.place(lab)
    return _hyp_ST(fix, sets, fix.mu_order, "mu_L")


def _hyp_ST(fix: ExtensionFixture, sets: PlaceSets, w: int, name: str) -> SetVerdict:
    """``check_hyp_ST`` with the torsion criterion against w, on place
    labels already checked."""
    reasons = []
    missing = set(fix.minimal_s()) - set(sets.S)
    if missing:
        reasons.append(f"S misses ramified/infinite places {sorted(missing)}")
    if set(sets.S) & set(sets.T):
        reasons.append("S and T intersect")
    ok3, why = _torsion_criterion(fix, sets.T, w, name)
    if not ok3:
        reasons.append(f"torsion criterion failed: {why}")
    return SetVerdict(not reasons, reasons or [f"torsion: {why}"])


def check_admissible(fix: ExtensionFixture, sets: PlaceSets) -> SetVerdict:
    """(p,r)-admissibility at the sets' p and r: for r < 0 the standing
    conditions on S and T with the torsion criterion taken against
    w_(1-r) = ``mu_tate_order(fix, r)`` in place of |mu_L|, which needs
    the cyclotomic data; for r = 0 the four local conditions."""
    for lab in sets.S + sets.T:
        fix.place(lab)
    if sets.r < 0:
        if fix.cyclotomic is None:
            return SetVerdict(False, ["w_(1-r) for r < 0 needs the fixture's cyclotomic data"])
        return _hyp_ST(fix, sets, mu_tate_order(fix, sets.r), "w_(1-r)")
    p = sets.p
    reasons = []
    st = set(sets.S) | set(sets.T)
    for lab in fix.ramified_labels():
        pl = fix.place(lab)
        p_adic = p is not None and pl.residue_char == p
        if not p_adic and lab not in st:
            reasons.append(f"(i) non-p-adic ramified place {lab} outside S and T")
        if pl.wild and p_adic and lab not in sets.S:
            reasons.append(f"(ii) wildly ramified p-adic place {lab} outside S")
    if set(sets.S) & set(sets.T):
        reasons.append("(iii) S and T intersect")
    t_nr = [lab for lab in sets.T if not fix.place(lab).ramified]
    ok4, why = _torsion_criterion(fix, t_nr, fix.mu_order)
    if not ok4:
        reasons.append(f"(iv) torsion criterion on T_nr failed: {why}")
    return SetVerdict(not reasons, reasons or ["admissible"])


def local_factor(fix: ExtensionFixture, place: PlaceData, chi_index: int,
                 r: int, kind: str) -> Cyclo:
    """Local determinant factor at a finite place on inertia invariants:
    det(1 - N^(1-r) rho(phi^-1)) for delta_T, det(1 - N^(-r) rho(phi^-1))
    for euler_S, both restricted to the image of the inertia projector
    e_I = |I|^(-1) sum_{i in I} i.

    The restriction is det(1 - s rho(phi^-1 e_I)), phi commuting with e_I,
    which is the reduced norm of 1 - s phi^-1 e_I at chi.  A linear chi
    reads it off the monomial data: 1 - s chi(phi^-1) when chi is trivial
    on I (Cyclo.zero() if that vanishes), else 1, at the order of the
    subgroup of roots of unity that chi(phi^-1) and chi(I) generate."""
    if place.infinite:
        raise FixtureError("local factors are defined at finite places only")
    if kind not in ("delta_T", "euler_S"):
        raise FixtureError(f"unknown local factor kind {kind!r}")
    group = fix.group
    phi_inv = group.inverse(place.frobenius)
    scale = Fraction(place.residue_norm) ** ((1 - r) if kind == "delta_T" else (-r))
    rep = monomial_representation(fix.table, chi_index)
    if rep.degree > 1:
        share = scale / len(place.inertia)
        coeffs = {0: Fraction(1)}
        for i in place.inertia:
            g = group.mul(phi_inv, i)
            coeffs[g] = coeffs.get(g, 0) - share
        return reduced_norm_component([[GroupRingElement(group, coeffs)]],
                                      fix.table, chi_index)
    n, columns = rep.order, rep.columns
    k = columns[phi_inv][0][1]
    on_inertia = [columns[i][0][1] for i in place.inertia]
    if any(on_inertia):
        return Cyclo.one(n // gcd(n, k, *on_inertia))
    q = gcd(k, n)
    value = Cyclo.one() - Cyclo.zeta(n // q, k // q) * scale
    return Cyclo.zero() if value.is_zero() else value


def _local_product(fix: ExtensionFixture, labels, r: int, kind: str) -> CentralElement:
    """Product of the local factors over the given places, built once per
    fixture and (sorted labels, r, kind) by ``CentralElement.from_orbits``:
    the factors are taken at the characters that the table's fill map
    leaves out, and the Galois self-check runs once per orbit on them.
    Callers do not change it."""
    labels = tuple(sorted(set(str(x) for x in labels)))
    def build():
        places = [fix.place(lab) for lab in labels]

        def component(i):
            comp = Cyclo.one()
            for place in places:
                comp = comp * local_factor(fix, place, i, r, kind)
            return comp
        return CentralElement.from_orbits(fix.table, component, kind)
    return memo(fix, ("_local_product", labels, r, kind), build)


def delta_element(fix: ExtensionFixture, t_labels, r: int = 0) -> CentralElement:
    """delta_T(r) as a central element: product of local delta factors."""
    return _local_product(fix, t_labels, r, "delta_T")


def euler_element(fix: ExtensionFixture, s_labels, r: int = 0) -> CentralElement:
    """Product over places of the S-truncation factors at r."""
    return _local_product(fix, s_labels, r, "euler_S")


class GeneratorSet:
    """A list of tagged central elements plus truncation bookkeeping."""

    def __init__(self, generators, truncated: bool, notes):
        self.generators = generators  # list of (tag, CentralElement)
        self.truncated = truncated
        self.notes = notes


def hyp_t_sets(fix: ExtensionFixture, S, bound: int) -> list[tuple[str, ...]]:
    """Every T from the fixture's place pool (the finite places outside S)
    with 1 <= |T| <= bound and Hyp(S, T), smallest first."""
    s_labels = set(str(x) for x in S)
    pool = [lab for lab in fix.finite_labels() if lab not in s_labels]
    return [combo for size in range(1, bound + 1)
            for combo in itertools.combinations(pool, size)
            if check_hyp_ST(fix, PlaceSets(S, combo)).ok]


def generate_A_S(fix: ExtensionFixture, S, bound: int = 2) -> GeneratorSet:
    """Truncated generating set of the annihilator module: delta_T(0) over
    all T from the fixture's place pool with |T| <= bound and Hyp(S,T)."""
    s_labels = set(str(x) for x in S)
    if not set(fix.minimal_s()) <= s_labels:
        raise FixtureError("A_S requires S to contain all ramified and infinite places")
    pool = [lab for lab in fix.finite_labels() if lab not in s_labels]
    notes = [f"truncated at |T| <= {bound} over a pool of {len(pool)} places"]
    gens = [("T=" + ",".join(combo), delta_element(fix, combo, 0))
            for combo in hyp_t_sets(fix, S, bound)]
    if not gens:
        notes.append("warning: no admissible T found in the pool")
    return GeneratorSet(gens, truncated=True, notes=notes)


def _twist_trivial_mod(f: int, mp: dict, n: int, N: int) -> bool:
    """Is b^n = 1 mod N for every unit b mod N*f that fixes the field?
    Those b are a + j*f, 0 <= j < N, prime to N, for the units a mod f
    (the keys of the map) in the kernel of the map."""
    return all(pow(b, n, N) == 1 % N
               for a, g in mp.items() if g == 0
               for b in range(a, N * f + 1, f) if gcd(b, N) == 1)


def mu_tate_order(fix: ExtensionFixture, r: int) -> int:
    """Order w_(1-r) of the Tate-twisted roots of unity.

    Computed prime by prime: p can only contribute when p divides the
    conductor or p-1 divides 1-r, and the p-power exponent is found by
    raising the modulus until the twisted action stops being trivial."""
    if fix.cyclotomic is None:
        raise FixtureError("negative-r checks need the fixture's cyclotomic data")
    f = fix.cyclotomic["conductor"]
    mp = fix.cyclotomic["map"]
    n = 1 - r
    candidates = set(p for p in range(2, n + 2) if _is_prime(p) and n % (p - 1) == 0)
    p = 2
    ff = f
    while ff > 1:
        if _is_prime(p) and ff % p == 0:
            candidates.add(p)
            while ff % p == 0:
                ff //= p
        p += 1
    w = 1
    for p in sorted(candidates):
        pk = p
        while _twist_trivial_mod(f, mp, n, pk):
            w *= p
            pk *= p
    return w


def _kappa_powers(fix: ExtensionFixture, n: int, w: int) -> dict:
    """g -> kappa(g)^n mod w, for w = ``mu_tate_order(fix, 1 - n)``: any
    residue mapping to g works once it is lifted to be coprime to w*f (well
    defined by the choice of w, since a unit fixing the field is 1 mod w)."""
    f, mp = fix.cyclotomic["conductor"], fix.cyclotomic["map"]
    kappa_pow = {}
    for b, g in mp.items():
        if g not in kappa_pow:
            while gcd(b, w * f) != 1:
                b += f
            kappa_pow[g] = pow(b, n, w) if w > 1 else 0
    return kappa_pow


def mu_tate_annihilators(fix: ExtensionFixture, r: int):
    """Annihilator of the Tate twist: order w and generators of the kernel
    of the evaluation map ZG -> Z/w, g -> kappa(g)^(1-r)."""
    if r >= 0:
        raise FixtureError("Tate-twist annihilators are for negative r only")
    w = mu_tate_order(fix, r)
    group = fix.group
    kappa_pow = _kappa_powers(fix, 1 - r, w)
    gens = [GroupRingElement.scalar(group, Fraction(w))]
    for g in range(1, group.order):
        gens.append(GroupRingElement.basis(group, g)
                    - GroupRingElement.scalar(group, Fraction(kappa_pow[g])))
    return {"w": w, "generators": gens, "action": kappa_pow}

