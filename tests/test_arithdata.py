"""Fixture validation, set hypotheses, local factors, twisted torsion data."""

import copy
import json
import re
from fractions import Fraction
from math import gcd

import pytest

import oracles
from skv import arithdata
from skv.arithdata import (ExtensionFixture, PlaceData, PlaceSets,
                           check_admissible, check_hyp_ST, delta_element,
                           euler_element, generate_A_S, local_factor,
                           mu_tate_annihilators, mu_tate_order)
from skv.cyclotomic import Cyclo
from skv.errors import FixtureError, SkvError
from skv.grouprings import GroupRingElement
from skv.groups import FiniteGroup
from skv.rednorm import FiniteGModule

from conftest import FIXTURE_NAMES, ladder_fixture_writer, load_fixture_json
from oracles import local_factor_matrix, mu_tate_annihilates


def _mutated(name, mutate):
    obj = copy.deepcopy(load_fixture_json(name))
    mutate(obj)
    return obj


def test_all_fixtures_load(fixtures):
    assert set(fixtures) == {"q", "q_i", "q_zeta3", "q_sqrt_m5", "q_zeta23",
                             "s3c2"}
    for fix in fixtures.values():
        assert fix.group.order >= 1
        assert fix.infinite_labels()


def test_unknown_and_missing_fields_rejected():
    with pytest.raises(FixtureError, match="unknown fields"):
        ExtensionFixture(_mutated("q", lambda o: o.update(surprise=1)))
    with pytest.raises(FixtureError, match="missing fields"):
        ExtensionFixture(_mutated("q", lambda o: o.pop("muL")))
    with pytest.raises(FixtureError, match="schema"):
        ExtensionFixture(_mutated("q", lambda o: o.update(schema="skvfix/9")))

    # theta sources are checked in full on load, not first in theta_monomial
    def rename_value_key(o):
        vals = o["subextensionThetas"][0]["values"]
        vals["x"] = vals.pop("0")

    with pytest.raises(FixtureError, match="values key 'x'"):
        ExtensionFixture(_mutated("s3c2", rename_value_key))

    def bad_cyclo(o):
        o["subextensionThetas"][0]["values"]["0"] = {"order": 1, "coeffs": {"0": "1/x"}}

    with pytest.raises(FixtureError, match="cyclotomic"):
        ExtensionFixture(_mutated("s3c2", bad_cyclo))
    with pytest.raises(FixtureError, match="chiIndex"):
        ExtensionFixture(_mutated(
            "s3c2", lambda o: o["subextensionThetas"][0].update(chiIndex="0")))
    with pytest.raises(FixtureError, match="schema"):
        ExtensionFixture(_mutated(
            "s3c2", lambda o: o["subextensionThetas"][0].update(schema="skvtheta/9")))
    with pytest.raises(FixtureError, match="missing"):
        ExtensionFixture(_mutated(
            "s3c2", lambda o: o["subextensionThetas"][0].pop("values")))


def test_place_flag_consistency_enforced():
    def flip_wild(o):
        o["places"][1]["wild"] = False

    with pytest.raises(FixtureError, match="wild flag"):
        ExtensionFixture(_mutated("q_i", flip_wild))

    def flip_ram(o):
        o["places"][2]["ramified"] = True

    with pytest.raises(FixtureError, match="ramified flag"):
        ExtensionFixture(_mutated("q_i", flip_ram))

    def bad_frob(o):
        o["places"][2]["frobenius"] = 0  # inert place needs the full order

    with pytest.raises(FixtureError, match="Frobenius"):
        ExtensionFixture(_mutated("q_i", bad_frob))


def test_mu_and_cyclotomic_validation():
    def bad_mu(o):
        o["muL"]["action"]["1"] = 2  # not a unit mod 4

    with pytest.raises(FixtureError, match="unit"):
        ExtensionFixture(_mutated("q_i", bad_mu))

    def bad_cyc(o):
        o["cyclotomic"]["map"]["3"] = 0  # no longer surjective

    with pytest.raises(FixtureError, match="surjective"):
        ExtensionFixture(_mutated("q_i", bad_cyc))

    def bad_j(o):
        o["complexConjugation"] = 0

    with pytest.raises(FixtureError, match="involution"):
        ExtensionFixture(_mutated("q_i", bad_j))


def test_residue_norm_over_q_must_equal_residue_char():
    def norm_49(o):
        next(p for p in o["places"] if p["label"] == "7")["residueNorm"] = 49

    with pytest.raises(FixtureError, match="place 7: residue norm 49"):
        ExtensionFixture(_mutated("q_zeta3", norm_49))
    # without cyclotomic data the base field need not be Q
    obj = _mutated("q_zeta3", norm_49)
    del obj["cyclotomic"]
    assert ExtensionFixture(obj).place("7").residue_norm == 49


def _place(obj, label):
    return next(p for p in obj["places"] if p["label"] == label)


def _q_sqrt_5(**fields):
    """The real field Q(sqrt 5) inside Q(zeta_5), fixed by 1 and 4 = -1."""
    obj = {"schema": "skvfix/1", "name": "q_sqrt_5",
           "group": {"table": [[0, 1], [1, 0]], "labels": ["e", "s"]},
           "places": [{"label": "inf", "infinite": True, "decompositionGens": []},
                      {"label": "5", "residueChar": 5, "residueNorm": 5, "frobenius": 0,
                       "decompositionGens": [1], "inertiaGens": [1]},
                      {"label": "2", "residueChar": 2, "residueNorm": 2, "frobenius": 1,
                       "decompositionGens": [1]},
                      {"label": "11", "residueChar": 11, "residueNorm": 11, "frobenius": 0,
                       "decompositionGens": []}],
           "muL": {"order": 2, "action": {"0": 1, "1": 1}},
           "cyclotomic": {"conductor": 5, "map": {"1": 0, "2": 1, "3": 1, "4": 0}}}
    obj.update(fields)
    return obj


def test_places_must_match_the_cyclotomic_map(tmp_path):
    write = ladder_fixture_writer()
    for p in (31, 47, 71, 107):
        ExtensionFixture.load(write(p, str(tmp_path)))
    ExtensionFixture(_q_sqrt_5())
    # a prime that does not ramify may be left out
    ExtensionFixture(_mutated("q_zeta23", lambda o: o["places"].remove(_place(o, "29"))))

    def drop(label):
        return lambda o: o["places"].remove(_place(o, label))

    cases = [
        # inertia at 29, which is unramified in Q(zeta_23)
        ("q_zeta23", lambda o: _place(o, "29").update(inertiaGens=[18]),
         "place 29: inertia group does not match the cyclotomic map"),
        # 29 = 6 mod 23 and map(6) = 18: Frobenius 2 generates the same
        # decomposition group as 18 but is map(2), the Frobenius at 2
        ("q_zeta23", lambda o: _place(o, "29").update(frobenius=2, decompositionGens=[2]),
         "place 29: Frobenius does not match the cyclotomic map"),
        # a decomposition group off <I, map(a)> fails the local-group checks
        ("q_zeta23", lambda o: _place(o, "29").update(decompositionGens=[1]),
         "place 29: Frobenius order inconsistent"),
        ("q_i", drop("2"), "cyclotomic map: the prime 2 ramifies but is not a place"),
        ("q_sqrt_m5", drop("5"), "cyclotomic map: the prime 5 ramifies but is not a place"),
        ("q_i", lambda o: _place(o, "inf").update(decompositionGens=[]),
         "place inf: decomposition group does not match complex conjugation"),
    ]
    for name, mutate, what in cases:
        with pytest.raises(FixtureError, match=re.escape(what)):
            ExtensionFixture(_mutated(name, mutate))
    with pytest.raises(FixtureError, match="complex conjugation does not match"):
        ExtensionFixture(_q_sqrt_5(complexConjugation=1))
    real = _q_sqrt_5()
    _place(real, "inf")["decompositionGens"] = [1]
    with pytest.raises(FixtureError, match="place inf: decomposition group does not match"):
        ExtensionFixture(real)


def test_cyclotomic_conductor_must_be_a_positive_integer():
    for conductor in (0, -1, True, "1", 1.0, None):
        obj = _mutated("q", lambda o: o["cyclotomic"].update(conductor=conductor))
        with pytest.raises(FixtureError, match="conductor must be a positive integer"):
            ExtensionFixture(obj)


def test_generate_a_s_reuses_each_delta_element():
    # the set is built on every call, but each delta_T(0) once per fixture
    fix = ExtensionFixture(load_fixture_json("q_zeta3"))
    first = generate_A_S(fix, ["inf", "3"], 2)
    again = generate_A_S(fix, ["3", "inf", "3"], 2)
    assert first.generators and again is not first
    assert [tag for tag, _ in again.generators] == [tag for tag, _ in first.generators]
    assert all(a is b for (_, a), (_, b) in zip(first.generators, again.generators))


def test_place_sets_guards():
    with pytest.raises(FixtureError):
        PlaceSets(["a"], ["a"])
    with pytest.raises(FixtureError):
        PlaceSets([], [], r=1)


def test_check_hyp_st(fixtures):
    fix = fixtures["q_i"]
    assert check_hyp_ST(fix, PlaceSets(["inf", "2"], ["5"]))
    v = check_hyp_ST(fix, PlaceSets(["inf"], ["5"]))
    assert not v and any("misses" in r for r in v.reasons)
    # empty T fails the torsion criterion since w = 4 > 1
    v2 = check_hyp_ST(fix, PlaceSets(["inf", "2"], []))
    assert not v2 and any("torsion" in r for r in v2.reasons)
    # T sharing the residue characteristic of w fails too
    fix3 = fixtures["q_zeta3"]
    v3 = check_hyp_ST(fix3, PlaceSets(["inf", "3"], []))
    assert not v3


def test_check_admissible_r_zero(fixtures):
    fix = fixtures["q_i"]
    # without a local prime the ramified place must sit in S or T
    v = check_admissible(fix, PlaceSets(["inf"], ["5"], r=0))
    assert not v and any("(i)" in r for r in v.reasons)
    # at p = 2 the wild 2-adic place must lie in S itself
    v2 = check_admissible(fix, PlaceSets(["inf"], ["5"], r=0, p=2))
    assert not v2 and any("(ii)" in r for r in v2.reasons)
    assert check_admissible(fix, PlaceSets(["inf", "2"], ["5"], r=0, p=2))
    # negative r takes the standing hypotheses with the torsion criterion
    # against w_2 = 24 in place of |mu_L| = 4: 5 passes, 3 does not
    assert check_admissible(fix, PlaceSets(["inf", "2"], ["5"], r=-1))
    v3 = check_admissible(fix, PlaceSets(["inf", "2"], ["3"], r=-1))
    assert not v3 and v3.reasons == [
        "torsion criterion failed: no place in T with residue characteristic prime to w=24"]


def test_delta_element_oracles(fixtures):
    fix = fixtures["q_zeta3"]
    d7 = delta_element(fix, ["7"], 0)
    # split place: 1 - 7 at both characters
    assert all(c == Cyclo.rational(-6) for c in d7.components)
    d5 = delta_element(fix, ["5"], 0)
    # inert place, Frobenius the nontrivial element: 1 -+ 5
    assert [c.to_fraction() for c in d5.components] == [-4, 6]
    # ramified place with full inertia: invariants vanish at the
    # nontrivial character, so its factor is 1 there
    d3 = delta_element(fix, ["3"], 0)
    assert [c.to_fraction() for c in d3.components] == [-2, 1]


def _cyclic_places(group):
    """For each g != 1, a tame place with D = I = <g> and an unramified one
    with D = <g> and Frobenius g."""
    for g in range(1, group.order):
        for label, inertia, frob in ((f"r{g}", [g], 0), (f"u{g}", [], g)):
            yield PlaceData(group, {"label": label, "residueChar": 101,
                                    "residueNorm": 101, "decompositionGens": [g],
                                    "inertiaGens": inertia, "frobenius": frob})


def test_local_factor_matches_the_cyclo_matrix_formula(fixtures):
    # value and order, over every finite place, character, r and kind,
    # the degree-2 characters of s3c2 among them; the extra places give
    # characters whose values on D generate a proper subgroup of their image
    for name, fix in sorted(fixtures.items()):
        places = [p for p in fix.places if not p.infinite]
        for place in places + list(_cyclic_places(fix.group)):
            for i in range(len(fix.table)):
                for r in (0, -1, -2):
                    for kind in ("delta_T", "euler_S"):
                        got = local_factor(fix, place, i, r, kind)
                        want = local_factor_matrix(fix, place, i, r, kind)
                        assert (got.order, got.num, got.den) == \
                            (want.order, want.num, want.den), \
                            (name, place.label, i, r, kind)


def test_euler_element_oracles(fixtures):
    fix = fixtures["q_zeta3"]
    e7 = euler_element(fix, ["7"], 0)
    assert all(c == Cyclo.zero() for c in e7.components)  # 1 - 7^0 = 0
    e5 = euler_element(fix, ["5"], -1)
    assert [c.to_fraction() for c in e5.components] == [-4, 6]


def test_generate_a_s(fixtures):
    fix = fixtures["q_zeta3"]
    gs = generate_A_S(fix, ["inf", "3"], bound=2)
    tags = [t for t, _ in gs.generators]
    assert tags == ["T=5", "T=7", "T=5,7"]
    assert gs.truncated
    # the T = {5,7} generator is the product of the two singletons
    by_tag = dict(gs.generators)
    assert by_tag["T=5,7"] == by_tag["T=5"] * by_tag["T=7"]
    with pytest.raises(FixtureError):
        generate_A_S(fix, ["inf"])


def test_mu_tate_order_oracles(fixtures):
    assert mu_tate_order(fixtures["q"], -1) == 24
    assert mu_tate_order(fixtures["q_i"], -1) == 24
    # the kernel of the conductor-20 character contains 3 mod 20 and
    # 3^2 is not 1 mod 5, so 5 contributes nothing: w_2 stays 24
    assert mu_tate_order(fixtures["q_sqrt_m5"], -1) == 24
    assert mu_tate_order(fixtures["q_zeta23"], -1) == 552
    assert mu_tate_order(fixtures["q"], -3) == 240
    assert mu_tate_order(fixtures["q_zeta3"], -1) == 24
    with pytest.raises(FixtureError):
        mu_tate_order(fixtures["s3c2"], -1)


def test_mu_tate_order_direct_search_cross_check(fixtures):
    # independent oracle over the rationals: w_2(Q) is the largest N whose
    # unit group has exponent dividing 2
    best = 1
    for n in range(1, 100):
        if all(pow(b, 2, n) == 1 % n
               for b in range(1, n + 1)
               if __import__("math").gcd(b, n) == 1):
            best = max(best, n)
    assert best == 24 == mu_tate_order(fixtures["q"], -1)
    # same style of direct search over residues fixing Q(sqrt(-5))
    gcd = __import__("math").gcd
    kernel = {1, 3, 7, 9}
    best5 = 1
    for n in range(1, 200):
        if all(pow(b, 2, n) == 1 % n
               for b in range(1, 20 * n + 1)
               if gcd(b, 20 * n) == 1 and b % 20 in kernel):
            best5 = max(best5, n)
    assert best5 == mu_tate_order(fixtures["q_sqrt_m5"], -1)


def test_mu_tate_annihilators(fixtures):
    fix = fixtures["q_i"]
    data = mu_tate_annihilators(fix, -1)
    assert data["w"] == 24
    # kappa(j)^2 mod 24 through a residue coprime to 24*4 (e.g. 7)
    assert data["action"] == {0: 1, 1: 1}
    assert len(data["generators"]) == fix.group.order
    for gen in data["generators"]:
        assert mu_tate_annihilates(fix, -1, gen)
    with pytest.raises(FixtureError):
        mu_tate_annihilators(fix, 0)


def test_mu_tate_annihilates_negatives(fixtures):
    fix = fixtures["q_i"]
    one = GroupRingElement.basis(fix.group, 0)
    assert not mu_tate_annihilates(fix, -1, one)
    assert not mu_tate_annihilates(fix, -1, one * Fraction(49, 2))
    assert mu_tate_annihilates(fix, -1, one * 24)
    assert not mu_tate_annihilates(fix, -1, one * Fraction(1, 5))


# -- generating-set validation against the all-pairs checks --------------


def _validation_outcome(obj, monkeypatch, all_pairs: bool):
    """(error class, message up to any " at (") of loading obj, or None if
    it loads; with all_pairs, the checks run as they did over every pair."""
    with monkeypatch.context() as m:
        if all_pairs:
            m.setattr(arithdata, "_check_mu_action", oracles.mu_action_all_pairs)
            m.setattr(arithdata, "_check_cyclotomic_map", oracles.cyclotomic_map_all_pairs)
            m.setattr(PlaceData, "_check_local_groups", oracles.local_groups_by_subgroups)
            m.setattr(FiniteGModule, "_check_homomorphism", oracles.module_action_all_pairs)
        try:
            ExtensionFixture(obj)
        except SkvError as exc:
            return type(exc).__name__, str(exc).split(" at (")[0]
    return None


def _outcomes(monkeypatch, objs) -> set:
    """The outcomes of loading each object, which must not depend on the
    checks used."""
    seen = set()
    for obj in objs:
        new = _validation_outcome(obj, monkeypatch, all_pairs=False)
        assert new == _validation_outcome(obj, monkeypatch, all_pairs=True)
        seen.add(new)
    return seen


def _corruptions(name, paths_and_values):
    """One copy of the named fixture per (path, value): the entry at the
    path of keys and indices set to the value."""
    for path, value in paths_and_values:
        obj = load_fixture_json(name)
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        yield obj


def test_generating_set_checks_accept_what_all_pairs_accept(monkeypatch, tmp_path):
    objs = [load_fixture_json(name) for name in FIXTURE_NAMES]
    with open(ladder_fixture_writer()(47, str(tmp_path))) as fh:
        objs.append(json.load(fh))
    assert _outcomes(monkeypatch, objs) == {None}


def test_generating_set_checks_reject_the_mu_corruptions_all_pairs_reject(monkeypatch):
    outcomes = set()
    for name in ("s3c2", "q_zeta23"):
        mu = load_fixture_json(name)["muL"]
        # every unit, and one non-unit, in place of each value; s3c2 has
        # w = 1, where every value is the unit 0
        w = mu["order"]
        values = [v for v in range(max(w, 3)) if gcd(v, w) == 1] + [w]
        cases = [(("muL", "action", g), v) for g in mu["action"]
                 for v in values if v != mu["action"][g]]
        outcomes |= _outcomes(monkeypatch, _corruptions(name, cases))
    assert ("FixtureError", "muL action is not a homomorphism") in outcomes
    assert None in outcomes


def test_generating_set_checks_reject_the_cyclotomic_corruptions(monkeypatch):
    outcomes = set()
    for name in ("q_i", "q_sqrt_m5", "q_zeta23"):
        obj = load_fixture_json(name)
        mp, order = obj["cyclotomic"]["map"], len(obj["group"]["table"])
        cases = [(("cyclotomic", "map", a), g) for a in mp for g in range(order)
                 if g != mp[a]]
        outcomes |= _outcomes(monkeypatch, _corruptions(name, cases))
        # q_zeta23's map is a bijection, so a single entry breaks
        # surjectivity first; swapping two entries keeps it onto
        residues = sorted(mp, key=int)
        swaps = []
        for i, a in enumerate(residues):
            for b in residues[i + 1:]:
                swapped = copy.deepcopy(obj)
                swapped["cyclotomic"]["map"].update({a: mp[b], b: mp[a]})
                swaps.append(swapped)
        outcomes |= _outcomes(monkeypatch, swaps)
    assert ("FixtureError", "cyclotomic map is not a homomorphism") in outcomes
    assert ("FixtureError", "cyclotomic map must be surjective") in outcomes


def test_generating_set_checks_reject_the_place_corruptions(monkeypatch):
    outcomes = set()
    for name in FIXTURE_NAMES:
        obj = load_fixture_json(name)
        order = len(obj["group"]["table"])
        cases = []
        for i, place in enumerate(obj["places"]):
            if place.get("infinite"):
                continue
            for g in range(order):
                cases.append((("places", i, "inertiaGens"), [g]))
                cases.append((("places", i, "frobenius"), g))
        outcomes |= _outcomes(monkeypatch, _corruptions(name, cases))
    # a non-abelian decomposition group: all of S3 x C2 at q5, with each
    # one-generator inertia group and each Frobenius
    group = FiniteGroup(load_fixture_json("s3c2")["group"]["table"])
    objs = []
    for g in range(group.order):
        for frob in range(group.order):
            obj = copy.deepcopy(load_fixture_json("s3c2"))
            obj["places"][1].update(decompositionGens=list(group.generators()),
                                    inertiaGens=[g], frobenius=frob)
            objs.append(obj)
    outcomes |= _outcomes(monkeypatch, objs)
    messages = {m for _, m in filter(None, outcomes)}
    assert {"place q5: inertia not normal in decomposition",
            "place q5: Frobenius outside decomposition",
            "place q5: Frobenius order inconsistent with |G_P/I_P|"} <= messages


def test_generating_set_checks_reject_the_module_corruptions(monkeypatch):
    outcomes = set()
    for name in ("q_sqrt_m5", "q_zeta23"):
        cg = load_fixture_json(name)["classGroups"][0]
        d = cg["factors"][0]
        cases = [(("classGroups", 0, "action", g, 0), [v])
                 for g in cg["action"] for v in range(d + 1)]
        outcomes |= _outcomes(monkeypatch, _corruptions(name, cases))
    assert ("FixtureError", "action is not a homomorphism") in outcomes


def _module_outcome(group, factors, action, monkeypatch, all_pairs: bool):
    with monkeypatch.context() as m:
        if all_pairs:
            m.setattr(FiniteGModule, "_check_homomorphism", oracles.module_action_all_pairs)
        try:
            FiniteGModule(group, factors, action)
        except FixtureError as exc:
            return str(exc).split(" at (")[0]
    return None


def test_module_check_falls_back_to_every_pair_off_endomorphisms(monkeypatch):
    # Z/2 x Z/4 with C4 acting through A = [[1, 1], [2, 1]] of order 4; a
    # single entry can make a matrix that is no endomorphism (entry (1, 0)
    # odd), where the generating-set argument would not apply: the module
    # rejects it on load, before either homomorphism check
    group = FiniteGroup.cyclic(4)
    factors = [2, 4]
    powers = [[[1, 0], [0, 1]]]
    for _ in range(3):
        m = powers[-1]
        powers.append([[(m[i][0] * 1 + m[i][1] * 2) % factors[i],
                        (m[i][0] * 1 + m[i][1] * 1) % factors[i]] for i in range(2)])
    action = dict(enumerate(powers))
    products = []
    mat_mul = FiniteGModule._mat_mul
    with monkeypatch.context() as m:
        m.setattr(FiniteGModule, "_mat_mul",
                  lambda self, a, b: products.append(1) or mat_mul(self, a, b))
        assert _module_outcome(group, factors, action, monkeypatch, False) is None
    # endomorphisms: one product per element and generator, not per pair
    assert len(products) == 4 * len(group.generators()) == 4
    outcomes = set()
    for g in range(4):
        for i in range(2):
            for j in range(2):
                for v in range(factors[i]):
                    bad = copy.deepcopy(action)
                    bad[g][i][j] = v
                    new = _module_outcome(group, factors, bad, monkeypatch, False)
                    assert new == _module_outcome(group, factors, bad, monkeypatch, True)
                    outcomes.add(new)
    endomorphism = "action matrix of element {} is not an endomorphism of the module"
    assert outcomes == {None, "identity must act trivially",
                        "action is not a homomorphism",
                        *(endomorphism.format(g) for g in range(4))}
    # [[1, 0], [1, 3]] is no endomorphism of Z/2 x Z/4: the all-pairs check
    # alone accepted this involution, on an action that is not well defined
    c2 = FiniteGroup.cyclic(2)
    loose = {0: [[1, 0], [0, 1]], 1: [[1, 0], [1, 3]]}
    for all_pairs in (True, False):
        assert _module_outcome(c2, factors, loose, monkeypatch, all_pairs) == \
            endomorphism.format(1)
    # this C3 action passes rho(g) rho(s) = rho(gs) for the one generator
    # s = 1, and fails the all-pairs check; it is no endomorphism either
    c3 = FiniteGroup.cyclic(3)
    loose = {0: [[1, 0], [0, 1]], 1: [[1, 1], [1, 2]], 2: [[0, 1], [3, 1]]}
    for all_pairs in (True, False):
        assert _module_outcome(c3, factors, loose, monkeypatch, all_pairs) == \
            endomorphism.format(1)


def _raises(check, *args):
    try:
        check(*args)
    except FixtureError as exc:
        return str(exc).split(" at (")[0]
    return None


def test_mu_and_cyclotomic_checks_use_every_generator():
    # non-cyclic domains, and maps that respect the first generator's
    # cosets but are homomorphisms only up to a twist on the others
    c2xc6 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(6))
    assert len(c2xc6.generators()) == 2
    first = set(c2xc6.subgroup_closure(c2xc6.generators()[:1]))
    hom = {g: pow(3, g % 6, 7) for g in range(12)}  # (x, y) -> 3^y mod 7
    twisted = {g: hom[g] * (1 if g in first else 3) % 7 for g in range(12)}
    cases = [hom, twisted] + [{**m, g: v} for m in (hom, twisted)
                              for g in range(12) for v in range(1, 7)]
    outcomes = set()
    for mu in cases:
        new = _raises(arithdata._check_mu_action, c2xc6, mu, 7)
        assert new == _raises(oracles.mu_action_all_pairs, c2xc6, mu, 7)
        outcomes.add(new)
    assert _raises(arithdata._check_mu_action, c2xc6, twisted, 7) is not None
    assert outcomes == {None, "muL action is not a homomorphism"}

    # (Z/15)^x = <2> x <7> onto C4 through the discrete log of a mod 5
    c4, f = FiniteGroup.cyclic(4), 15
    units = [a for a in range(1, f) if gcd(a, f) == 1]
    log = {pow(2, k, 5): k for k in range(4)}
    hom = {a: log[a % 5] for a in units}
    span = {pow(2, k, f) for k in range(4)}
    twisted = {a: (hom[a] + (a not in span)) % 4 for a in units}
    cases = [hom, twisted] + [{**m, a: g} for m in (hom, twisted)
                              for a in units for g in range(4)]
    outcomes = set()
    for mp in cases:
        new = _raises(arithdata._check_cyclotomic_map, c4, f, mp, units)
        assert new == _raises(oracles.cyclotomic_map_all_pairs, c4, f, mp, units)
        outcomes.add(new)
    assert _raises(arithdata._check_cyclotomic_map, c4, f, twisted, units) is not None
    assert outcomes == {None, "cyclotomic map is not a homomorphism"}
