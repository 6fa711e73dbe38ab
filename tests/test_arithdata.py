"""Fixture validation, set hypotheses, local factors, twisted torsion data."""

import copy
from fractions import Fraction

import pytest

from skv.arithdata import (ExtensionFixture, PlaceData, PlaceSets,
                           check_admissible, check_hyp_ST, delta_element,
                           euler_element, generate_A_S, local_factor,
                           mu_tate_annihilators, mu_tate_order)
from skv.cyclotomic import Cyclo
from skv.errors import FixtureError
from skv.grouprings import GroupRingElement

from conftest import load_fixture_json
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


def test_generate_a_s_built_once_per_set_and_bound():
    fix = ExtensionFixture(load_fixture_json("q_zeta3"))
    first = generate_A_S(fix, ["inf", "3"], 2)
    assert generate_A_S(fix, ["3", "inf", "3"], 2) is first
    assert generate_A_S(fix, ["inf", "3"], 1) is not first


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
    # negative r falls back to the standing hypotheses
    assert check_admissible(fix, PlaceSets(["inf", "2"], ["5"], r=-1))


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
