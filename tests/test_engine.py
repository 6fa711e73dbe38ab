"""Stickelberger element assembly and Sinnott-Kurihara generators."""

import json
from fractions import Fraction

import pytest

import skv.arithdata
import skv.engine
import skv.grouprings
import skv.lvalues
from skv.arithdata import ExtensionFixture, PlaceSets
from skv.characters import CharacterTable
from skv.cli import main as cli_main
from skv.cyclotomic import Cyclo
from skv.errors import FixtureError, InternalCheckError
from skv.engine import (_validate_parity, inertia_norm_product, l_zero_sharp,
                        sku_prime_generators, theta, theta_abelian,
                        theta_monomial, theta_with_inertia_norms,
                        translated_place_labels, u_prime_generators,
                        u_prime_place_generators)
from skv.grouprings import CentralElement, GroupRingElement, minus_idempotent
from skv.verify import default_sets

from conftest import fixture_path, ladder_fixture_writer, load_fixture_json
from oracles import local_product_per_character, run_all, theta_per_character


def _coeffs(fix, theta):
    elem = theta.central.to_group_ring()
    return {fix.group.labels[g]: c for g, c in elem.items()}


def test_theta_q_zeta3_oracle(fixtures):
    fix = fixtures["q_zeta3"]
    th = theta_abelian(fix, PlaceSets(["inf", "3"], []))
    assert _coeffs(fix, th) == {"e": Fraction(1, 6), "s": Fraction(-1, 6)}
    th7 = theta_abelian(fix, PlaceSets(["inf", "3"], ["7"]))
    assert _coeffs(fix, th7) == {"e": Fraction(-1), "s": Fraction(1)}


def test_theta_q_i_oracle(fixtures):
    fix = fixtures["q_i"]
    th = theta_abelian(fix, PlaceSets(["inf", "2"], []))
    assert _coeffs(fix, th) == {"e": Fraction(1, 4), "j": Fraction(-1, 4)}
    th5 = theta_abelian(fix, PlaceSets(["inf", "2"], ["5"]))
    # 5 splits, so delta_T(0) = 1 - 5
    assert _coeffs(fix, th5) == {"e": Fraction(-1), "j": Fraction(1)}


def test_theta_q_zeta23_against_classical_formula(fixtures):
    """Independent oracle: theta_S(0) = sum_a (1/2 - a/23) sigma_a^(-1),
    multiplied by 1 - 29 sigma_29^(-1) for T = {29}."""
    fix = fixtures["q_zeta23"]
    group = fix.group
    # sigma_a = s5^dlog(a) with primitive root 5 mod 23
    dlog = {}
    x = 1
    for k in range(22):
        dlog[x] = k
        x = (x * 5) % 23
    classical = GroupRingElement(group)
    for a in range(1, 23):
        g = group.inverse(dlog[a])
        classical = classical + GroupRingElement(
            group, {g: Fraction(1, 2) - Fraction(a, 23)})
    t_factor = GroupRingElement.basis(group, 0) - GroupRingElement(
        group, {group.inverse(dlog[29 % 23]): Fraction(29)})
    want = t_factor * classical
    th = theta_abelian(fix, PlaceSets(["inf", "23"], ["29"]))
    assert th.central.to_group_ring() == want
    # and these coefficients are integers (checked again downstream)
    assert want.is_integral()


def test_theta_rejects_bad_sets(fixtures):
    fix = fixtures["q_zeta3"]
    with pytest.raises(FixtureError):
        theta_abelian(fix, PlaceSets(["inf", "nope"], []))
    with pytest.raises(FixtureError):
        theta_abelian(fixtures["s3c2"], PlaceSets(["inf"], []))


def test_translated_place_labels(fixtures):
    fix = fixtures["s3c2"]
    group = fix.group
    # over the whole group a place gives a single label
    assert translated_place_labels(fix, list(range(group.order)), ["q5"]) \
        == ["q5/0"]
    # over the trivial subgroup the count is the number of cosets of the
    # decomposition group
    d = fix.place("q5").decomposition
    labels = translated_place_labels(fix, [0], ["q5"])
    assert len(labels) == group.order // len(d)


def test_theta_monomial_from_fixture_sources(fixtures):
    fix = fixtures["s3c2"]
    th = theta_monomial(fix, PlaceSets(["inf"], []))
    assert th.provenance == "fixture:sources"
    elem = th.central.to_group_ring()
    assert all(type(c) is Fraction for _, c in elem.items()) and not elem.is_zero()
    th5 = theta_monomial(fix, PlaceSets(["inf"], ["q5"]))
    assert th5.central != th.central


def test_theta_monomial_source_validation(fixtures):
    sets = PlaceSets(["inf"], [])
    with pytest.raises(FixtureError, match="no theta source"):
        theta_monomial(fixtures["s3c2"], PlaceSets(["inf"], ["q5", "q7"], -1))

    # sources that load but do not fit the table (schema and missing-field
    # errors are rejected on load, see test_arithdata)
    def with_first_source(change):
        obj = load_fixture_json("s3c2")
        change(obj["subextensionThetas"][0])
        return ExtensionFixture(obj)

    with pytest.raises(FixtureError, match="subgroup"):
        theta_monomial(with_first_source(lambda src: src.update(uElems=[0])),
                       sets)
    with pytest.raises(FixtureError, match="cover"):
        theta_monomial(with_first_source(
            lambda src: src.update(values={"0": src["values"]["0"]})), sets)


def test_l_zero_sharp_is_untruncated_theta(fixtures):
    for name in ("q_zeta3", "q_i"):
        fix = fixtures[name]
        th = theta_abelian(fix, PlaceSets(fix.infinite_labels(), []))
        assert l_zero_sharp(fix) == th.central
    fix = fixtures["s3c2"]
    th = theta_monomial(fix, PlaceSets(["inf"], []))
    assert l_zero_sharp(fix) == th.central


def test_u_prime_generators(fixtures):
    fix = fixtures["q_zeta3"]
    local = u_prime_place_generators(fix, "3")
    tags = [t for t, _ in local]
    assert tags == ["3:nr(N_I)", "3:nr(1-eps*phi^-1)"]
    # full inertia: N_I has component |G| at trivial, 0 elsewhere
    assert [c.to_fraction() for c in local[0][1].components] == [2, 0]
    gs = u_prime_generators(fix, ["inf", "3"])
    assert len(gs.generators) == 2 and not gs.truncated
    with pytest.raises(FixtureError):
        u_prime_generators(fix, ["inf"])


def test_sku_prime_generators_abelian_integral(fixtures):
    fix = fixtures["q_zeta3"]
    gs = sku_prime_generators(fix, ["inf", "3"], bound=2)
    assert gs.generators and gs.truncated
    for tag, gen in gs.generators:
        elem = gen.to_group_ring()
        assert all(type(c) is Fraction for _, c in elem.items())
        assert elem.is_integral(), tag


def test_theta_with_inertia_norms(fixtures):
    fix = fixtures["q_zeta3"]
    sets = PlaceSets(["inf", "3"], ["7"])
    # J empty: just theta itself
    plain = theta_with_inertia_norms(fix, [], sets)
    assert plain == theta_abelian(fix, sets).central
    # J = {3}: inertia is all of G, the norm product lives at the trivial
    # character only and theta loses its Euler factor at 3
    out = theta_with_inertia_norms(fix, ["3"], sets)
    norm = inertia_norm_product(fix, ["3"])
    assert norm.components[1].is_zero()
    th_no3 = theta_abelian(fix, PlaceSets(["inf"], ["7"]))
    assert out == norm * th_no3.central
    with pytest.raises(FixtureError):
        theta_with_inertia_norms(fix, ["5"], sets)  # 5 is unramified


def test_validate_parity_rejects_nonzero_forced_component(fixtures):
    # at r = 0 the even non-trivial characters of Q(zeta_23) must vanish,
    # at r = -1 the odd character of Q(i)
    for name, S, r in (("q_zeta23", ["inf", "23"], 0), ("q_i", ["inf", "2"], -1)):
        fix = fixtures[name]
        table = fix.table
        th = theta_abelian(fix, PlaceSets(S, [], r))
        _validate_parity(fix, th.central.components, r, "test",
                         table.trivial_index())
        ones = [Cyclo.one()] * len(table)
        with pytest.raises(InternalCheckError, match="parity forces"):
            _validate_parity(fix, ones, r, "test", table.trivial_index())


def test_theta_with_inertia_norms_checks_vanishing(fixtures, monkeypatch):
    fix = fixtures["q_zeta3"]
    table = fix.table
    ones = CentralElement(table, [Cyclo.one()] * len(table))
    monkeypatch.setattr("skv.engine.inertia_norm_product", lambda f, J: ones)
    sets = PlaceSets(["inf", "3"], ["7"])
    # J empty: H_J is trivial and nothing is forced to vanish
    theta_with_inertia_norms(fix, [], sets)
    with pytest.raises(InternalCheckError, match="must vanish at character 1"):
        theta_with_inertia_norms(fix, ["3"], sets)


def test_theta_abelian_detects_local_factor_mismatch():
    # a residue norm of 49 at the split prime 7 changes the local factor at
    # 7 but not the Dirichlet Euler factor, so the assemblies disagree; the
    # loader rejects such a fixture, so the norm is changed after loading
    fix = ExtensionFixture(load_fixture_json("q_zeta3"))
    fix.place("7").residue_norm = 49
    theta_abelian(fix, PlaceSets(["inf", "3"], ["5"]))
    with pytest.raises(InternalCheckError, match="assembly mismatch"):
        theta_abelian(fix, PlaceSets(["inf", "3"], ["7"]))


def _computed_characters(table) -> list[int]:
    return [i for i in range(len(table)) if i not in table.galois_fills()]


def test_theta_abelian_checks_the_factor_where_the_l_value_vanishes(monkeypatch):
    # at r = 0, L(0, chi) = 0 at every even non-trivial chi, so the two
    # products L * factor agree there whatever the local factor is; the
    # check compares the factors themselves, and a doubled delta factor at
    # one computed such character of q_zeta23 must fail it.  The factor is
    # doubled on the character's whole Galois orbit, so that the delta
    # product stays Galois-equivariant and only the factor check can fail
    fix = ExtensionFixture(load_fixture_json("q_zeta23"))
    table = fix.table
    odd = skv.grouprings.minus_idempotent(table, fix.j).components
    even = [i for i in _computed_characters(table)
            if odd[i].is_zero() and i != table.trivial_index()]
    target = even[0]
    orbit = next(o for o in table.galois_orbits() if target in o)
    assert len(orbit) > 2 and target == orbit[0]
    real = skv.arithdata.local_factor

    def perturbed(fix_, place, chi_index, r, kind):
        value = real(fix_, place, chi_index, r, kind)
        return value * 2 if chi_index in orbit and kind == "delta_T" else value

    monkeypatch.setattr(skv.arithdata, "local_factor", perturbed)
    sets = default_sets(fix)
    assert sets.r == 0 and sets.T
    with pytest.raises(InternalCheckError,
                       match=f"theta assembly mismatch at character {target}:"):
        theta_abelian(fix, sets)


@pytest.mark.parametrize("where, check", [("L_at_nonpositive", "not Galois-equivariant"),
                                          ("euler_delta_factor", "assembly mismatch"),
                                          ("local_factor", "not Galois-equivariant")])
def test_theta_abelian_rejects_each_corrupted_computed_component(where, check, monkeypatch):
    # q_zeta23 has Galois orbits of sizes 1, 1, 10 and 10: six characters
    # are computed, each orbit's first member and one partner.  A value
    # outside Q(chi), added at any one of them in any of the three
    # ingredients, must fail a self-check: the Galois check of theta or of
    # the local product, or the comparison of the Dirichlet factor with
    # the local product.  At r = -1 no Euler-delta factor
    # vanishes (at r = 0 the Euler factor at 23 kills the trivial
    # component, whatever its L-value), so each corruption changes theta
    fix = ExtensionFixture(load_fixture_json("q_zeta23"))
    default = default_sets(fix)
    theta_abelian(fix, PlaceSets(default.S, default.T, -1))  # passes uncorrupted
    computed = _computed_characters(fix.table)
    assert len(computed) == 6
    owner = skv.arithdata if where == "local_factor" else skv.engine
    real = getattr(owner, where)
    for target in computed:
        fix = ExtensionFixture(load_fixture_json("q_zeta23"))  # no memo of theta
        default = default_sets(fix)
        sets = PlaceSets(default.S, default.T, -1)
        s_fin = [lab for lab in sets.S if not fix.place(lab).infinite]
        assert all(not (e * d).is_zero() for e, d in zip(
            local_product_per_character(fix, s_fin, -1, "euler_S"),
            local_product_per_character(fix, sets.T, -1, "delta_T")))
        if where == "local_factor":
            def corrupted(fix_, place, chi_index, r, kind, target=target):
                value = real(fix_, place, chi_index, r, kind)
                return value + Cyclo.zeta(4) if chi_index == target else value
        else:
            # called once per computed character, in table order
            count = iter(range(len(computed)))

            def corrupted(*args, target=computed.index(target), count=count):
                value = real(*args)
                return value + Cyclo.zeta(4) if next(count) == target else value
        monkeypatch.setattr(owner, where, corrupted)
        with pytest.raises(InternalCheckError, match=check):
            theta_abelian(fix, sets)
        monkeypatch.undo()


def test_theta_and_local_products_match_the_per_character_assembly(fixtures, tmp_path):
    # every theta and local product that check all builds, on every shipped
    # abelian fixture with cyclotomic data and on two ladder fields, equals
    # the per-character assembly component by component, order included
    write = ladder_fixture_writer()
    fields = [ExtensionFixture.load(fixture_path(name))
              for name, fix in fixtures.items() if skv.engine._computed_path(fix)]
    fields += [ExtensionFixture.load(write(p, str(tmp_path))) for p in (31, 47)]
    assert len(fields) == 7
    for fix in fields:
        run_all(fix)
        thetas = [key for key in fix._memo if key[0] == "theta"]
        products = [key for key in fix._memo if key[0] == "_local_product"]
        assert thetas and products
        for _, s, t, r in thetas:
            assert _exact(fix._memo["theta", s, t, r].central) == \
                _exact(theta_per_character(fix, PlaceSets(s, t, r)))
        for key in products:
            assert _exact(fix._memo[key]) == _exact(local_product_per_character(fix, *key[1:]))


def _exact(x) -> list[tuple]:
    comps = x.components if isinstance(x, CentralElement) else x
    return [(c.order, c.num, c.den) for c in comps]


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_theta_is_built_once_per_s_t_and_r(monkeypatch):
    fix = ExtensionFixture(load_fixture_json("q_zeta3"))
    builds = _counting(monkeypatch, skv.engine, "theta_abelian")
    checks = _counting(monkeypatch, CharacterTable, "check_galois")

    def galois():
        return [args for args in checks if args[2] == "theta_abelian"]
    th = theta(fix, PlaceSets(["inf", "3"], ["7"]))
    assert theta(fix, PlaceSets(["3", "inf"], ["7"])) is th
    assert len(builds) == 1 and len(galois()) == 1
    # another r or T is another theta, with its own self-checks
    assert theta(fix, PlaceSets(["inf", "3"], ["7"], -1)) is not th
    assert theta(fix, PlaceSets(["inf", "3"], [])) is not th
    assert len(builds) == 3 and len(galois()) == 3
    assert th.central == theta_abelian(fix, PlaceSets(["inf", "3"], ["7"])).central


def test_check_all_q_zeta23_evaluates_each_l_value_once(monkeypatch):
    # the 6 computed of the 22 characters, at r = 0 and r = -1
    skv.lvalues._primitive_L.cache_clear()
    calls = _counting(monkeypatch, skv.lvalues, "_bernoulli_sum")
    fix = ExtensionFixture(load_fixture_json("q_zeta23"))
    assert [v.status for v in run_all(fix)] == ["verified"] * 5
    assert len(_computed_characters(fix.table)) == 6
    assert len(calls) == 12
    assert len({(n, f, order, tuple(sorted(powers)))
                for n, f, order, powers in calls}) == 12


def test_check_all_q_zeta23_builds_each_local_product_and_transform_once(monkeypatch):
    fix = ExtensionFixture(load_fixture_json("q_zeta23"))
    requests = _counting(monkeypatch, skv.arithdata, "_local_product")
    factors = _counting(monkeypatch, skv.arithdata, "local_factor")
    transforms = _counting(monkeypatch, CentralElement, "to_group_ring")
    trips = _counting(monkeypatch, CentralElement, "_gives_back")
    minus = _counting(monkeypatch, skv.engine, "minus_idempotent")
    eps = _counting(monkeypatch, skv.engine, "idempotent_eps")
    built = []
    real_memo = skv.grouprings.memo

    def counting_memo(owner, key, build):
        def counted():
            built.append(key)
            return build()
        return real_memo(owner, key, counted)

    monkeypatch.setattr(skv.grouprings, "memo", counting_memo)
    assert [v.status for v in run_all(fix)] == ["verified"] * 5
    # the parity check asks for (1 - j)/2 at each theta, and the sweep for
    # epsilon of H_J at each (J, T); the table builds each key once
    names = ("minus_idempotent", "idempotent_eps")
    idempotents = [key for key in built if key[0] in names]
    kept = {key for key in fix.table._memo if key[0] in names}
    assert len(idempotents) == len(kept) == 3 and set(idempotents) == kept
    assert len(minus) == 9 and len(eps) == 6
    products = [key[1:] for key in fix._memo if key[0] == "_local_product"]
    # sku and brumer each build A_S, and so each request its three delta_T(0)
    assert len(requests) == 24 and len(products) == 8
    # each product is built once: one factor per place and computed character
    assert len(factors) == len(_computed_characters(fix.table)) * sum(
        len(labels) for labels, _, _ in products) == 36
    assert len(transforms) == 32 and len(trips) == 16
    # the memo key is the computed components, None at each filled one
    keys = {x._key() for (x,) in transforms}
    assert keys == {key[1] for key in fix.table._memo if key[0] == "to_group_ring"}
    assert len(keys) == 16


def test_check_all_q_zeta23_makes_galois_images_only_for_the_reported_theta(monkeypatch):
    # the only theta whose filled components are read is the witness of
    # theorem-stickelberger-int: 16 images, one per filled character; the
    # other 138 calls are the self-checks, once per orbit, 18 of them the
    # idempotents'.  The three idempotents, (1 - j)/2 and two epsilon_H,
    # are read only at computed characters (202 calls when they were read
    # whole, 1856 when every element made its images and every check ran
    # over every component, before the idempotents were built per orbit)
    fix = ExtensionFixture(load_fixture_json("q_zeta23"))
    images = _counting(monkeypatch, Cyclo, "galois")
    assert [v.status for v in run_all(fix)] == ["verified"] * 5
    assert len(fix.table.galois_fills()) == 16
    assert len(images) == 154
    thetas = [fix._memo[key].central for key in fix._memo if key[0] == "theta"]
    read = [x for x in thetas if "components" in vars(x)]
    assert len(thetas) > 1 and len(read) == 1 and read[0].fills
    assert "components" not in vars(minus_idempotent(fix.table, fix.j))


def test_each_main_call_builds_its_own_memos(monkeypatch, capsys):
    factors = _counting(monkeypatch, skv.arithdata, "local_factor")
    trips = _counting(monkeypatch, CentralElement, "_gives_back")
    path = fixture_path("q_zeta23")
    counts, reports = [], []
    for _ in range(2):
        assert cli_main(["check", "all", "--fixture", path]) == 0
        counts.append((len(factors), len(trips)))
        reports.append(capsys.readouterr().out)
    assert counts == [(36, 16), (72, 32)]
    assert reports[0] == reports[1]


def test_check_all_takes_nr_of_each_inertia_norm_once_per_place(monkeypatch):
    fix = ExtensionFixture(load_fixture_json("q_sqrt_m5"))
    calls = _counting(monkeypatch, skv.engine, "reduced_norm")
    assert [v.status for v in run_all(fix)] == ["verified"] * 5
    norms = {lab: GroupRingElement.norm_element(fix.group, fix.place(lab).inertia)
             for lab in fix.ramified_labels()}
    # the places 2 and 5 share their inertia group, so N_I comes twice
    taken = [a[0][0] for a, _ in calls if a[0][0] in norms.values()]
    assert len(norms) == 2 and len(taken) == 2
    assert sorted(key[1] for key in fix._memo if key[0] == "_inertia_norm") == sorted(norms)
    assert inertia_norm_product(fix, sorted(norms)) == \
        fix._memo["_inertia_norm", "2"] * fix._memo["_inertia_norm", "5"]
    assert len(calls) == 4


def test_check_all_s3c2_parses_each_theta_source_value_once(monkeypatch, capsys):
    # loading validates the 24 values of the fixture's theta sources and
    # keeps them parsed; theta_monomial reads those (48 parses when it
    # parsed the sources again)
    calls = []
    real = Cyclo.from_json
    monkeypatch.setattr(Cyclo, "from_json",
                        staticmethod(lambda obj: calls.append(obj) or real(obj)))
    assert cli_main(["check", "all", "--fixture", fixture_path("s3c2")]) == 2
    sources = load_fixture_json("s3c2")["subextensionThetas"]
    assert len(calls) == sum(len(src["values"]) for src in sources) == 24
    fix = ExtensionFixture(load_fixture_json("s3c2"))
    assert fix.theta_values == [{int(j): real(v) for j, v in src["values"].items()}
                                for src in sources]


def test_non_multiplicative_cyclotomic_map_exits_3(tmp_path, capsys):
    obj = load_fixture_json("q_zeta23")
    mp = obj["cyclotomic"]["map"]
    mp["2"], mp["3"] = mp["3"], mp["2"]
    path = tmp_path / "q_zeta23_bad_map.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["check", "all", "--fixture", str(path)]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert "homomorphism" in captured.err and captured.err.count("\n") == 1
    # changed after load, the map reaches the characters, which are built
    # once per fixture but only once they pass their multiplicativity check
    fix = ExtensionFixture(load_fixture_json("q_zeta23"))
    fix.cyclotomic["map"][2], fix.cyclotomic["map"][3] = \
        fix.cyclotomic["map"][3], fix.cyclotomic["map"][2]
    for _ in range(2):
        with pytest.raises(FixtureError, match="not multiplicative"):
            theta(fix, PlaceSets(["inf", "23"], []))
    assert not [key for key in fix._memo
                if key == "_dirichlet_for_table" or key[0] == "theta"]
