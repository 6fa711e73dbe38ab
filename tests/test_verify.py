"""Verdict machinery: default runs, fault injection, screening, oracles."""

import copy
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skv import rednorm, verify
from skv.arithdata import ExtensionFixture, PlaceSets, mu_tate_annihilators
from skv.characters import CharacterTable, irreducibles_monomial
from skv.cyclotomic import Cyclo
from skv.engine import ThetaElement
from skv.errors import InternalCheckError, SkvError
from skv.grouprings import CentralElement, GroupRingElement
from skv.groups import named_group
from skv.rednorm import reduced_norm
from skv.verify import (Verdict, _bounded_nr_search, _integrality_failure,
                        _integrality_tier,
                        check_brumer, check_brumer_stark_necessary,
                        check_negative_r, check_theorem_sku_maxord,
                        check_theorem_stickelberger_int, default_sets,
                        exceptional_prime_screening)

from conftest import fixture_path, load_fixture_json
from oracles import relative_class_number_qzeta, run_all

EXPECTED_STATUS = {
    "q": {"theorem-stickelberger-int": "verified",
          "theorem-sku-maxord": "verified",
          "conjecture-brumer": "verified",
          "brumer-stark-necessary": "verified",
          "negative-r-int": "verified"},
    "s3c2": {"theorem-stickelberger-int": "verified",
             "theorem-sku-maxord": "verified",
             "conjecture-brumer": "inconclusive",
             "brumer-stark-necessary": "verified",
             "negative-r-int": "inconclusive"},
}


def test_verdict_guards():
    with pytest.raises(SkvError):
        Verdict("x", "maybe")
    v = Verdict("x", "verified")
    assert bool(v) and v.to_json()["status"] == "verified"
    assert not Verdict("x", "falsified")


def test_run_all_small_fixtures(fixtures):
    for name in ("q", "q_i", "q_zeta3", "q_sqrt_m5"):
        verdicts = run_all(fixtures[name])
        assert [v.check_id for v in verdicts] == [
            "theorem-stickelberger-int", "theorem-sku-maxord",
            "conjecture-brumer", "brumer-stark-necessary", "negative-r-int"]
        for v in verdicts:
            assert v.status == "verified", (name, v.check_id, v.notes)


def test_run_all_expected_statuses(fixtures):
    for name, want in EXPECTED_STATUS.items():
        got = {v.check_id: v.status for v in run_all(fixtures[name])}
        assert got == want


def test_verdict_invariants_hold(fixtures):
    for name in ("q", "q_i", "s3c2"):
        for v in run_all(fixtures[name]):
            if v.status == "falsified":
                assert v.witnesses
            if v.status == "inconclusive":
                assert v.notes


def test_default_sets(fixtures):
    sets = default_sets(fixtures["q_i"])
    assert sets.S == ["2", "inf"] and len(sets.T) == 1
    # no finite pool at all leaves nothing to choose
    obj = copy.deepcopy(load_fixture_json("q"))
    obj["places"] = [p for p in obj["places"] if p.get("infinite")]
    assert default_sets(ExtensionFixture(obj)) is None


def test_stickelberger_inconclusive_when_not_admissible(fixtures):
    fix = fixtures["q_i"]
    v = check_theorem_stickelberger_int(fix, PlaceSets(["inf"], ["5"]))
    assert v.status == "inconclusive"
    assert any("admissibility" in n for n in v.notes)


def _tampered_s3c2(t_labels, chi_index, j_key, value):
    """s3c2 loaded with one theta source value replaced."""
    obj = load_fixture_json("s3c2")
    for src in obj["subextensionThetas"]:
        if src["chiIndex"] == chi_index and \
                sorted(lab.split("/")[0] for lab in src["tPrimeLabels"]) \
                == sorted(set(t_labels)):
            src["values"][j_key] = value.to_json()
    return ExtensionFixture(obj)


def test_fault_injection_stickelberger(fixtures):
    fix = fixtures["s3c2"]
    sets = default_sets(fix)
    assert sets is not None and sets.T == ["q5"]
    # an odd numerator breaks the half-integer product coefficients
    bad = _tampered_s3c2(["q5"], 0, "0", Cyclo.rational(5))
    v = check_theorem_stickelberger_int(bad, sets)
    assert v.status == "falsified"
    witness = v.witnesses[0]["membership"]["witness"]
    assert witness["chiIndex"] == 0
    # a clean run on the same sets stays verified
    assert check_theorem_stickelberger_int(fix, sets).status == "verified"


def test_fault_injection_sku():
    # poison L(0)# through the untruncated (T empty) source batch
    bad = _tampered_s3c2([], 1, "0", Cyclo.rational(Fraction(2, 7)))
    v = check_theorem_sku_maxord(bad, ["inf"])
    assert v.status == "falsified"
    assert "membership" in v.witnesses[0] or "failure" in v.witnesses[0]


def test_fault_injection_brumer_and_brumer_stark():
    obj = copy.deepcopy(load_fixture_json("q_i"))
    # replace the trivial class group by Z/5 with conjugation acting as -1;
    # theta-derived elements act as e - j, which does not kill it
    obj["classGroups"] = [{"setT": ["5"], "p": 5, "factors": [5],
                           "action": {"0": [[1]], "1": [[4]]}}]
    fix = ExtensionFixture(obj)
    v = check_brumer(fix, ["inf", "2"])
    assert v.status == "falsified"
    assert "annihilation" in v.witnesses[0]
    v2 = check_brumer_stark_necessary(fix, ["inf", "2"])
    assert v2.status == "falsified"


def test_fault_injection_negative_r(fixtures, monkeypatch):
    fix = fixtures["q_i"]
    real = check_negative_r(fix, ["inf", "2"], -1)
    assert real.status == "verified"

    def bogus(f, r):
        return {"w": 24,
                "generators": [GroupRingElement.scalar(f.group,
                                                       Fraction(1, 7))],
                "action": {0: 1, 1: 1}}

    monkeypatch.setattr("skv.verify.mu_tate_annihilators", bogus)
    v = check_negative_r(fix, ["inf", "2"], -1)
    assert v.status == "falsified"
    assert "annihilator" in v.witnesses[0]


def _first_failure_per_annihilator(fix, th, r):
    """Reference witness: the first annihilator x whose nr(x) * theta
    fails, judged by the maximal order and then by the ZG coefficients
    of the product itself."""
    labels = fix.group.labels
    for x in mu_tate_annihilators(fix, r)["generators"]:
        failure = _integrality_failure(reduced_norm([[x]], fix.table) * th.central,
                                       fix.group.is_abelian())
        if failure is not None:
            tag = _annihilator_tag(x, labels)
            return {"annihilator": tag, **failure}
    return None


def _annihilator_tag(x, labels) -> str:
    """The report's name of an annihilator, each coefficient written as
    "Cyclo(q)", e.g. "Cyclo(24)*e"."""
    return " + ".join(f"Cyclo({c})*{labels[g]}" for g, c in x.items())


@pytest.mark.parametrize("fault", ["idempotent", "seventh"])
def test_negative_r_falsifies_a_non_integral_theta(fault, monkeypatch):
    fix = ExtensionFixture.load(fixture_path("q_zeta23"))
    S, r = fix.minimal_s(), -1
    real = verify.theta(fix, PlaceSets(S, [], r))
    table = fix.table
    if fault == "idempotent":
        # e_1 = N_G / |G|: integral components, ZG coefficients 1/22
        comps = [Cyclo.one() if i == table.trivial_index() else Cyclo.zero()
                 for i in range(len(table))]
        central = CentralElement(table, comps)
    else:
        central = real.central * Fraction(1, 7)
    bad = ThetaElement(central, S, [], r, "patched")
    monkeypatch.setattr("skv.verify.theta", lambda f, sets: bad)
    v = check_negative_r(fix, S, r)
    want = _first_failure_per_annihilator(fix, bad, r)
    assert v.status == "falsified" and v.witnesses == [want]
    assert ("failure" in want) == (fault == "idempotent")


def _verdict_per_annihilator(fix, th, r):
    """Reference verdict: every annihilator x judged by nr(x) * theta
    itself, by the maximal order and then by its ZG coefficients; the
    first failure falsifies, and otherwise each x is listed as integral."""
    labels = fix.group.labels
    data = mu_tate_annihilators(fix, r)
    witnesses = [{"w": data["w"]}]
    for x in data["generators"]:
        tag = _annihilator_tag(x, labels)
        failure = _integrality_failure(reduced_norm([[x]], fix.table) * th.central,
                                       fix.group.is_abelian())
        if failure is not None:
            return "falsified", [{"annihilator": tag, **failure}]
        witnesses.append({"annihilator": tag, "integral": True})
    return "verified", witnesses


ABELIAN_CYCLOTOMIC = ["q", "q_i", "q_zeta3", "q_sqrt_m5", "q_zeta23"]


def test_abelian_negative_r_matches_the_per_annihilator_reference(monkeypatch):
    kinds = set()
    for name in ABELIAN_CYCLOTOMIC:
        fix = ExtensionFixture.load(fixture_path(name))
        assert fix.group.is_abelian() and fix.cyclotomic is not None
        S, table = fix.minimal_s(), fix.table
        e_1 = CentralElement(table, [Cyclo.one() if i == table.trivial_index()
                                     else Cyclo.zero() for i in range(len(table))])
        # each of these fixtures admits r = -1, -2, -3
        for r in (-1, -2, -3):
            real = verify.theta(fix, PlaceSets(S, [], r))
            # the real theta; one with non-integral components; and e_1,
            # whose components are integral but whose ZG coefficients are not
            for central in (real.central, real.central * Fraction(1, 7), e_1):
                th = ThetaElement(central, S, [], r, "patched")
                monkeypatch.setattr("skv.verify.theta", lambda f, sets, th=th: th)
                v = check_negative_r(fix, S, r)
                assert (v.status, v.witnesses) == _verdict_per_annihilator(fix, th, r)
                if central is real.central:
                    assert v.status == "verified"
                elif v.status == "falsified":
                    kinds.update(v.witnesses[0])
            monkeypatch.undo()
    # both witness kinds occur: a component outside the maximal order, and
    # integral components with a non-integral ZG coefficient
    assert {"membership", "failure"} <= kinds


def test_verified_abelian_negative_r_takes_no_per_annihilator_norm(monkeypatch):
    fix = ExtensionFixture.load(fixture_path("q_zeta23"))
    calls = []
    norm = verify.reduced_norm
    monkeypatch.setattr("skv.verify.reduced_norm",
                        lambda a, table: calls.append(a) or norm(a, table))
    for r in (-1, -2, -3):
        v = check_negative_r(fix, fix.minimal_s(), r)
        assert v.status == "verified" and len(v.witnesses) > 1
    assert calls == []


def test_negative_r_annihilator_tags_keep_the_cyclo_form(fixtures):
    # the report names each coefficient as "Cyclo(q)", as when group-ring
    # coefficients were stored as Cyclo values
    v = check_negative_r(fixtures["q_i"], ["inf", "2"], -1)
    assert v.status == "verified"
    assert v.witnesses == [{"w": 24}, {"annihilator": "Cyclo(24)*e", "integral": True},
                           {"annihilator": "Cyclo(-1)*e + Cyclo(1)*j", "integral": True}]


def test_negative_r_guards(fixtures):
    assert check_negative_r(fixtures["q_i"], ["inf", "2"], 0).status \
        == "inconclusive"
    assert check_negative_r(fixtures["q_i"], ["inf"], -1).status \
        == "inconclusive"
    assert check_negative_r(fixtures["s3c2"], ["inf"], -1).status \
        == "inconclusive"


def test_negative_r_various_fixtures(fixtures):
    assert check_negative_r(fixtures["q"], ["inf", "3", "5"], -1)
    assert check_negative_r(fixtures["q_sqrt_m5"], ["inf", "2", "5"], -3)


def test_exceptional_prime_screening(fixtures):
    rep = exceptional_prime_screening(fixtures["q_i"])
    by_p = {e["p"]: e for e in rep["screened"]}
    assert by_p[2]["exceptional"]
    assert any("p=2" in f for f in by_p[2]["flags"])
    # the wild place at 2 is almost tame (conjugation in decomposition),
    # so no wild flag appears
    assert not any("wild" in f for f in by_p[2]["flags"])
    rep23 = exceptional_prime_screening(fixtures["q_zeta23"])
    entry = rep23["screened"][1]
    assert entry["p"] == 23 and not entry["exceptional"]


def test_screening_wild_not_almost_tame():
    obj = copy.deepcopy(load_fixture_json("q_i"))
    # shrink the decomposition group at 2 is impossible (inertia is all of
    # G), so instead drop conjugation data entirely
    del obj["complexConjugation"]
    fix = ExtensionFixture(obj)
    rep = exceptional_prime_screening(fix)
    assert rep["screened"][0]["p"] == 2
    assert any("almost-tameness unknown" in f
               for f in rep["screened"][0]["flags"])


def test_screening_declared_flag():
    obj = copy.deepcopy(load_fixture_json("q_i"))
    obj["clZetaPFlag"] = [2]
    rep = exceptional_prime_screening(ExtensionFixture(obj))
    assert any("class number" in f for f in rep["screened"][0]["flags"])


def test_screening_reads_a_single_integer_flag():
    obj = copy.deepcopy(load_fixture_json("q_i"))
    for flag, declared in ((2, True), (3, False), ([], False)):
        obj["clZetaPFlag"] = flag
        rep = exceptional_prime_screening(ExtensionFixture(obj))
        assert any("class number" in f for f in rep["screened"][0]["flags"]) == declared


def test_relative_class_number_oracles():
    assert relative_class_number_qzeta(3) == 1
    assert relative_class_number_qzeta(5) == 1
    assert relative_class_number_qzeta(23) == 3


def test_brumer_uses_every_a_s_generator(fixtures):
    v = check_brumer(fixtures["q_zeta3"], ["inf", "3"])
    assert v.status == "verified"
    # class group is trivial: vacuous witness
    assert v.witnesses[0].get("vacuous") is True


def test_sku_sweep_takes_t_sets_with_commas_in_labels():
    # the sweep used to recover T by splitting the generator tag on commas
    obj = load_fixture_json("s3c2")

    def rename(lab):
        base, _, rest = lab.partition("/")
        return ("q7,x" if base == "q7" else base) + ("/" + rest if rest else "")

    for place in obj["places"]:
        place["label"] = rename(place["label"])
    for src in obj["subextensionThetas"]:
        src["tPrimeLabels"] = [rename(lab) for lab in src["tPrimeLabels"]]
    fix = ExtensionFixture(obj)
    v = check_theorem_sku_maxord(fix, ["inf"])
    assert v.status == "verified"
    assert "swept 3 (J, T) combinations over 0 ramified places" in v.notes
    assert not any("sweep gap" in note for note in v.notes)


# -- bounded nr-search ------------------------------------------------------

SEARCH_TABLES = {name: irreducibles_monomial(named_group(name))
                 for name in ("S3", "D4", "Q8")}
SEARCH_TABLES["s3c2"] = ExtensionFixture.load(fixture_path("s3c2")).table


def _eager_nr_search(table, target, height=1, support=2):
    """Reference search: a full reduced norm of every candidate, in the
    order singles then pairs."""
    group = table.group
    values = [c for c in range(-height, height + 1) if c]
    candidates = [{g: Fraction(c)} for g in range(group.order) for c in values]
    if support >= 2:
        candidates += [{a: Fraction(ca), b: Fraction(cb)}
                       for a, b in itertools.combinations(range(group.order), 2)
                       for ca in values for cb in values]
    for coeffs in candidates:
        if reduced_norm([[GroupRingElement(group, coeffs)]], table) == target:
            return {str(g): str(c) for g, c in coeffs.items()}
    return None


def _small_element(table, data):
    """A random group-ring element of support <= 2 and height 1."""
    n = table.group.order
    support = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 max_size=2, unique=True))
    return GroupRingElement(table.group, {
        g: Fraction(data.draw(st.sampled_from([-1, 1]))) for g in support})


def _witness_norm(table, witness):
    elem = GroupRingElement(table.group, {int(g): Fraction(c)
                                          for g, c in witness.items()})
    return reduced_norm([[elem]], table)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SEARCH_TABLES)), st.booleans(), st.data())
def test_lazy_search_matches_eager_reference(name, perturb, data):
    table = SEARCH_TABLES[name]
    target = reduced_norm([[_small_element(table, data)]], table)
    if perturb:
        i = data.draw(st.integers(0, len(table) - 1))
        comps = list(target.components)
        comps[i] = comps[i] + data.draw(st.sampled_from([Cyclo.one(),
                                                         Cyclo.zeta(3)]))
        target = CentralElement(table, comps)
    got = _bounded_nr_search(table, target)
    assert got == _eager_nr_search(table, target)
    if not perturb:
        # the element itself is a candidate, so a realizable target is found
        assert got is not None and _witness_norm(table, got) == target


def test_integrality_tier_certifies_a_realizable_target():
    fix = ExtensionFixture.load(fixture_path("s3c2"))
    assert not fix.group.is_abelian()
    x = reduced_norm([[GroupRingElement(fix.group, {0: Fraction(1),
                                                    5: Fraction(-1)})]],
                     fix.table)
    tier, detail = _integrality_tier(fix, x)
    assert tier == "certified"
    assert _witness_norm(fix.table, detail["nrWitness"]) == x


def test_search_confirms_a_witness_with_the_galois_check(monkeypatch):
    table = SEARCH_TABLES["s3c2"]
    target = reduced_norm([[GroupRingElement(table.group, {1: Fraction(1),
                                                           3: Fraction(1)})]],
                          table)

    def broken(self, comps, context, fills=None):
        raise InternalCheckError(f"{context}: injected")

    monkeypatch.setattr(CharacterTable, "check_galois", broken)
    with pytest.raises(InternalCheckError, match="reduced norm: injected"):
        _bounded_nr_search(table, target)


def test_s3c2_search_rejects_each_candidate_at_a_small_determinant(monkeypatch):
    # the s3c2 target has no witness; 222 of the 288 candidates are
    # rejected by their augmentation sum, which settles the trivial
    # character without a determinant, and the other 66 at the next one
    fix = ExtensionFixture.load(fixture_path("s3c2"))
    counts = {"searches": 0, "norms": 0, "dets": 0}
    active = []
    real_search, real_norm, real_det = (verify._bounded_nr_search,
                                        verify.reduced_norm, rednorm.mat_det)

    def search(*args):
        counts["searches"] += 1
        active.append(True)
        try:
            return real_search(*args)
        finally:
            active.pop()

    def norm(*args):
        counts["norms"] += bool(active)
        return real_norm(*args)

    def det(m):
        counts["dets"] += bool(active)
        return real_det(m)

    monkeypatch.setattr(verify, "_bounded_nr_search", search)
    monkeypatch.setattr(verify, "reduced_norm", norm)
    monkeypatch.setattr(rednorm, "mat_det", det)
    statuses = [v.status for v in run_all(fix)]
    assert statuses == list(EXPECTED_STATUS["s3c2"].values())
    assert counts == {"searches": 1, "norms": 0, "dets": 66}
