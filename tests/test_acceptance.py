"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single pass/fail line through the terminal-summary hook
and enforces its runtime budget.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import mpmath

from skv.arithdata import ExtensionFixture, PlaceSets, mu_tate_annihilators
from skv.characters import irreducibles_monomial
from skv.cli import main as cli_main
from skv.cyclotomic import Cyclo
from skv.engine import theta_abelian
from skv.groups import named_group
from skv.grouprings import GroupRingElement, idempotent_eps
from skv.linalg import mat_mul
from skv.lvalues import (DirichletCharacter, L_at_nonpositive, characters_mod,
                         generalized_bernoulli)
from skv.rednorm import (FittingInvariant, annihilation_check,
                         certified_h_elements, reduced_norm, star_adjoint)
from skv.verify import (check_theorem_sku_maxord,
                        check_theorem_stickelberger_int, default_sets)

from conftest import fixture_path, load_fixture_json, record_acceptance
from oracles import (exponent_at, inner, is_odd, is_trivial,
                     relative_class_number_qzeta, sigma_inverse,
                     sigma_isomorphism, subgroup_h_r, trivial_character)


@contextmanager
def criterion(number: int, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        record_acceptance(f"criterion {number}: FAIL "
                          f"({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    record_acceptance(f"criterion {number}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"


def test_criterion_1_exact_l_values():
    with criterion(1, 5.0):
        chi_m3 = DirichletCharacter(3, 2, {1: 0, 2: 1})
        chi_m4 = DirichletCharacter(4, 2, {1: 0, 3: 1})
        triv = trivial_character(1)
        assert L_at_nonpositive(0, chi_m3).to_fraction() == Fraction(1, 3)
        assert L_at_nonpositive(0, chi_m4).to_fraction() == Fraction(1, 2)
        assert L_at_nonpositive(0, triv).to_fraction() == Fraction(-1, 2)
        assert L_at_nonpositive(-1, triv).to_fraction() == Fraction(-1, 12)
        for f in range(3, 101):
            for chi in characters_mod(f):
                if is_trivial(chi) or is_odd(chi) or not chi.is_primitive():
                    continue
                assert generalized_bernoulli(1, chi).is_zero()
        # 50-digit Hurwitz oracle, agreement to 1e-30
        mpmath.mp.dps = 50
        for chi, r, want in ((chi_m3, 0, Fraction(1, 3)),
                             (chi_m4, 0, Fraction(1, 2)),
                             (triv, 0, Fraction(-1, 2)),
                             (triv, -1, Fraction(-1, 12))):
            f = chi.modulus
            num = mpmath.mpf(0)
            for a in range(1, f + 1):
                e = exponent_at(chi, a)
                if e is None:
                    continue
                sign = mpmath.mpf(1 if e == 0 else -1)  # quadratic values
                num += sign * mpmath.zeta(r, mpmath.mpf(a) / f)
            num *= mpmath.mpf(f) ** (-r)
            target = mpmath.mpf(want.numerator) / want.denominator
            assert abs(num - target) < mpmath.mpf("1e-30")


def test_criterion_2_stickelberger_shadow(fixtures):
    with criterion(2, 10.0):
        fix = fixtures["q_zeta23"]
        th = theta_abelian(fix, PlaceSets(["inf", "23"], ["47"]))
        elem = th.central.to_group_ring()
        assert elem.is_integral()
        module = fix.class_groups[0]["module"]
        assert module.factors == [3]
        ann = annihilation_check(
            FittingInvariant([th.central], quadratic=False, zero=False),
            module, certified_h_elements(fix.table))
        assert ann.ok
        assert relative_class_number_qzeta(23) == 3


def test_criterion_3_stickelberger_int_suite(fixtures, monkeypatch):
    abelian = ["q", "q_i", "q_zeta3", "q_sqrt_m5", "q_zeta23"]
    t0 = time.perf_counter()
    ok = True
    try:
        for name in abelian + ["s3c2"]:
            t_fix = time.perf_counter()
            fix = fixtures[name]
            sets = default_sets(fix)
            assert sets is not None, name
            v = check_theorem_stickelberger_int(fix, sets)
            assert v.status == "verified", (name, v.notes)
            # fault injection: perturb one character component by 1/7
            if name == "s3c2":
                obj = load_fixture_json(name)
                for src in obj["subextensionThetas"]:
                    if src["chiIndex"] == 0 and sorted(
                            lab.split("/")[0]
                            for lab in src["tPrimeLabels"]) == sets.T:
                        src["values"]["0"] = Cyclo.rational(5).to_json()
                bad = check_theorem_stickelberger_int(ExtensionFixture(obj),
                                                      sets)
            else:
                real_theta = theta_abelian

                def tampered(f, s, _real=real_theta):
                    th = _real(f, s)
                    comps = list(th.central.components)
                    comps[0] = comps[0] + Fraction(1, 7)
                    th.central = type(th.central)(th.central.table, comps)
                    return th

                # theta is built once per fixture, so the tampered one is
                # built on a fresh load
                monkeypatch.setattr("skv.engine.theta_abelian", tampered)
                bad = check_theorem_stickelberger_int(
                    ExtensionFixture(load_fixture_json(name)), sets)
                monkeypatch.setattr("skv.engine.theta_abelian", real_theta)
            assert bad.status == "falsified", name
            witness = bad.witnesses[0]["membership"]["witness"]
            assert witness["chiIndex"] == 0, (name, witness)
            assert time.perf_counter() - t_fix < 30.0, name
    except BaseException:
        ok = False
        raise
    finally:
        tag = "PASS" if ok else "FAIL"
        record_acceptance(f"criterion 3: {tag} "
                          f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_4_sku_suite(fixtures):
    with criterion(4, 60.0):
        cases = {"q": ["inf"], "q_i": ["inf", "2"],
                 "q_zeta3": ["inf", "3"], "q_sqrt_m5": ["inf", "2", "5"],
                 "q_zeta23": ["inf", "23"], "s3c2": ["inf"]}
        for name, S in cases.items():
            v = check_theorem_sku_maxord(fixtures[name], S)
            assert v.status == "verified", (name, v.notes)


def test_criterion_5_algebra_property_suites():
    with criterion(5, 60.0):
        for gname in ("S3", "D4", "Q8", "C6"):
            group = named_group(gname)
            table = irreducibles_monomial(group)
            rng = random.Random(20260823)
            # character-table facts
            assert sum(chi.degree ** 2 for chi in table) == group.order
            for i, a in enumerate(table):
                for j, b in enumerate(table):
                    assert inner(a, b) == (1 if i == j else 0)
            for h in group.all_subgroups():
                if group.is_normal(list(h)):
                    eps = idempotent_eps(table, h)
                    assert eps * eps == eps

            def rand_mat(b, span=2):
                return [[GroupRingElement(
                    group, {g: rng.randint(-span, span)
                            for g in range(group.order)})
                    for _ in range(b)] for _ in range(b)]

            # nr multiplicativity and |G| nr integrality, 100 instances
            for k in range(100):
                b = 2 if k % 10 == 0 else 1
                x, y = rand_mat(b), rand_mat(b)
                nx, ny = reduced_norm(x, table), reduced_norm(y, table)
                assert reduced_norm(mat_mul(x, y), table) == nx * ny
                scaled = (nx * group.order).to_group_ring()
                assert scaled.is_integral()
            # star-adjoint identity, 100 instances
            for k in range(100):
                b = 2 if k % 20 == 0 else 1
                h = rand_mat(b, span=1)
                res = star_adjoint(h, table)
                nr_elem = res.norm.to_group_ring()
                prod = mat_mul(res.adjoint, h)
                back = mat_mul(h, res.adjoint)
                for i in range(b):
                    for j in range(b):
                        want = nr_elem if i == j \
                            else GroupRingElement(group)
                        assert prod[i][j] == want and back[i][j] == want
            # (H Htilde)* = Htilde* H*, 100 instances
            for _ in range(100):
                h, k = rand_mat(1, span=1), rand_mat(1, span=1)
                res_hk = star_adjoint(mat_mul(h, k), table)
                glued = mat_mul(star_adjoint(k, table).adjoint,
                                star_adjoint(h, table).adjoint)
                assert all(a == b for ra, rb in zip(glued, res_hk.adjoint)
                           for a, b in zip(ra, rb))
        # sigma isomorphism is a ring homomorphism (abelian case), 100
        c6 = named_group("C6")
        rng = random.Random(6)
        for _ in range(100):
            x = {c: [[Cyclo.rational(rng.randint(-2, 2))]]
                 for c in range(6)}
            y = {c: [[Cyclo.rational(rng.randint(-2, 2))]]
                 for c in range(6)}
            prod = {}
            for c1, m1 in x.items():
                for c2, m2 in y.items():
                    c = c6.mul(c1, c2)
                    cur = prod.setdefault(c, [[Cyclo.zero()]])
                    cur[0][0] = cur[0][0] + m1[0][0] * m2[0][0]
            lhs = sigma_isomorphism(prod, c6, 1)
            rhs = mat_mul(sigma_isomorphism(x, c6, 1),
                          sigma_isomorphism(y, c6, 1))
            assert lhs[0][0] == rhs[0][0]
            assert sigma_inverse(lhs, c6, 1).keys() <= set(range(6))


def test_criterion_6_cm_reduction(fixtures):
    with criterion(6, 5.0):
        for name, S in (("q_i", ["inf", "2"]), ("q_sqrt_m5", ["inf", "2", "5"])):
            fix = fixtures[name]
            for r in (0, -1):
                h_r = subgroup_h_r(fix.group, [fix.j], r)
                eps = idempotent_eps(fix.table, h_r)
                th = theta_abelian(fix, PlaceSets(S, [], r))
                assert eps * th.central == th.central, (name, r)


def test_criterion_7_negative_r_suite(fixtures):
    with criterion(7, 10.0):
        for name, S in (("q", ["inf", "3", "5"]), ("q_i", ["inf", "2"])):
            fix = fixtures[name]
            th = theta_abelian(fix, PlaceSets(S, [], -1))
            data = mu_tate_annihilators(fix, -1)
            for x in data["generators"]:
                y = (reduced_norm([[x]], fix.table) * th.central).to_group_ring()
                assert y.is_integral(), name
        # direct-search oracle for w_2(Q)
        best = 1
        for n in range(1, 100):
            if all(pow(b, 2, n) == 1 % n for b in range(1, n + 1)
                   if gcd(b, n) == 1):
                best = max(best, n)
        assert mu_tate_annihilators(fixtures["q"], -1)["w"] == 24 == best


def test_criterion_8_determinism(fixtures, tmp_path, capsys):
    with criterion(8, 300.0):
        for name in fixtures:
            outs = []
            for run in range(2):
                target = tmp_path / f"{name}-{run}.json"
                code = cli_main(["check", "all",
                                 "--fixture", fixture_path(name),
                                 "--seed", "0", "--out", str(target)])
                capsys.readouterr()
                assert code in (0, 2), (name, code)
                outs.append(target.read_bytes())
            assert outs[0] == outs[1], name
            json.loads(outs[0])  # stays valid JSON
