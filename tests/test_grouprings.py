"""Group rings, central elements, idempotents, maximal-order membership."""

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from skv import characters, grouprings
from skv.arithdata import ExtensionFixture
from skv.characters import Character, irreducibles_monomial
from skv.cyclotomic import Cyclo
from skv.engine import _product_split
from skv.errors import CentralityError, GroupError, InternalCheckError
from skv.groups import FiniteGroup, detect_direct_product, named_group
from skv.grouprings import (CentralElement, GroupRingElement, _product_pairing,
                            idempotent_eps, max_order_membership,
                            minus_idempotent, product_coefficients)

from conftest import FIXTURE_NAMES, fixture_path, ladder_fixture_writer
from oracles import (direct_sum, from_group_ring_by_values, idempotent_eps_by_values,
                     minus_idempotent_by_values, product_coefficients_by_rows,
                     product_coefficients_by_values, product_pairing_scan, run_all, sharp,
                     sparse_product, sparse_sum)


def test_group_ring_basic_algebra():
    s3 = named_group("S3")
    a = GroupRingElement.basis(s3, 1)
    b = GroupRingElement.basis(s3, 2)
    assert a * b == GroupRingElement.basis(s3, s3.mul(1, 2))
    assert (a + b) - b == a
    assert (a - a).is_zero()
    two = GroupRingElement.scalar(s3, Fraction(2))
    assert two * a == a + a
    assert a * 2 == a + a


def test_norm_element_is_idempotent_up_to_order():
    s3 = named_group("S3")
    a3 = s3.commutator_subgroup()
    n = GroupRingElement.norm_element(s3, a3)
    assert n * n == n * 3


def test_sharp_is_an_anti_involution():
    d4 = named_group("D4")
    x = GroupRingElement(d4, {1: -1, 3: 2})
    y = GroupRingElement(d4, {2: 1, 5: Fraction(1, 3)})
    assert sharp(sharp(x)) == x
    assert sharp(x * y) == sharp(y) * sharp(x)


def test_mixed_group_arithmetic_is_rejected():
    c4 = FiniteGroup.cyclic(4)
    v4 = FiniteGroup.direct_product(named_group("C2"), named_group("C2"))
    for x, y in ((GroupRingElement.basis(c4, 1), GroupRingElement.basis(v4, 1)),
                 (GroupRingElement.basis(v4, 1), GroupRingElement.basis(c4, 1))):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(GroupError, match="different groups"):
                op(x, y)
        assert x != y
    # an equal multiplication table is the same group
    twin = FiniteGroup(c4.table)
    assert GroupRingElement.basis(c4, 1) * GroupRingElement.basis(twin, 1) \
        == GroupRingElement.basis(c4, 2)
    ca = CentralElement.from_group_ring(irreducibles_monomial(c4), GroupRingElement.basis(c4, 1))
    cb = CentralElement.from_group_ring(irreducibles_monomial(v4), GroupRingElement.basis(v4, 1))
    for a, b in ((ca, cb), (cb, ca)):
        for op in (lambda a, b: a * b, lambda a, b: a == b):
            with pytest.raises(GroupError, match="different character tables"):
                op(a, b)
    same = CentralElement.from_group_ring(irreducibles_monomial(twin),
                                          GroupRingElement.basis(twin, 1))
    assert (ca * same).to_group_ring() == GroupRingElement.basis(c4, 2)


def test_group_ring_hash_consistent_with_eq():
    c2 = named_group("C2")
    a = GroupRingElement(c2, {0: 1, 1: Fraction(0)})
    b = GroupRingElement.basis(c2, 0)
    assert a == b and hash(a) == hash(b)


def test_integrality_predicates():
    c2 = named_group("C2")
    x = GroupRingElement(c2, {0: Fraction(1, 2)})
    assert not x.is_integral()
    assert GroupRingElement(c2, {1: Fraction(-3)}).is_integral()


def test_group_ring_coefficients_are_rational():
    c2 = named_group("C2")
    assert all(type(c) is Fraction
               for _, c in GroupRingElement(c2, {0: 2, 1: Fraction(1, 2)}).items())
    for bad in (Cyclo.zeta(4), Cyclo.rational(2), 0.5, "1"):
        with pytest.raises(GroupError, match="over QG"):
            GroupRingElement(c2, {1: bad})
    with pytest.raises(GroupError, match="over QG"):
        GroupRingElement.basis(c2, 1) * Cyclo.zeta(4)
    # an index outside the group neither wraps round nor passes
    for g in (-1, 2):
        with pytest.raises(GroupError, match="no element index"):
            GroupRingElement(c2, {g: 1})


def test_central_element_roundtrip():
    s3 = named_group("S3")
    table = irreducibles_monomial(s3)
    # class sums are central
    cls = s3.conjugacy_classes()[1]
    x = GroupRingElement.norm_element(s3, cls)
    cent = CentralElement.from_group_ring(table, x)
    assert cent.to_group_ring() == x


def test_non_central_element_rejected():
    s3 = named_group("S3")
    table = irreducibles_monomial(s3)
    refl = next(g for g in range(1, 6) if s3.element_order(g) == 2)
    with pytest.raises(CentralityError):
        CentralElement.from_group_ring(table, GroupRingElement.basis(s3, refl))


def test_central_multiplication_is_componentwise():
    s3 = named_group("S3")
    table = irreducibles_monomial(s3)
    classes = s3.conjugacy_classes()
    x = CentralElement.from_group_ring(
        table, GroupRingElement.norm_element(s3, classes[1]))
    y = CentralElement.from_group_ring(
        table, GroupRingElement.norm_element(s3, classes[2]))
    prod = x * y
    for a, b, c in zip(x.components, y.components, prod.components):
        assert a * b == c
    # and it matches the group-ring product
    assert prod.to_group_ring() == x.to_group_ring() * y.to_group_ring()


def test_idempotent_eps():
    s3 = named_group("S3")
    table = irreducibles_monomial(s3)
    a3 = s3.commutator_subgroup()
    eps = idempotent_eps(table, a3)
    assert eps * eps == eps
    assert eps.to_group_ring() == \
        GroupRingElement.norm_element(s3, a3) * Fraction(1, 3)
    with pytest.raises(GroupError):
        refl = next(g for g in range(1, 6) if s3.element_order(g) == 2)
        idempotent_eps(table, [0, refl])  # not normal


def test_minus_idempotent():
    c2 = named_group("C2")
    table = irreducibles_monomial(c2)
    em = minus_idempotent(table, 1)
    assert em * em == em
    assert em.to_group_ring() == \
        (GroupRingElement.basis(c2, 0) - GroupRingElement.basis(c2, 1)) \
        * Fraction(1, 2)
    with pytest.raises(GroupError):
        minus_idempotent(irreducibles_monomial(named_group("C3")), 1)


def test_component_makes_no_image_for_a_computed_character():
    fix = ExtensionFixture.load(fixture_path("q_zeta23"))
    x = minus_idempotent(fix.table, fix.j)
    computed = [i for i, c in enumerate(x.computed) if c is not None]
    assert x.fills and len(computed) < len(x.computed)
    assert [x.component(i) for i in computed] == [x.computed[i] for i in computed]
    assert "components" not in vars(x)
    assert [x.component(i) for i in range(len(x.computed))] == list(x.components)


def test_membership_full_and_p_local():
    c2 = named_group("C2")
    table = irreducibles_monomial(c2)
    good = CentralElement(table, [Cyclo.rational(3), Cyclo.rational(-1)])
    assert max_order_membership(good)
    bad = CentralElement(table, [Cyclo.rational(Fraction(1, 2)), Cyclo.one()])
    verdict = max_order_membership(bad)
    assert not verdict and verdict.witness["chiIndex"] == 0
    assert verdict.mode == "full"
    # p-local integrality is read in product mode: over the trivial split
    # the coefficients of bad are 3/4 and -1/4
    trivial = ((0,), (0, 1))
    assert max_order_membership(bad, product=trivial, p=3)
    verdict = max_order_membership(bad, product=trivial, p=2)
    assert not verdict and verdict.mode == "product"


def test_membership_product_mode():
    g = named_group("S3xC2")
    table = irreducibles_monomial(g)
    h, c = detect_direct_product(g)
    # an honest group-ring integer passes product mode
    x = CentralElement.from_group_ring(
        table, GroupRingElement.norm_element(g, list(c)))
    assert max_order_membership(x, product=(h, c))
    # components can be integral while the product coefficients are not:
    # split an odd value across the two characters of C
    comps = []
    ids = g.class_index()
    j = [e for e in c if e != 0][0]
    tab_pairs = []
    for chi in table:
        val = chi.values[ids[j]] * Fraction(1, chi.degree)
        tab_pairs.append(val.to_fraction())
    comps = [Cyclo.rational(1 if s == 1 else 2) for s in tab_pairs]
    y = CentralElement(table, comps)
    coeffs = product_coefficients(y, h, c)
    assert any(not v.is_algebraic_integer() for v in coeffs.values())
    verdict = max_order_membership(y, product=(h, c))
    assert not verdict and "cElement" in verdict.witness


def test_product_coefficients_reconstruct_components():
    g = named_group("S3xC2")
    table = irreducibles_monomial(g)
    h, c = detect_direct_product(g)
    x = CentralElement(table, [Cyclo.rational(k + 1) for k in range(len(table))])
    coeffs = product_coefficients(x, h, c)
    # alpha_chi(0) + alpha_chi(j) recovers the component at chi x trivial
    total = {i: Cyclo.zero() for i in range(3)}
    for (i, _), v in coeffs.items():
        total[i] = total[i] + v
    for i in range(3):
        assert total[i] in [Cyclo.rational(k + 1) for k in range(len(table))]


def test_keyed_product_pairing_matches_the_linear_scan(fixtures):
    cases = [(fixtures[name].table, *_product_split(fixtures[name]))
             for name in ("s3c2", "q_zeta23")]
    for a, b in (("Q8", "C3"), ("S3", "C6")):
        group = FiniteGroup.direct_product(named_group(a), named_group(b))
        cases.append((irreducibles_monomial(group), *detect_direct_product(group)))
    for table, h, c in cases:
        pairing = _product_pairing(table, h, c)[2]
        assert pairing == product_pairing_scan(table, h, c)
        assert sorted(pairing.values()) == list(range(len(table)))


def _count_table_builds(monkeypatch) -> list:
    builds = []
    build = grouprings.irreducibles_monomial
    monkeypatch.setattr("skv.grouprings.irreducibles_monomial",
                        lambda group: builds.append(group) or build(group))
    return builds


def test_product_pairing_is_built_once_per_table(monkeypatch):
    group = named_group("S3xC2")
    table = irreducibles_monomial(group)
    h, c = detect_direct_product(group)
    builds = _count_table_builds(monkeypatch)
    first = _product_pairing(table, h, c)
    assert len(builds) == 2  # the H and C subgroup tables
    # the key is (sorted H, sorted C), so the order of the lists is free
    assert _product_pairing(table, list(reversed(h)), c) is first
    x = CentralElement(table, [Cyclo.rational(k) for k in range(len(table))])
    product_coefficients(x, h, c)
    assert len(builds) == 2
    # a new table of the same group pairs afresh
    _product_pairing(irreducibles_monomial(group), h, c)
    assert len(builds) == 4


def test_check_all_on_s3c2_builds_each_subgroup_table_once(monkeypatch):
    fix = ExtensionFixture.load(fixture_path("s3c2"))
    builds = _count_table_builds(monkeypatch)
    run_all(fix)
    assert sorted(g.order for g in builds) == [2, 6]


def test_trivial_split_pairs_the_table_with_itself(monkeypatch):
    # fresh tables, with no pairing kept on them yet
    groups = [ExtensionFixture.load(fixture_path(name)).group for name in FIXTURE_NAMES]
    groups += [FiniteGroup.cyclic(n) for n in (22, 128)]
    tables = [irreducibles_monomial(g) for g in groups if g.is_abelian()]
    for table in tables:
        n = table.group.order
        h, c = (0,), tuple(range(n))
        builds = _count_table_builds(monkeypatch)
        tab_h, tab_c, pairing, back_h, back_c = _product_pairing(table, h, c)
        # no table of order |G| besides the fixture's own
        assert [g.order for g in builds] == [1]
        assert tab_c is table and len(tab_h) == 1
        assert back_h == {0: 0} and back_c == {g: g for g in range(n)}
        if n <= 22:
            assert pairing == product_pairing_scan(table, h, c)
        else:
            assert pairing == {(0, j): j for j in range(n)}


def test_check_all_on_q_zeta23_builds_one_table_of_order_22(monkeypatch):
    fix = ExtensionFixture.load(fixture_path("q_zeta23"))
    builds = []
    build = characters.AbelianTable
    monkeypatch.setattr("skv.characters.AbelianTable",
                        lambda group: builds.append(group.order) or build(group))
    assert [v.status for v in run_all(fix)] == ["verified"] * 5
    assert builds.count(22) == 1


def test_check_all_reads_linear_character_values_only_in_the_product_pairing(monkeypatch):
    # the forward transform reads linear characters as integer powers; on
    # s3c2 the 4 reads are the pairing's products chi * lambda, over the
    # linear characters of H = S3 (2) and C = C2 (2)
    reads = []
    make = Character.__dict__["values"].func
    counted = cached_property(lambda chi: reads.append(chi) or make(chi))
    counted.__set_name__(Character, "values")
    counts = {}
    for name in FIXTURE_NAMES:
        fix = ExtensionFixture.load(fixture_path(name))
        monkeypatch.setattr(Character, "values", counted)
        run_all(fix)
        monkeypatch.undo()
        counts[name] = len(reads)
        assert all(chi.degree == 1 for chi in reads)
        reads.clear()
    assert counts == {name: 4 if name == "s3c2" else 0 for name in FIXTURE_NAMES}


def test_product_pairing_reports_an_unmatched_product():
    group = named_group("S3xC2")
    table = irreducibles_monomial(group)
    h, c = detect_direct_product(group)
    del table._index[table._rows[3]]
    with pytest.raises(GroupError, match="product character not found in the table"):
        _product_pairing(table, h, c)


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=30, deadline=None)
@given(st.lists(small_fracs, min_size=6, max_size=6),
       st.lists(small_fracs, min_size=6, max_size=6))
def test_from_group_ring_is_a_ring_map_on_central_elements(xs, ys):
    c6 = named_group("C6")
    table = irreducibles_monomial(c6)
    x = GroupRingElement(c6, dict(enumerate(xs)))
    y = GroupRingElement(c6, dict(enumerate(ys)))
    cx = CentralElement.from_group_ring(table, x)
    cy = CentralElement.from_group_ring(table, y)
    assert CentralElement.from_group_ring(table, x * y) == cx * cy
    sums = CentralElement.from_group_ring(table, x + y)
    assert all(s == a + b for s, a, b in zip(sums.components, cx.components, cy.components))


# -- integer numerators over one denominator against sparse Fractions -------


SPARSE = st.dictionaries(st.integers(0, 21),
                         st.fractions(min_value=-4, max_value=4, max_denominator=12),
                         max_size=8)


def _canonical(x: GroupRingElement) -> bool:
    return x.den > 0 and gcd(x.den, *x.nums) == 1 and len(x.nums) == x.group.order


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["S3", "D4", "Q8", "q_zeta23"]), SPARSE, SPARSE,
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_group_ring_arithmetic_matches_sparse_fractions(fixtures, name, xs, ys, q):
    group = fixtures[name].group if name in fixtures else named_group(name)
    xs = {g % group.order: c for g, c in xs.items()}
    ys = {g % group.order: c for g, c in ys.items()}
    x, y = GroupRingElement(group, xs), GroupRingElement(group, ys)
    # zero coefficients go to the constructor, the reference drops them
    xs, ys = ({g: c for g, c in m.items() if c} for m in (xs, ys))
    want = {"+": sparse_sum(xs, ys),
            "-": sparse_sum(xs, {g: -c for g, c in ys.items()}),
            "q*": {g: c * q for g, c in xs.items() if q},
            "*": sparse_product(group, xs, ys)}
    got = {"+": x + y, "-": x - y, "q*": q * x, "*": x * y}
    for op, elem in got.items():
        ref = GroupRingElement(group, want[op])
        assert elem.items() == sorted(want[op].items()), op
        assert _canonical(elem) and elem == ref and hash(elem) == hash(ref), op
    assert x.items() == sorted(xs.items()) and _canonical(x)
    assert (x == y) == (xs == ys)
    assert x != y or hash(x) == hash(y)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    zero = x - x
    assert zero.is_zero() and zero.is_integral() and zero.den == 1
    assert zero == GroupRingElement(group) == x * 0 and (x * 0).den == 1


# -- trace-form transform against the sum over every character -------------


@lru_cache(maxsize=None)
def _cyclic_table(n):
    return irreducibles_monomial(FiniteGroup.cyclic(n))


def _table(fixtures, name):
    return fixtures[name].table if name in fixtures else _cyclic_table(int(name[1:]))


TABLE_NAMES = st.one_of(st.integers(1, 46).map(lambda n: f"C{n}"),
                        st.sampled_from(["q_zeta23", "s3c2"]))


@settings(max_examples=40, deadline=None)
@given(TABLE_NAMES, st.data())
def test_trace_form_matches_direct_sum_on_equivariant_inputs(fixtures, name, data):
    table = _table(fixtures, name)
    group = table.group
    classes = group.conjugacy_classes()
    # a rational class function, hence an element of the center of Q[G]
    values = data.draw(st.dictionaries(
        st.integers(0, len(classes) - 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=6))
    x = GroupRingElement(group, {g: q for c, q in values.items() for g in classes[c]})
    cent = CentralElement.from_group_ring(table, x)
    # the same components stored at a multiple of their order
    m = data.draw(st.sampled_from([1, 2, 3]))
    lifted = CentralElement(table, [c.lift(m * table.value_order) for c in cent.components])
    for elem in (cent, lifted):
        assert elem.to_group_ring() == x
        assert direct_sum(elem) == {g: Cyclo.rational(q) for g, q in x.items()}


@settings(max_examples=40, deadline=None)
@given(TABLE_NAMES, st.data())
def test_to_group_ring_raises_on_non_equivariant_inputs(fixtures, name, data):
    table = _table(fixtures, name)
    i = data.draw(st.integers(0, len(table) - 1))
    indicator = [Cyclo.zero()] * len(table)
    indicator[i] = Cyclo.one()
    cent = CentralElement(table, indicator)
    orbit = next(o for o in table.galois_orbits() if i in o)
    # the idempotent of chi lies in Q[G] exactly when chi is rational-valued
    if len(orbit) > 1:
        with pytest.raises(InternalCheckError, match="not in the centre of QG"):
            cent.to_group_ring()
        assert any(not c.is_rational() for c in direct_sum(cent).values())
        return
    elem = cent.to_group_ring()
    assert direct_sum(cent) == {g: Cyclo.rational(q) for g, q in elem.items()}
    assert CentralElement.from_group_ring(table, elem) == cent


def test_round_trip_rejects_a_wrong_trace_form(fixtures, monkeypatch):
    for name in ("q_zeta23", "s3c2"):
        # a fresh table, so that no transform kept on the shared one answers
        # in place of the round trip
        group = fixtures[name].group
        table = irreducibles_monomial(group)
        cls = group.conjugacy_classes()[1]
        x = GroupRingElement.norm_element(group, cls) * Fraction(1, 2) \
            + GroupRingElement.scalar(group, 3)
        cent = CentralElement.from_group_ring(table, x)
        nums, den = cent._orbit_traces()
        assert cent._gives_back(nums, den)
        for c in range(len(nums)):
            wrong = list(nums)
            wrong[c] += 1
            assert not cent._gives_back(wrong, den)
        monkeypatch.setattr(CentralElement, "_orbit_traces",
                            lambda self: (wrong, den))
        with pytest.raises(InternalCheckError, match="do not give back the components"):
            cent.to_group_ring()
        monkeypatch.undo()
        assert cent.to_group_ring() == x


def _exact(elem: GroupRingElement) -> dict:
    return {g: (c.numerator, c.denominator) for g, c in elem.items()}


def _rational_central(table) -> CentralElement:
    group = table.group
    x = GroupRingElement.scalar(group, 3)
    for k, cls in enumerate(group.conjugacy_classes()[1:], 1):
        x = x + GroupRingElement.norm_element(group, cls) * Fraction(k, 2)
    return CentralElement.from_group_ring(table, x)


def test_to_group_ring_keeps_one_immutable_element_per_input(fixtures):
    for name in ("q_zeta23", "s3c2"):
        x = _rational_central(irreducibles_monomial(fixtures[name].group))
        first = x.to_group_ring()
        assert type(first.nums) is tuple and type(first.den) is int
        with pytest.raises(AttributeError):
            first.coeffs = {}
        want = _exact(first)
        again = _rational_central(irreducibles_monomial(fixtures[name].group))
        for second in (x.to_group_ring(), again.to_group_ring()):
            assert second == first and hash(second) == hash(first)
            assert _exact(second) == want


def test_to_group_ring_misses_on_one_changed_component_or_order(fixtures, monkeypatch):
    trips = []
    gives_back = CentralElement._gives_back
    monkeypatch.setattr(CentralElement, "_gives_back",
                        lambda self, *a: trips.append(self) or gives_back(self, *a))
    for name in ("q_zeta23", "s3c2"):
        table = irreducibles_monomial(fixtures[name].group)
        group, t = table.group, table.trivial_index()
        x = _rational_central(table)
        base = x.to_group_ring()
        assert _exact(x.to_group_ring()) == _exact(base) and trips == [x]
        # one more at the trivial character adds its idempotent |G|^-1 N_G
        comps = list(x.components)
        comps[t] = comps[t] + 1
        y = CentralElement(table, comps)
        norm = GroupRingElement.norm_element(group, range(group.order))
        assert y.to_group_ring() == base + norm * Fraction(1, group.order)
        assert trips == [x, y]
        # the same value at another order is another key
        comps = list(x.components)
        comps[t] = comps[t].lift(2 * comps[t].order)
        z = CentralElement(table, comps)
        assert z.components[t] == x.components[t]
        assert z.components[t].order != x.components[t].order
        assert _exact(z.to_group_ring()) == _exact(base)
        assert trips == [x, y, z]
        trips.clear()



def _transformed_by_check_all(fix, monkeypatch) -> list[CentralElement]:
    """Every central element that ``check all`` hands to to_group_ring."""
    seen = []
    to_group_ring = CentralElement.to_group_ring
    monkeypatch.setattr(CentralElement, "to_group_ring",
                        lambda self: seen.append(self) or to_group_ring(self))
    run_all(fix)
    monkeypatch.undo()
    return seen


def test_orbit_round_trip_answers_as_the_full_round_trip(tmp_path, monkeypatch):
    # on every element that check all transforms, the round trip over the
    # computed characters of an element with the fill map accepts the
    # forward transform exactly when the comparison at every character
    # does, also for the class functions one numerator off
    fields = [ExtensionFixture.load(fixture_path(name)) for name in FIXTURE_NAMES]
    fields.append(ExtensionFixture.load(ladder_fixture_writer()(31, str(tmp_path))))
    filled = 0
    for fix in fields:
        for x in _transformed_by_check_all(fix, monkeypatch):
            full = CentralElement(x.table, x.components)
            assert full.fills == {} and None not in full.computed
            nums, den = x._orbit_traces()
            assert x._gives_back(nums, den) == full._gives_back(nums, den)
            for c in range(len(nums)):
                wrong = list(nums)
                wrong[c] += 1
                assert x._gives_back(wrong, den) == full._gives_back(wrong, den)
            if x.fills:
                filled += 1
    assert filled


def test_product_coefficients_match_the_row_formula(monkeypatch):
    # alpha_chi(c) = chi(1)^-1 sum_h a_(hc) chi(h) against
    # |C|^-1 sum_lambda x_(chi lambda) lambda(c)^-1: on A4 x C2, the rows
    # of the two non-rational linear characters of A4 lie in Q(zeta_3)[C2]
    a4 = FiniteGroup.from_permutations([[1, 2, 0, 3], [1, 0, 3, 2]])
    group = FiniteGroup.direct_product(a4, named_group("C2"))
    table = irreducibles_monomial(group)
    h, c = detect_direct_product(group)
    assert len(h) == 12 and len(c) == 2
    classes = group.conjugacy_classes()
    assert len(classes) == 8
    irrational = 0
    for cls in classes:
        x = CentralElement.from_group_ring(table, GroupRingElement.norm_element(group, cls))
        coeffs = product_coefficients(x, h, c)
        want = product_coefficients_by_rows(x, h, c)
        assert coeffs.keys() == want.keys() and len(coeffs) == 8
        assert all(coeffs[k] == want[k] for k in want)
        irrational += sum(not v.is_rational() for v in coeffs.values())
    assert irrational
    # every theta that check all reads in product mode: values and orders
    for name in ("s3c2", "q_zeta23"):
        seen = []
        monkeypatch.setattr(grouprings, "product_coefficients",
                            lambda x, h, c: seen.append((x, h, c)) or product_coefficients(x, h, c))
        run_all(ExtensionFixture.load(fixture_path(name)))
        monkeypatch.undo()
        assert seen
        for x, h, c in seen:
            assert _orders(product_coefficients(x, h, c)) == \
                _orders(product_coefficients_by_rows(x, h, c))


def _orders(coeffs: dict) -> dict:
    return {k: (v.order, v.num, v.den) for k, v in coeffs.items()}


# -- the one forward transform against sums of Cyclo values ----------------


@lru_cache(maxsize=None)
def _forward_test_table(name):
    a4 = FiniteGroup.from_permutations([[1, 2, 0, 3], [1, 0, 3, 2]])
    product = FiniteGroup.direct_product
    groups = {"A4xC2": lambda: product(a4, named_group("C2")),
              "Q8xC3": lambda: product(named_group("Q8"), FiniteGroup.cyclic(3)),
              "S3xC6": lambda: product(named_group("S3"), FiniteGroup.cyclic(6)),
              "C30": lambda: FiniteGroup.cyclic(30)}
    return irreducibles_monomial(groups[name]())


FORWARD_TABLES = FIXTURE_NAMES + ["A4xC2", "Q8xC3", "S3xC6", "C30"]


def _forward_table(fixtures, name):
    return fixtures[name].table if name in fixtures else _forward_test_table(name)


def _split(group):
    return detect_direct_product(group) or (tuple(range(group.order)), (0,))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FORWARD_TABLES), st.data())
def test_forward_transform_matches_sums_of_cyclo_values(fixtures, name, data):
    table = _forward_table(fixtures, name)
    group = table.group
    classes = group.conjugacy_classes()
    # a rational class function, hence an element of the center of Q[G]
    values = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                                min_size=len(classes), max_size=len(classes)))
    x = GroupRingElement(group, {g: q for q, cls in zip(values, classes) for g in cls})
    cent = CentralElement.from_group_ring(table, x)
    assert cent.fills is table.galois_fills()
    assert list(cent.components) == from_group_ring_by_values(table, x)
    assert cent.to_group_ring() == x
    # the product coefficients: values by the row formula, and orders,
    # which the membership witness reports, by the sums over H
    h, c = _split(group)
    coeffs = product_coefficients(cent, h, c)
    rows = product_coefficients_by_rows(cent, h, c)
    assert coeffs.keys() == rows.keys() and all(coeffs[k] == rows[k] for k in rows)
    assert _orders(coeffs) == _orders(product_coefficients_by_values(cent, h, c))


def test_idempotents_match_sums_of_cyclo_values(fixtures):
    counts = {"eps": 0, "minus": 0}
    for name in FORWARD_TABLES:
        table = _forward_table(fixtures, name)
        group = table.group
        normal = [u for u in group.all_subgroups() if group.is_normal(u)]
        involutions = [j for j in group.center() if j and group.mul(j, j) == 0]
        counts["eps"] += len(normal)
        counts["minus"] += len(involutions)
        for u in normal:
            eps = idempotent_eps(table, u)
            assert eps.fills is table.galois_fills()
            assert list(eps.components) == idempotent_eps_by_values(table, u)
            assert eps.to_group_ring() == \
                GroupRingElement.norm_element(group, u) * Fraction(1, len(u))
        for j in involutions:
            minus = minus_idempotent(table, j)
            assert minus.fills is table.galois_fills()
            assert list(minus.components) == minus_idempotent_by_values(table, j)
            assert minus_idempotent(table, j) is minus
    assert counts == {"eps": 58, "minus": 9}
