"""Irreducible characters via induction from linear characters."""

import random
from fractions import Fraction

from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from skv.arithdata import ExtensionFixture
from skv.characters import (AbelianTable, CharacterTable, MonomialCertificate,
                            _check_multiplicative, _induced_table, check_coordinates,
                            irreducibles_monomial, linear_character_powers)
from skv.cyclotomic import Cyclo, unit_generators
from skv.errors import (ArithmeticDomainError, GroupError, InternalCheckError,
                        NotMonomialError)
from skv.engine import _dirichlet_for_table
from skv.grouprings import GroupRingElement
from skv.groups import FiniteGroup, _named_tables, named_group
from skv.rednorm import fitting_of_presentation, monomial_representation

from conftest import load_fixture_json
from oracles import (abelian_table_by_chain_extension, check_abelian_characters,
                     contragredient_values, coordinate_characters, coset_columns,
                     cyclic_product, cyclo_linear_table, fraction_certificate_exps,
                     fraction_exps,
                     galois_equivariant_all_units, galois_equivariant_every_component,
                     galois_values,
                     induce_from_linear, induced_table_by_cyclo_values,
                     induced_table_by_groups, inner,
                     linear_character_powers_by_quotient, linear_characters,
                     monomial_test_groups, powers_over_common_order, relabelled,
                     value_at)


def test_c6_linear_characters():
    c6 = named_group("C6")
    exps = linear_characters(c6)
    assert len(exps) == 6
    # all distinct and all order dividing 6
    assert len({tuple(e) for e in exps}) == 6
    for e in exps:
        assert all(x.denominator in (1, 2, 3, 6) for x in e)


def test_s3_table_shape():
    table = irreducibles_monomial(named_group("S3"))
    assert sorted(chi.degree for chi in table) == [1, 1, 2]
    assert table.trivial_index() == 0
    assert sum(chi.degree ** 2 for chi in table) == 6


def test_a_table_checks_once_that_the_trivial_character_sorts_first():
    table = irreducibles_monomial(named_group("S3"))
    one = Cyclo.one()
    assert all(v == one for v in table[0].values)
    assert not any(all(v == one for v in chi.values) for chi in table.chars[1:])
    # listed last, the trivial character still sorts first
    again = CharacterTable(table.group, table.chars[::-1], table.certificates[::-1])
    assert again.chars == table.chars and again.trivial_index() == 0
    with pytest.raises(GroupError, match="no trivial character"):
        CharacterTable(table.group, table.chars[1:], table.certificates[1:])


def test_q8_table_shape():
    table = irreducibles_monomial(named_group("Q8"))
    assert sorted(chi.degree for chi in table) == [1, 1, 1, 1, 2]


def test_d4_table_shape():
    table = irreducibles_monomial(named_group("D4"))
    assert sorted(chi.degree for chi in table) == [1, 1, 1, 1, 2]


def test_s3xc2_table_shape():
    table = irreducibles_monomial(named_group("S3xC2"))
    assert sorted(chi.degree for chi in table) == [1, 1, 1, 1, 2, 2]


def test_orthogonality_relations():
    for name in ("S3", "D4", "Q8", "C6"):
        table = irreducibles_monomial(named_group(name))
        for i, a in enumerate(table):
            for j, b in enumerate(table):
                assert inner(a, b) == (1 if i == j else 0)


def test_certificates_induce_back():
    group = named_group("Q8")
    table = irreducibles_monomial(group)
    for chi, cert in zip(table, table.certificates):
        induced = induce_from_linear(group, cert.u_elems, fraction_exps(cert))
        assert induced.values == chi.values


def test_certificate_subgroup_is_largest_for_linear():
    table = irreducibles_monomial(named_group("S3"))
    for chi, cert in zip(table, table.certificates):
        if chi.degree == 1:
            assert len(cert.u_elems) == 6
        else:
            assert len(cert.u_elems) == 3


def test_contragredient_and_galois_indices():
    table = irreducibles_monomial(named_group("C6"))
    for i in range(len(table)):
        j = table.contragredient_index(i)
        assert table[j].values == contragredient_values(table[i])
        k = table.galois_index(i, 5)
        assert table[k].values == galois_values(table[i], 5)


def test_index_of_values_rejects_unknown():
    table = irreducibles_monomial(named_group("C2"))
    with pytest.raises(GroupError):
        table.index_of_values((Cyclo.rational(3), Cyclo.rational(3)))


def test_induction_from_wrong_data_fails():
    s3 = named_group("S3")
    with pytest.raises(GroupError):
        # exponents that are not multiplicative on the subgroup
        a3 = sorted(s3.commutator_subgroup())
        bad = {a3[0]: Fraction(0), a3[1]: Fraction(1, 3), a3[2]: Fraction(1, 3)}
        induce_from_linear(s3, a3, bad)


def test_character_values_class_constant():
    group = named_group("D4")
    table = irreducibles_monomial(group)
    ids = group.class_index()
    for chi in table:
        for g in range(group.order):
            assert value_at(chi, g) == chi.values[ids[g]]


def test_degree_one_characters_are_homomorphisms():
    group = named_group("S3xC2")
    table = irreducibles_monomial(group)
    for chi in table:
        if chi.degree != 1:
            continue
        for a in range(group.order):
            for b in range(group.order):
                assert value_at(chi, group.mul(a, b)) == \
                    value_at(chi, a) * value_at(chi, b)


def test_memoised_permutations_match_direct_lookup(fixtures):
    for name in ("q_zeta23", "s3c2"):
        table = fixtures[name].table
        exp = table.exponent
        for _ in range(2):  # cold, then warm
            for i in range(len(table)):
                j = table.contragredient_index(i)
                assert table[j].values == contragredient_values(table[i])
                for k in range(1, 2 * exp):
                    if gcd(k, exp) == 1:
                        j = table.galois_index(i, k)
                        assert table[j].values == galois_values(table[i], k)


def test_check_galois_fires_on_non_equivariant_components(fixtures):
    for name in ("q_zeta23", "s3c2"):
        table = fixtures[name].table
        group = table.group
        # chi(g)/chi(1) at a fixed g: the components of a central element of
        # Q[G], hence Galois-equivariant
        cls = group.class_index()[group.order - 1]
        comps = [chi.values[cls] * Fraction(1, chi.degree) for chi in table]
        table.check_galois(comps, name)
        i = table.trivial_index()
        orbit = {table.galois_index(i, k) for k in range(1, table.exponent)
                 if gcd(k, table.exponent) == 1}
        j = next((j for j in range(len(table))
                  if j not in orbit and not comps[j].is_rational()), None)
        swapped = list(comps)
        if j is None:
            # every character of S3 x C2 is rational-valued, so a swap of
            # components is again equivariant; break it with zeta_3 instead
            assert name == "s3c2"
            j = next(j for j in range(len(table)) if comps[j] != comps[i])
            swapped[i], swapped[j] = comps[j], comps[i]
            table.check_galois(swapped, name)
            swapped[j] = comps[i] * Cyclo.zeta(3)
        else:
            swapped[i], swapped[j] = comps[j], comps[i]
        with pytest.raises(InternalCheckError):
            table.check_galois(swapped, name)


GALOIS_TABLES = {name: irreducibles_monomial(named_group(name))
                 for name in ("C6", "S3", "D4", "Q8", "S3xC2")}
GALOIS_TABLES["C22"] = irreducibles_monomial(FiniteGroup.cyclic(22))


def _equivariant_components(table, data):
    """chi(x)/chi(1) for a class function x with small rational values:
    the components of a central element of Q[G]."""
    group = table.group
    classes = group.conjugacy_classes()
    ids = group.class_index()
    fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    x = [data.draw(fracs) for _ in classes]
    return [sum((chi.values[ids[cls[0]]] * (a * len(cls)) for a, cls in zip(x, classes)),
                start=Cyclo.zero()) * Fraction(1, chi.degree)
            for chi in table]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(GALOIS_TABLES)),
       st.sampled_from(["none", "one", "orbit"]), st.data())
def test_galois_check_on_generators_matches_all_units(name, perturb, data):
    table = GALOIS_TABLES[name]
    comps = _equivariant_components(table, data)
    if perturb != "none":
        # one component moved by delta, a root of unity inside
        # Q(zeta_exponent) or in a larger field; "orbit" also moves the
        # components along the orbit of one sigma_k, which keeps the
        # vector sigma_k-equivariant, so only another unit can tell.  k is
        # often one of the generators, the case where a check that skipped
        # the others would pass
        i = data.draw(st.integers(0, len(comps) - 1))
        n = data.draw(st.sampled_from([table.exponent, 2 * table.exponent, 5, 9]))
        delta = Cyclo.zeta(n, data.draw(st.integers(0, n - 1)))
        powers = [1]
        if perturb == "orbit":
            m = lcm(table.exponent, n, *(c.order for c in comps))
            units = [u for u in range(1, m) if gcd(u, m) == 1]
            k = data.draw(st.sampled_from(units) | st.sampled_from(unit_generators(m)))
            while powers[-1] * k % m != 1:
                powers.append(powers[-1] * k % m)
        for power in powers:
            j = table.galois_index(i, power)
            comps[j] = comps[j] + delta.galois(power)
    try:
        table.check_galois(comps, name)
        passed = True
    except InternalCheckError:
        passed = False
    assert passed == galois_equivariant_all_units(table, comps)
    if perturb == "none":
        assert passed


def _passes_check_galois(table, comps, fills=None) -> bool:
    try:
        table.check_galois(comps, "test", fills)
    except InternalCheckError:
        return False
    return True


def _class_function_components(table, rng):
    """chi(x)/chi(1) for a class function x with small random rational
    values: the components of a central element of Q[G]."""
    group = table.group
    ids = group.class_index()
    values = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in group.conjugacy_classes()]
    return [sum((chi.values[ids[cls[0]]] * (a * len(cls))
                 for a, cls in zip(values, group.conjugacy_classes())), start=Cyclo.zero())
            * Fraction(1, chi.degree) for chi in table]


def test_orbit_galois_check_answers_as_the_check_over_every_component(fixtures):
    # on every shipped table and on C30 and C46: equivariant tuples, each
    # single-component corruption, and tuples with the fill map whose
    # orbit representative is corrupted are accepted by the per-orbit
    # check exactly when the check over every component accepts them
    tables = [fix.table for fix in fixtures.values()]
    tables += [irreducibles_monomial(FiniteGroup.cyclic(n)) for n in (30, 46)]
    rng = random.Random(0)
    counts = {}

    def agree(comps, fills=None, full=None):
        passed = _passes_check_galois(table, comps, fills)
        assert passed == galois_equivariant_every_component(table, full or comps)
        counts[fills is not None, passed] = counts.get((fills is not None, passed), 0) + 1

    for table in tables:
        fills = table.galois_fills()
        deltas = [Cyclo.one(), Cyclo.zeta(table.exponent), Cyclo.zeta(4)]
        for _ in range(2):
            comps = _class_function_components(table, rng)
            agree(comps)
            for i in range(len(comps)):
                for delta in deltas:
                    wrong = list(comps)
                    wrong[i] = comps[i] + delta
                    agree(wrong)
                # the component moved to its image under each generator
                n = lcm(table.exponent, *(c.order for c in comps))
                for k in unit_generators(n):
                    j = table.galois_index(i, k)
                    wrong = list(comps)
                    wrong[i], wrong[j] = comps[j], comps[i]
                    agree(wrong)
            # the fill map: None at each filled j -> (r, k), which takes
            # sigma_k of the component at r, corrupted or not
            for r in {r for r, _ in fills.values()}:
                for delta in [None] + deltas:
                    computed = [None if i in fills else c for i, c in enumerate(comps)]
                    if delta is not None:
                        computed[r] = comps[r] + delta
                    full = list(computed)
                    for j, (r_j, k) in fills.items():
                        full[j] = computed[r_j].galois(k)
                    agree(computed, fills, full)
    # both answers come up, with and without the fill map
    assert len(counts) == 4, counts


def _multiplicative(group, u, exps):
    """Reference: psi(a) + psi(b) - psi(ab) is an integer on the subgroup."""
    return all((exps[a] + exps[b] - exps[group.mul(a, b)]) % 1 == 0
               for a in u for b in u)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["C6", "S3", "D4", "S3xC2"]), st.data())
def test_multiplicativity_check_matches_reference(name, data):
    group = named_group(name)
    subgroups = group.all_subgroups()
    u = sorted(data.draw(st.sampled_from(subgroups)))
    sub, back = group.subgroup_as_group(u)
    chars = linear_characters(sub)
    exps = {back[i]: e for i, e in enumerate(data.draw(st.sampled_from(chars)))}
    # shift some exponents: by an integer keeps psi, by a fraction may not
    fracs = st.fractions(min_value=-2, max_value=2, max_denominator=12)
    for g in data.draw(st.lists(st.sampled_from(u), max_size=2)):
        exps[g] += data.draw(fracs)
    order, powers = powers_over_common_order(exps)
    if _multiplicative(group, u, exps):
        _check_multiplicative(group, u, order, powers)
    else:
        with pytest.raises(GroupError):
            _check_multiplicative(group, u, order, powers)


def _power_map_groups():
    """Every named group and three larger cyclic groups."""
    return [named_group(name) for name in sorted(_named_tables())] + \
        [FiniteGroup.cyclic(n) for n in (22, 46, 64)]


def test_power_map_is_the_class_of_the_kth_power():
    for group in _power_map_groups():
        ids = group.class_index()
        exp = group.exponent()
        for k in list(range(exp + 2)) + [-1]:
            pm = group.power_map(k)
            for c, cls in enumerate(group.conjugacy_classes()):
                for g in cls:
                    power = 0
                    for _ in range(k % exp):
                        power = group.mul(power, g)
                    assert pm[c] == ids[power], (group.order, k, g)


def test_galois_index_from_power_maps_matches_direct_lookup():
    for group in _power_map_groups():
        table = irreducibles_monomial(group)
        exp = table.exponent
        for i, chi in enumerate(table):
            for k in range(1, exp + 1):
                if gcd(k, exp) != 1:
                    continue
                conj = galois_values(chi, k)
                direct = next(j for j, c in enumerate(table) if c.values == conj)
                assert table.galois_index(i, k) == direct
        if exp > 1:
            with pytest.raises(ArithmeticDomainError):
                table.galois_index(0, exp)


def test_abelian_table_equals_induced_table():
    groups = [g for g in _power_map_groups() if g.is_abelian()]
    groups.append(FiniteGroup.direct_product(named_group("C2"), named_group("C6")))
    for group in groups:
        fast, induced = AbelianTable(group), _induced_table(group)
        assert [c.values for c in fast] == [c.values for c in induced]
        assert [(c.u_elems, fraction_exps(c)) for c in fast.certificates] == \
            [(c.u_elems, fraction_exps(c)) for c in induced.certificates]
        assert [c.values for c in irreducibles_monomial(group)] == \
            [c.values for c in fast]


def test_abelian_table_certificate_rejects_bad_characters(monkeypatch):
    # the certificate is the coordinate check: corrupted coordinates of C6
    # make the table raise before any character is built
    group = FiniteGroup.cyclic(6)
    orders, good = group.abelian_coordinates()
    assert orders == (6,) and good == tuple((g,) for g in range(6))
    swapped = list(good)
    swapped[2], swapped[3] = good[3], good[2]
    cases = [((6,), good[:-1], "do not fit"), ((2, 3), good, "do not fit"),
             ((6,), good[:-1] + (good[1],), "share"),
             ((6,), tuple(((x + 1) % 6,) for (x,) in good), "unit vector"),
             ((6,), tuple(swapped), "unit vector")]
    for coords in cases:
        monkeypatch.setattr(group, "abelian_coordinates", lambda coords=coords: coords[:2])
        with pytest.raises(InternalCheckError, match=coords[2]):
            AbelianTable(group)


def _abelian_test_groups(fixtures):
    """Every shipped abelian group, C1, C2^7, C3 x C9, C128, and seeded
    random products of cyclic groups, half of them renumbered."""
    groups = {name: fix.group for name, fix in fixtures.items() if fix.group.is_abelian()}
    groups.update(C1=named_group("C1"), C2_7=cyclic_product(*[2] * 7),
                  C3xC9=cyclic_product(3, 9), C128=FiniteGroup.cyclic(128))
    rng = random.Random(31)
    for i in range(12):
        orders = [rng.choice([2, 3, 4, 5, 6, 8, 9, 10, 12]) for _ in range(rng.randint(1, 3))]
        group = cyclic_product(*orders)
        if i % 2:
            group = relabelled(group, rng)
        groups["x".join(map(str, orders)) + ("'" if i % 2 else "")] = group
    return groups


def _coordinate_variants(orders, coords, rng):
    """(what, orders, coords): the coordinates, recoded by automorphisms
    and by a swap of the factors, and corrupted in every way that keeps
    one vector in Z/d_1 x ... x Z/d_k per element."""
    n, k = len(coords), len(orders)
    yield "valid", orders, coords
    units = [[u for u in range(1, d) if gcd(u, d) == 1] or [0] for d in orders]
    for _ in range(2):
        scale = [rng.choice(us) for us in units]
        yield "automorphism", orders, tuple(tuple(u * c % d for u, c, d in zip(scale, x, orders))
                                            for x in coords)
    if k >= 2:
        yield "factors swapped", orders[::-1], tuple(x[::-1] for x in coords)
        # x_1 + f(the others) keeps every translation by the first basis
        # element and breaks another's unless f is a homomorphism
        shear = (lambda x: x[-1] * x[-2]) if k >= 3 else (lambda x: x[-1] * x[-1])
        yield "sheared", orders, tuple(((x[0] + shear(x)) % orders[0],) + x[1:] for x in coords)
    if n < 2:
        return
    for _ in range(3 if n <= 64 else 1):
        g, h = rng.sample(range(n), 2)
        wrong = list(coords)
        wrong[g], wrong[h] = coords[h], coords[g]
        yield "two swapped", orders, tuple(wrong)
        wrong = list(coords)
        i = rng.randrange(k)
        wrong[g] = coords[g][:i] + ((coords[g][i] + rng.randrange(1, orders[i])) % orders[i],) + \
            coords[g][i + 1:]
        yield "one changed", orders, tuple(wrong)
        shift = coords[rng.randrange(1, n)]
        yield "shifted", orders, tuple(tuple((a + b) % d for a, b, d in zip(x, shift, orders))
                                       for x in coords)
        perm = rng.sample(range(n), n)
        yield "permuted", orders, tuple(coords[perm[g]] for g in range(n))


def _accepts(check, *args):
    try:
        check(*args)
    except InternalCheckError:
        return False
    return True


def test_coordinate_check_accepts_what_the_character_certificate_accepts(fixtures):
    # the old certificate (|G| distinct characters, each trivial at 1 and
    # multiplicative on the generators) on the characters chi_a of the
    # coordinates answers as the coordinate check does
    rng = random.Random(7)
    outcomes = set()
    for name, group in _abelian_test_groups(fixtures).items():
        for what, orders, coords in _coordinate_variants(*group.abelian_coordinates(), rng):
            new = _accepts(check_coordinates, group, orders, coords)
            old = _accepts(check_abelian_characters, group, *coordinate_characters(orders, coords))
            assert new == old, (name, what, orders)
            outcomes.add((what, new))
    assert {("valid", True), ("automorphism", True), ("factors swapped", True),
            ("sheared", False), ("two swapped", False), ("one changed", False),
            ("shifted", False), ("permuted", False)} <= outcomes


def test_coordinate_table_equals_the_chain_extension_table(fixtures):
    for name, group in _abelian_test_groups(fixtures).items():
        new, old = AbelianTable(group), abelian_table_by_chain_extension(group)
        assert [(c.order, c.powers) for c in new] == [(c.order, c.powers) for c in old], name
        assert [(c.u_elems, c.order, c.powers) for c in new.certificates] == \
            [(c.u_elems, c.order, c.powers) for c in old.certificates], name
        exp = new.exponent
        assert new.value_order == old.value_order == exp
        units = [k for k in range(-1, exp + 1) if gcd(k, exp) == 1]
        assert [[new.galois_index(i, k) for k in units] for i in range(len(new))] == \
            [[old.galois_index(i, k) for k in units] for i in range(len(old))], name
        assert new.galois_orbits() == old.galois_orbits()
        assert new.galois_fills() == old.galois_fills()
        assert new.galois_transversal(2 * exp) == old.galois_transversal(2 * exp)
        for n in (None, exp, 2 * exp):
            assert new.value_numerators(n) == old.value_numerators(n), (name, n)
        assert all(new.index_of_values(c.values) == i for i, c in enumerate(old))
        assert [i for i in range(len(new)) if new.contragredient_index(i) == i] == \
            [i for i in range(len(old)) if old.contragredient_index(i) == i]
        if exp > 1:
            with pytest.raises(ArithmeticDomainError):
                new.galois_index(0, exp)


def test_integer_certificates_give_the_fraction_exponents(fixtures):
    tables = [fix.table for fix in fixtures.values()]
    tables += [irreducibles_monomial(named_group(name)) for name in sorted(_named_tables())]
    tables.append(irreducibles_monomial(FiniteGroup.cyclic(128)))
    for table in tables:
        for i, cert in enumerate(table.certificates):
            exps = fraction_certificate_exps(table, i)
            assert fraction_exps(cert) == exps
            # N is the order of psi, as the lcm of the denominators was
            assert cert.order == lcm(*(e.denominator for e in exps.values()))
            assert cert.powers == {y: e.numerator * cert.order // e.denominator
                                   for y, e in exps.items()}


def test_index_of_values_at_a_foreign_order():
    table = irreducibles_monomial(named_group("C2"))
    # values are looked up by their keys at the table's value order, 2:
    # -1 stored at order 3 has none
    assert table.index_of_values((Cyclo.one(2), -Cyclo.one(2))) == 1
    with pytest.raises(ArithmeticDomainError, match="cannot lift order 3 into 2"):
        table.index_of_values((Cyclo.one(3), -Cyclo.one(3)))


MONOMIAL_GROUPS = monomial_test_groups()


@pytest.mark.parametrize("name", [n for n in MONOMIAL_GROUPS if n != "SL(2,3)"])
def test_integer_induced_table_matches_the_group_building_path(name):
    group = MONOMIAL_GROUPS[name]
    new, old = _induced_table(group), induced_table_by_groups(group)
    assert [(c.u_elems, c.order, c.powers) for c in new.certificates] == \
        [(c.u_elems, c.order, c.powers) for c in old.certificates]
    assert [[(v.order, v.num, v.den) for v in c.values] for c in new] == \
        [[(v.order, v.num, v.den) for v in c.values] for c in old]


def test_non_monomial_group_fails_alike_on_both_paths():
    group = MONOMIAL_GROUPS["SL(2,3)"]
    messages = []
    for build in (_induced_table, induced_table_by_groups):
        with pytest.raises(NotMonomialError) as info:
            build(group)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("only 12 of 24")


def _table_or_error(build, group):
    """Per character its order, degree, powers and exact values, and per
    certificate its subgroup, order and powers; or the NotMonomialError
    text."""
    try:
        table = build(group)
    except NotMonomialError as exc:
        return str(exc)
    return ([(c.order, c.degree, c.powers, [(v.order, v.num, v.den) for v in c.values])
             for c in table],
            [(c.u_elems, c.order, c.powers) for c in table.certificates])


@pytest.mark.parametrize("name", sorted(MONOMIAL_GROUPS))
def test_induced_values_from_integer_weights_match_the_cyclo_sums(name):
    # the same characters, values and orders, and the same certificates in
    # the same order, as summing roots of unity in Cyclo and keeping a
    # character by its tuple of Cyclo values; SL(2,3) fails alike
    group = MONOMIAL_GROUPS[name]
    new = _table_or_error(_induced_table, group)
    assert new == _table_or_error(induced_table_by_cyclo_values, group)
    assert isinstance(new, str) == (name == "SL(2,3)")


def test_abelian_certificates_keep_the_dual_vector_and_make_powers_when_read(fixtures):
    for name, group in _abelian_test_groups(fixtures).items():
        table = AbelianTable(group)
        certs = table.certificates
        assert not any("powers" in vars(c) for c in certs), name
        elems = tuple(range(group.order))
        for cert, chi in zip(certs, table):
            # the order of the dual vector is the order of the character
            old = MonomialCertificate(elems, table.exponent, dict(zip(elems, chi.powers)))
            assert (cert.u_elems, cert.order, cert.powers) == \
                (old.u_elems, old.order, old.powers), name
        assert [table.galois_index(i, 1) for i in range(len(table))] == \
            [table._position[c.dual] for c in certs]
    # fitting reads the powers of the computed characters only: 6 of 22
    table = AbelianTable(fixtures["q_zeta23"].group)
    h = [[GroupRingElement(table.group, {1: 1, 5: -2}), GroupRingElement(table.group, {0: 2})],
         [GroupRingElement(table.group, {3: 1}), GroupRingElement(table.group, {2: -1})],
         [GroupRingElement(table.group, {0: 1}), GroupRingElement(table.group, {7: 1})]]
    fitting_of_presentation(h, table)
    read = [i for i, c in enumerate(table.certificates) if "powers" in vars(c)]
    assert read == [i for i in range(len(table)) if i not in table.galois_fills()]
    assert len(read) == 6


def test_abelian_certificates_give_the_dict_certificates_results(fixtures):
    # monomial representations and Dirichlet characters read from the dual
    # certificates equal those read from certificates with a dict of powers
    for name in ("q", "q_i", "q_zeta3", "q_zeta23"):
        fix, plain = (ExtensionFixture(load_fixture_json(name)) for _ in range(2))
        table = fix.table
        elems = tuple(range(table.group.order))
        copy = object.__new__(AbelianTable)
        copy.__dict__.update(vars(table), _memo={}, certificates=[
            MonomialCertificate(elems, table.exponent, dict(zip(elems, chi.powers)))
            for chi in table])
        plain._memo["table"] = copy
        for i in range(len(table)):
            got, want = monomial_representation(table, i), monomial_representation(copy, i)
            assert (got.degree, got.order, got.columns) == \
                (want.degree, want.order, want.columns), (name, i)
        assert [chi.key for chi in _dirichlet_for_table(fix)] == \
            [chi.key for chi in _dirichlet_for_table(plain)], name


@pytest.mark.parametrize("name", ["S4", "F20", "S3xC6", "D4xC2"])
def test_subgroup_linear_characters_match_their_own_groups(name):
    # chain extension on the parent's table, over U or over U / U', gives
    # the characters of U built as a group, in the same order
    group = MONOMIAL_GROUPS[name]
    for u in group.all_subgroups():
        sub, back = group.subgroup_as_group(u)
        order, rows = linear_character_powers_by_quotient(sub)
        assert linear_character_powers(group, u) == (order, rows), u


def _integer_character_groups():
    """The abelian groups of ``_power_map_groups``, C2 x C6 and C128, and
    every monomial non-abelian test group: the groups whose integer linear
    characters are checked against the Cyclo-built ones."""
    groups = {f"abelian of order {g.order}": g for g in _power_map_groups() if g.is_abelian()}
    groups["C2xC6"] = FiniteGroup.direct_product(named_group("C2"), named_group("C6"))
    groups["C128"] = FiniteGroup.cyclic(128)
    groups.update((name, g) for name, g in MONOMIAL_GROUPS.items() if name != "SL(2,3)")
    return groups


INTEGER_CHARACTER_GROUPS = _integer_character_groups()


def _assert_matches_the_cyclo_built_table(new, old):
    assert [c.degree for c in new] == [c.degree for c in old]
    assert all((c.powers is not None) == (c.degree == 1) for c in new)
    assert all(c.powers is None for c in old)
    assert [(c.u_elems, c.order, c.powers) for c in new.certificates] == \
        [(c.u_elems, c.order, c.powers) for c in old.certificates]
    assert new.value_order == old.value_order
    for n in (new.value_order, 2 * new.value_order):
        assert new.value_numerators(n) == old.value_numerators(n)
    exp = new.exponent
    units = [k for k in range(1, exp + 1) if gcd(k, exp) == 1]
    assert [[new.galois_index(i, k) for k in units] for i in range(len(new))] == \
        [[old.galois_index(i, k) for k in units] for i in range(len(old))]
    for i in range(len(new)):
        rep = monomial_representation(new, i)
        assert (rep.degree, rep.order, rep.columns) == coset_columns(old, i)
    # last, as reading them makes the values of the integer characters
    assert [[(v.order, v.num, v.den) for v in c.values] for c in new] == \
        [[(v.order, v.num, v.den) for v in c.values] for c in old]


@pytest.mark.parametrize("name", sorted(INTEGER_CHARACTER_GROUPS))
def test_integer_linear_characters_match_the_cyclo_built_ones(name):
    group = INTEGER_CHARACTER_GROUPS[name]
    _assert_matches_the_cyclo_built_table(irreducibles_monomial(group),
                                          cyclo_linear_table(group))


def test_shipped_tables_match_the_cyclo_built_ones(fixtures):
    for fix in fixtures.values():
        _assert_matches_the_cyclo_built_table(fix.table, cyclo_linear_table(fix.group))


def test_building_a_table_reads_no_linear_character_values():
    for group in (FiniteGroup.cyclic(46), MONOMIAL_GROUPS["S3xC6"]):
        table = irreducibles_monomial(group)
        for i in range(len(table)):
            monomial_representation(table, i)
        table.value_numerators(table.value_order)
        table.galois_orbits()
        assert not any("values" in vars(c) for c in table if c.degree == 1)
