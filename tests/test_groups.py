"""Finite group machinery: tables, subgroups, quotients, product detection."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from skv.errors import GroupError
from skv.groups import (FiniteGroup, detect_direct_product, named_group,
                        subgroup_h_r)


NAMED_ORDERS = [("C1", 1), ("C2", 2), ("C3", 3), ("C6", 6),
                ("S3", 6), ("D4", 8), ("Q8", 8), ("S3xC2", 12)]


def test_named_group_orders():
    for name, order in NAMED_ORDERS:
        g = named_group(name)
        assert g.order == order
        assert g.mul(0, 0) == 0


def test_invalid_table_rejected():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(GroupError):
        FiniteGroup([[1, 0], [0, 1]])  # identity not at index 0
    with pytest.raises(GroupError, match="labels"):
        FiniteGroup([[0, 1], [1, 0]], labels=["e"])
    with pytest.raises(GroupError, match="out of range"):
        named_group("C3").subgroup_closure([3])


def test_element_orders_and_exponent():
    q8 = named_group("Q8")
    orders = sorted(q8.element_order(g) for g in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    assert q8.exponent() == 4
    assert named_group("S3").exponent() == 6


def _closed_span(g, gens):
    """Smallest set holding the identity and gens that is closed under
    multiplication, by squaring the set until it stops growing."""
    span = {0} | set(gens)
    while True:
        grown = span | {g.mul(a, b) for a in span for b in span}
        if grown == span:
            return tuple(sorted(span))
        span = grown


def test_s3_conjugacy_classes():
    s3 = named_group("S3")
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]
    # every named group: class ids and closures against brute force
    for name, _ in NAMED_ORDERS:
        g = named_group(name)
        ids = g.class_index()
        for x in range(g.order):
            conj = {g.mul(g.mul(y, x), g.inverse(y)) for y in range(g.order)}
            assert conj == {z for z in range(g.order) if ids[z] == ids[x]}
        # ids are numbered in order of each class's minimal member
        firsts = [min(c) for c in g.conjugacy_classes()]
        assert firsts == sorted(firsts) and [ids[m] for m in firsts] == \
            list(range(len(firsts)))
        for gens in itertools.chain(itertools.combinations(range(g.order), 1),
                                    itertools.combinations(range(g.order), 2)):
            closure = g.subgroup_closure(gens)
            assert closure == _closed_span(g, gens), (name, gens)
            assert g.is_subgroup(closure)
        assert g.subgroup_closure([]) == (0,)


def test_center_and_commutator():
    q8 = named_group("Q8")
    assert len(q8.center()) == 2
    assert len(q8.commutator_subgroup()) == 2
    s3 = named_group("S3")
    assert s3.center() == (0,)
    assert len(s3.commutator_subgroup()) == 3


def test_all_subgroups_counts():
    # S3 has 6 subgroups, Q8 has 6, D4 has 10
    assert len(named_group("S3").all_subgroups()) == 6
    assert len(named_group("Q8").all_subgroups()) == 6
    assert len(named_group("D4").all_subgroups()) == 10


def test_subgroup_quotient_roundtrip():
    s3 = named_group("S3")
    a3 = s3.commutator_subgroup()
    sub, back = s3.subgroup_as_group(a3)
    assert sub.order == 3 and sub.is_abelian()
    assert sorted(back.values()) == sorted(a3)
    quot, proj = s3.quotient(a3)
    assert quot.order == 2
    assert len(set(proj)) == 2


def test_normal_closure():
    s3 = named_group("S3")
    refl = next(g for g in range(1, 6) if s3.element_order(g) == 2)
    assert len(s3.normal_closure([refl])) == 6


def test_double_cosets_partition():
    d4 = named_group("D4")
    subs = [s for s in d4.all_subgroups() if len(s) == 2]
    seen = set()
    for dc in d4.double_cosets(subs[0], subs[-1]):
        seen.update(dc)
    assert seen == set(range(8))


def test_detect_direct_product():
    g = named_group("S3xC2")
    found = detect_direct_product(g)
    assert found is not None
    h, c = found
    assert len(h) * len(c) == 12 and len(c) == 2
    assert detect_direct_product(named_group("Q8")) is None
    assert detect_direct_product(named_group("S3")) is None


def test_subgroup_h_r_parity():
    c2 = named_group("C2")
    assert subgroup_h_r(c2, [1], -1) == (0, 1)  # odd r: generated by j
    assert subgroup_h_r(c2, [1], 0) == (0,)     # even r: pair products


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["S3", "D4", "Q8", "C6"]), st.data())
def test_group_axioms_random_triples(name, data):
    g = named_group(name)
    idx = st.integers(min_value=0, max_value=g.order - 1)
    a, b, c = data.draw(idx), data.draw(idx), data.draw(idx)
    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    assert g.mul(a, g.inverse(a)) == 0
    assert g.mul(0, a) == a
