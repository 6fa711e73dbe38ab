"""Finite group machinery: tables, subgroups, quotients, product detection."""

import ast
import itertools
import os
import random
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import skv
from skv.errors import GroupError
from skv.groups import FiniteGroup, detect_direct_product, memo, named_group

from oracles import (all_subgroups_by_closures, check_associative_all_triples,
                     class_index_by_conjugation, cyclic_product,
                     greedy_generators_by_closures, is_normal_by_conjugation,
                     monomial_test_groups, normal_closure_by_conjugates, quotient,
                     relabelled, subgroup_h_r)


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
    # entries are ints in range, never coerced: "1", 0.4 and True would
    # otherwise read as 1, 0 and 1
    with pytest.raises(GroupError, match="square"):
        FiniteGroup([[0, 1], [1]])
    with pytest.raises(GroupError, match="list of rows"):
        FiniteGroup([0, 1])
    for bad in ("1", 0.4, True, -1, 2):
        with pytest.raises(GroupError, match="integers in 0..1"):
            FiniteGroup([[0, 1], [1, bad]])
    # a loop of order 5: identity 0, every element its own unique two-sided
    # inverse, but (1*1)*2 = 2 while 1*(1*2) = 4
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(GroupError, match="not associative"):
        FiniteGroup(loop)


def _loops(n):
    """Every n x n Latin square whose row and column 0 are the identity:
    the loops of order n, with the group tables among them."""
    square = [[i if j == 0 else j if i == 0 else None for j in range(n)]
              for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [list(row) for row in square]
            return
        i, j = cells[k]
        for v in range(n):
            if v not in square[i][:j] and all(square[r][j] != v for r in range(i)):
                square[i][j] = v
                yield from fill(k + 1)
        square[i][j] = None

    return list(fill(0))


def _intercalate_switches(group):
    """The group's table with one intercalate switched, for each one: rows
    a, b and columns c, d with ac = bd and ad = bc, where the two values
    trade places."""
    t = group.table
    for a, b in itertools.combinations(range(group.order), 2):
        for c, d in itertools.combinations(range(group.order), 2):
            if t[a][c] == t[b][d] and t[a][d] == t[b][c]:
                switched = [list(row) for row in t]
                switched[a][c] = switched[b][d] = t[a][d]
                switched[a][d] = switched[b][c] = t[a][c]
                yield switched


def _outcome(table):
    try:
        FiniteGroup(table)
    except GroupError as exc:
        return str(exc)
    return None


def test_associativity_on_generators_matches_all_triples(monkeypatch):
    loops = _loops(5)
    switched = [t for group in (FiniteGroup.cyclic(4), named_group("C6"),
                                FiniteGroup.direct_product(*[named_group("C2")] * 2),
                                *map(named_group, ("S3", "D4", "Q8", "S3xC2")))
                for t in _intercalate_switches(group)]
    tables = loops + switched
    on_generators = [_outcome(t) for t in tables]
    monkeypatch.setattr(FiniteGroup, "_check_associative", check_associative_all_triples)
    assert [_outcome(t) for t in tables] == on_generators
    # 56 loops of order 5, of which the 6 tables of C5 are groups
    assert len(loops) == 56 and on_generators[:56].count(None) == 6
    non_associative = "multiplication table is not associative"
    assert on_generators[:56].count(non_associative) > 0
    assert on_generators[56:].count(non_associative) > 0


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from([FiniteGroup.cyclic(22), *map(named_group, ("S3", "D4", "Q8", "S3xC2"))]),
       data=st.data())
def test_normal_closure_matches_the_conjugate_set_definition(group, data):
    elems = data.draw(st.sets(st.integers(0, group.order - 1), max_size=4))
    assert group.normal_closure(elems) == normal_closure_by_conjugates(group, elems)


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
    quot, proj = quotient(s3, a3)
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


def test_abelian_direct_product_is_the_one_the_search_finds():
    c2, c6 = named_group("C2"), named_group("C6")
    groups = [named_group(name) for name in ("C1", "C2", "C3", "C6")]
    groups += [FiniteGroup.direct_product(c2, c6), FiniteGroup.cyclic(22),
               FiniteGroup.direct_product(c2, FiniteGroup.direct_product(c2, c2))]
    for group in groups:
        searched = FiniteGroup(group.table)
        searched.is_abelian = lambda: False  # take the subgroup search
        assert detect_direct_product(group) == detect_direct_product(searched)


def test_generators_generate_and_each_is_needed():
    groups = [named_group(name) for name in ("C1", "C2", "C6", "S3", "D4", "Q8", "S3xC2")]
    groups += [FiniteGroup.cyclic(22), FiniteGroup.cyclic(128)]
    for group in groups:
        gens = group.generators()
        assert group.generators() is gens
        assert group.subgroup_closure(gens) == tuple(range(group.order))
        # greedy: each generator lies outside the span of the ones before it
        for i, g in enumerate(gens):
            assert g not in group.subgroup_closure(gens[:i])
    assert named_group("C1").generators() == ()
    assert FiniteGroup.cyclic(128).generators() == (1,)


def _structure_test_groups():
    """Named groups, the monomial test groups, C128, and abelian products
    with their non-identity elements renumbered by a seeded shuffle."""
    groups = [named_group(name) for name, _ in NAMED_ORDERS]
    groups += list(monomial_test_groups().values()) + [FiniteGroup.cyclic(128)]
    rng = random.Random(5)
    for orders in ((2, 2, 2), (3, 9), (2, 6), (4, 4), (2, 3, 5)):
        group = cyclic_product(*orders)
        groups += [group, relabelled(group, rng)]
    return groups


def test_greedy_generators_match_the_closures_from_the_identity():
    # the span grows by the new elements only; the constructor picks the
    # set once, and generators() hands it out without the memo
    for group in _structure_test_groups():
        fresh = FiniteGroup(group.table)
        assert fresh.generators() == greedy_generators_by_closures(group)
        assert fresh._memo == {}


def test_is_abelian_matches_the_transpose_and_is_kept():
    for group in _structure_test_groups():
        fresh = FiniteGroup(group.table)
        assert fresh.is_abelian() == (tuple(zip(*group.table)) == group.table)
        assert fresh._memo == {"is_abelian": fresh.is_abelian()}


def test_exponent_and_class_ids_match_their_definitions():
    for group in _structure_test_groups():
        orders = [group.element_order(a) for a in range(group.order)]
        assert group.exponent() == lcm(*orders)
        assert group.class_index() == class_index_by_conjugation(group)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["S3", "D4", "Q8", "S3xC2", "C6"]), st.data())
def test_is_normal_is_closure_under_conjugation(name, data):
    group = named_group(name)
    elems = data.draw(st.sets(st.integers(0, group.order - 1)))
    assert group.is_normal(elems) == is_normal_by_conjugation(group, elems)
    for sub in group.all_subgroups():
        assert group.is_normal(sub) == is_normal_by_conjugation(group, sub)


def test_direct_product_split_is_kept_on_the_group():
    for group in _structure_test_groups():
        split = detect_direct_product(group)
        assert detect_direct_product(group) is split
        assert group._memo["detect_direct_product"] is split


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


def test_all_subgroups_matches_extension_by_every_element():
    groups = [*monomial_test_groups().values(), FiniteGroup.cyclic(24),
              FiniteGroup.direct_product(named_group("C2"), named_group("C6"))]
    for group in groups:
        assert group.all_subgroups() == all_subgroups_by_closures(group)


def test_memo_builds_once_per_owner_and_key():
    group, other = FiniteGroup.cyclic(3), FiniteGroup.cyclic(3)
    builds = []

    def build(value):
        return lambda: builds.append(value) or value

    assert memo(group, ("k", 1), build("a")) == "a"
    assert memo(group, ("k", 1), build("b")) == "a"
    assert memo(group, ("k", 2), build("c")) == "c"
    assert memo(other, ("k", 1), build("d")) == "d"
    assert builds == ["a", "c", "d"]
    assert group._memo[("k", 1)] == "a" and other._memo == {("k", 1): "d"}


def test_memo_stores_nothing_when_the_build_raises():
    group = FiniteGroup.cyclic(2)
    calls = []

    def failing():
        calls.append(1)
        raise GroupError("bad input")

    for _ in range(2):
        with pytest.raises(GroupError, match="bad input"):
            memo(group, "failing", failing)
    assert len(calls) == 2 and "failing" not in group._memo


def _private_attribute_writes(tree):
    """(line, target) of each assignment to X._attr or X._attr[...] with X
    anything but the bare name ``self``."""
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        stack = list(targets)
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
                continue
            if isinstance(target, ast.Starred):
                stack.append(target.value)
                continue
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr.startswith("_") and \
                    not (isinstance(target.value, ast.Name) and target.value.id == "self"):
                yield node.lineno, ast.unparse(target)


def test_caches_on_other_objects_go_through_memo():
    # a module that fills another object's private slot keeps a cache that
    # memo does not see; every per-object cache is owner._memo, via memo
    src = os.path.dirname(skv.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            found += [(name, *hit) for hit in _private_attribute_writes(tree)]
    assert not found
    sample = ast.parse("fix._theta[key] = t\nself.table._group_ring[k] = c\n"
                       "self._memo = {}\nx, y._z = 1, 2\n")
    assert [line for line, _ in _private_attribute_writes(sample)] == [1, 2, 4]
