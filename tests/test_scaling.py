"""Scaling gates for the exact core on the cyclic group of order 128, for
the L-value layer at Q(zeta_107), for the bounded nr-search on a
non-abelian group of order 64, and for `check all` on the ladder fields
Q(zeta_p) for p = 31, 47, 71, 107, 257 and 521; and the pinned report of
`check all` on Q(zeta_1021), whose group of order 1020 is near the
group-order cap of 1024."""

import contextlib
import hashlib
import io
import time
from fractions import Fraction

import pytest

from skv.characters import irreducibles_monomial
from skv.cli import main
from skv.cyclotomic import Cyclo
from skv.grouprings import CentralElement, GroupRingElement
from skv.groups import FiniteGroup
from skv.lvalues import (DirichletCharacter, L_at_nonpositive, _primitive_L,
                         characters_mod)
from skv.rednorm import reduced_norm
from skv.verify import _bounded_nr_search

from conftest import ladder_fixture_writer

#: Seconds allowed for each gate.  It took about 0.5 s on a 2-CPU
#: x86-64 host, against about 18 s when abelian tables were induced,
#: Galois permutations came from conjugating whole characters and the
#: transform summed Cyclo products over every character.
LIMIT_S = 5.0


@pytest.mark.slow
def test_cyclic_128_table_galois_check_and_transform():
    t0 = time.perf_counter()
    group = FiniteGroup.cyclic(128)
    table = irreducibles_monomial(group)
    assert len(table) == 128
    # x = g1 + 2 g5 - g64 / 3 has the components chi(x) of an element of Q[G]
    x = {1: Fraction(1), 5: Fraction(2), 64: Fraction(-1, 3)}
    ids = group.class_index()
    comps = [sum((chi.values[ids[g]] * q for g, q in x.items()), start=Cyclo.zero())
             for chi in table]
    table.check_galois(comps, "cyclic 128")  # cold: the memo is empty
    cent = CentralElement(table, comps)
    elem = cent.to_group_ring()
    elapsed = time.perf_counter() - t0
    assert elem == GroupRingElement(group, x)
    assert cent._gives_back(*cent._orbit_traces())
    assert elapsed < LIMIT_S, f"{elapsed:.2f} s"


@pytest.mark.slow
def test_checked_characters_and_l_values_mod_107():
    # as two theta builds on Q(zeta_107) would: check every character,
    # conjugate it and take L(0) of its primitive core, twice over; this
    # took about 0.7 s on a 2-CPU x86-64 host, against about 1.6 s with the
    # all-pairs multiplicativity check and no L-value memo
    _primitive_L.cache_clear()
    t0 = time.perf_counter()
    rounds = []
    for _ in range(2):
        values = []
        for chi in characters_mod(107):
            check = DirichletCharacter(107, chi.order, {a: -k for a, k in chi.powers.items()})
            values.append(L_at_nonpositive(0, check.primitive_core()))
        rounds.append(values)
    elapsed = time.perf_counter() - t0
    assert len(rounds[0]) == 106 and rounds[0] == rounds[1]
    # L(0, chi) vanishes exactly at the even characters other than the trivial one
    assert sum(v.is_zero() for v in rounds[0]) == 52
    assert _primitive_L.cache_info().misses == 106
    assert elapsed < LIMIT_S, f"{elapsed:.2f} s"


@pytest.mark.slow
def test_bounded_nr_search_on_dihedral_64():
    # nr(2) has no witness of support <= 2 and height 1; each of the 2016
    # pairs g + h matches its trivial component 2 and is rejected only at a
    # later character.  The search over all 8192 candidates took about
    # 0.6 s on a 2-CPU x86-64 host, against about 29 s with a full reduced
    # norm per candidate
    t0 = time.perf_counter()
    rotation = [(i + 1) % 32 for i in range(32)]
    reflection = [-i % 32 for i in range(32)]
    group = FiniteGroup.from_permutations([rotation, reflection])
    table = irreducibles_monomial(group)
    target = reduced_norm([[GroupRingElement.scalar(group, 2)]], table)
    witness = _bounded_nr_search(table, target)
    elapsed = time.perf_counter() - t0
    assert group.order == 64 and not group.is_abelian()
    assert witness is None
    assert elapsed < LIMIT_S, f"{elapsed:.2f} s"


#: Exit code and stdout sha256 of `check all` on the ladder fixture
#: Q(zeta_p), as `tools/make_fixtures.py` writes it: every suite verifies
#: except Brumer, which has no class group and is inconclusive.
LADDER_REPORTS = {
    31: (2, "1653a3d3b8c479232bf157baf34c68a806716cf59c879255677e82c23501a54e"),
    47: (2, "277ca08b1a4a7fce310b022954b732d0e7fb2925049e7b0fd06fdbd55b0ed4ba"),
    71: (2, "9a02ceb1ed315d2dbb155c946cdc71effa7d5cb563bdcca5bb4c726a2fcfef52"),
    107: (2, "c979c771891ea1c47f2ab14b96df870be8aef57c7e84edba760eced7440ea525"),
    257: (2, "aae0eacbeede0630ecab2638e8b97d4edc624d98d189c2001516f228845df3ea"),
    521: (2, "2e20931d2af99dfbef4ac510b0b49b4490ab138b6eff73d8703eb3d1e422e5ed"),
}

#: The same for Q(zeta_1021), recorded when the group-order cap went from
#: 128 to 1024 and before any change to the abelian character table.
LADDER_1021_REPORT = (2, "b3e56c97342b9fb45cf66ac3b1872407bc19d4b3498c15ec7f8f0eaab63fd0af")


def _check_all_on_ladder(write, p, directory):
    """(exit code, stdout sha256) of `check all` on Q(zeta_p), and seconds."""
    path = write(p, directory)
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = main(["check", "all", "--fixture", path])
    elapsed = time.perf_counter() - t0
    return (rc, hashlib.sha256(out.getvalue().encode()).hexdigest()), elapsed


@pytest.mark.slow
def test_check_all_on_the_ladder_fields(tmp_path):
    # `check all` on Q(zeta_107) took about 0.6 s on a 2-CPU x86-64 host,
    # against about 1.3 s when the fixture load built subgroup and quotient
    # groups, the trivial product split searched every subgroup and built
    # a second table, and characters kept Fraction exponents; Q(zeta_521)
    # took about 1.9 s when the group-order cap was lifted
    write = ladder_fixture_writer()
    for p, want in LADDER_REPORTS.items():
        got, elapsed = _check_all_on_ladder(write, p, str(tmp_path))
        assert got == want, p
        assert elapsed < LIMIT_S, f"p = {p}: {elapsed:.2f} s"


@pytest.mark.slow
def test_check_all_on_q_zeta_1021(tmp_path):
    # the report only; this took about 8 s on a 2-CPU x86-64 host when the
    # cap was lifted, and about 3.5 s once abelian tables came from
    # coordinates
    got, _ = _check_all_on_ladder(ladder_fixture_writer(), 1021, str(tmp_path))
    assert got == LADDER_1021_REPORT
