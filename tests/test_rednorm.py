"""Reduced norms, star adjoints, Fitting invariants, annihilation checks."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skv.arithdata import ExtensionFixture
from skv.characters import irreducibles_monomial
from skv.cyclotomic import Cyclo
from skv.errors import FixtureError, GroupError, InternalCheckError
from skv.groups import named_group
from skv.grouprings import CentralElement, GroupRingElement, central_unit
from skv.linalg import char_poly, mat_mul, selection_dets
from skv.rednorm import (FiniteGModule, FittingInvariant, annihilation_check,
                         apply_representation, certified_h_elements,
                         fitting_of_presentation, fixed_point_trace, grm_identity,
                         monomial_representation, reduced_norm,
                         reduced_norm_component, star_adjoint)

from conftest import fixture_path, ladder_fixture_writer
from oracles import (dense_trace, fitting_by_minors, fraction_exps, from_root_of_unity,
                     monomial_matrix, sigma_inverse, sigma_isomorphism,
                     star_adjoint_per_character)


def _tables():
    return {name: irreducibles_monomial(named_group(name))
            for name in ("S3", "D4", "Q8", "C6")}


TABLES = _tables()


def _random_matrix(group, b, rng, span=2):
    return [[GroupRingElement(group,
                              {g: rng.randint(-span, span)
                               for g in range(group.order)})
             for _ in range(b)] for _ in range(b)]


def test_monomial_representation_is_a_homomorphism():
    table = TABLES["S3"]
    group = table.group
    for i in range(len(table)):
        rep = monomial_representation(table, i)
        mats = [monomial_matrix(rep, g) for g in range(group.order)]
        for a in range(group.order):
            for b in range(group.order):
                prod = [[sum((mats[a][r][t] * mats[b][t][c]
                              for t in range(len(mats[0]))), Cyclo.zero())
                         for c in range(len(mats[0]))]
                        for r in range(len(mats[0]))]
                want = mats[group.mul(a, b)]
                assert all(prod[r][c] == want[r][c]
                           for r in range(len(prod))
                           for c in range(len(prod)))


def test_reduced_norm_of_identity_and_scalar():
    table = TABLES["Q8"]
    group = table.group
    ident = grm_identity(group, 2)
    nr = reduced_norm(ident, table)
    assert all(c == Cyclo.one() for c in nr.components)
    two = [[GroupRingElement.scalar(group, 2) if i == j
            else GroupRingElement(group) for j in range(2)] for i in range(2)]
    nr2 = reduced_norm(two, table)
    # component is 2^(2*deg) at each character
    for chi, c in zip(table, nr2.components):
        assert c == Cyclo.rational(2 ** (2 * chi.degree))


def test_reduced_norm_multiplicative():
    rng = random.Random(7)
    for name in ("S3", "D4"):
        table = TABLES[name]
        a = _random_matrix(table.group, 2, rng)
        b = _random_matrix(table.group, 2, rng)
        nr_a = reduced_norm(a, table)
        nr_b = reduced_norm(b, table)
        nr_ab = reduced_norm(mat_mul(a, b), table)
        assert nr_ab == nr_a * nr_b


def test_reduced_norm_requires_square():
    table = TABLES["S3"]
    group = table.group
    with pytest.raises(GroupError):
        reduced_norm([[GroupRingElement.basis(group, 0),
                       GroupRingElement.basis(group, 1)]], table)


def test_reduced_norm_is_built_from_its_components():
    rng = random.Random(5)
    for name in ("S3", "Q8"):
        table = TABLES[name]
        a = _random_matrix(table.group, 2, rng)
        assert reduced_norm(a, table).components == tuple(
            reduced_norm_component(a, table, i) for i in range(len(table)))
    group = TABLES["S3"].group
    with pytest.raises(GroupError, match="square"):
        reduced_norm_component([[GroupRingElement.basis(group, 0),
                                 GroupRingElement.basis(group, 1)]],
                               TABLES["S3"], 0)


def test_star_adjoint_defining_identity():
    rng = random.Random(11)
    for name in ("S3", "Q8"):
        table = TABLES[name]
        group = table.group
        h = _random_matrix(group, 2, rng, span=1)
        res = star_adjoint(h, table)
        nr_elem = res.norm.to_group_ring()
        prod = mat_mul(res.adjoint, h)
        prod2 = mat_mul(h, res.adjoint)
        for i in range(2):
            for j in range(2):
                want = nr_elem if i == j else GroupRingElement(group)
                assert prod[i][j] == want
                assert prod2[i][j] == want
        assert res.norm == reduced_norm(h, table)


def test_star_adjoint_rejects_non_integral():
    table = TABLES["S3"]
    group = table.group
    bad = [[GroupRingElement.scalar(group, Fraction(1, 2))]]
    with pytest.raises(GroupError):
        star_adjoint(bad, table)


def test_star_adjoint_contravariant():
    # (H K)* = K* H* up to the shared norm bookkeeping: check via the
    # defining identity, adj(HK) * (HK) = nr(HK)
    rng = random.Random(3)
    table = TABLES["D4"]
    h = _random_matrix(table.group, 2, rng, span=1)
    k = _random_matrix(table.group, 2, rng, span=1)
    hk = mat_mul(h, k)
    res_hk = star_adjoint(hk, table)
    res_h = star_adjoint(h, table)
    res_k = star_adjoint(k, table)
    glued = mat_mul(res_k.adjoint, res_h.adjoint)
    assert all(x == y for ra, rb in zip(glued, res_hk.adjoint)
               for x, y in zip(ra, rb))


def test_sigma_isomorphism_roundtrip_and_ring_map():
    c6 = named_group("C6")
    rng = random.Random(5)
    n = 2

    def rand_elem():
        return {c: [[Cyclo.rational(rng.randint(-2, 2)) for _ in range(n)]
                    for _ in range(n)] for c in range(c6.order)}

    x = rand_elem()
    y = rand_elem()
    mx = sigma_isomorphism(x, c6, n)
    my = sigma_isomorphism(y, c6, n)
    assert sigma_inverse(mx, c6, n).keys() <= set(range(6))
    back = sigma_isomorphism(sigma_inverse(mx, c6, n), c6, n)
    assert all(a == b for ra, rb in zip(mx, back) for a, b in zip(ra, rb))
    # multiplication in M_n(F)[C] corresponds to matrix multiplication
    prod = {}
    for c1, m1 in x.items():
        for c2, m2 in y.items():
            c = c6.mul(c1, c2)
            acc = prod.setdefault(c, [[Cyclo.zero()] * n for _ in range(n)])
            for i in range(n):
                for j in range(n):
                    acc[i][j] = acc[i][j] + sum(
                        (m1[i][t] * m2[t][j] for t in range(n)), Cyclo.zero())
    lhs = sigma_isomorphism(prod, c6, n)
    rhs = mat_mul(mx, my)
    assert all(a == b for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb))


def test_sigma_isomorphism_needs_abelian():
    with pytest.raises(GroupError):
        sigma_isomorphism({}, named_group("S3"), 1)


def test_fitting_of_wide_presentation_is_zero():
    table = TABLES["S3"]
    group = table.group
    h = [[GroupRingElement.basis(group, 1), GroupRingElement.basis(group, 2)]]
    fitt = fitting_of_presentation(h, table)
    assert fitt.zero and not fitt.quadratic
    assert all(c.is_zero() for c in fitt.generators[0].components)


def test_fitting_of_one_by_one_is_reduced_norm():
    table = TABLES["C6"]
    group = table.group
    x = GroupRingElement(group, {0: 2, 3: 1})
    fitt = fitting_of_presentation([[x]], table)
    assert fitt.quadratic and len(fitt.generators) == 1
    assert fitt.generators[0] == reduced_norm([[x]], table)


def test_fitting_row_selections():
    table = TABLES["S3"]
    group = table.group
    rows = [[GroupRingElement.basis(group, g)] for g in range(3)]
    fitt = fitting_of_presentation(rows, table)
    assert not fitt.quadratic and len(fitt.generators) == 3


def test_finite_module_validation():
    c2 = named_group("C2")
    with pytest.raises(FixtureError):
        FiniteGModule(c2, [3], {0: [[1]]})  # missing action for element 1
    with pytest.raises(FixtureError):
        FiniteGModule(c2, [3], {0: [[2]], 1: [[1]]})  # identity acts wrongly
    with pytest.raises(FixtureError):
        # action not a homomorphism: g^2 = e but matrix squared is not 1
        FiniteGModule(c2, [5], {0: [[1]], 1: [[2]]})
    m = FiniteGModule(c2, [5], {0: [[1]], 1: [[4]]})
    assert not m.is_trivial_module()
    assert FiniteGModule(c2, [1], {0: [[0]], 1: [[0]]}).is_trivial_module()


def test_module_group_ring_action():
    c2 = named_group("C2")
    m = FiniteGModule(c2, [5], {0: [[1]], 1: [[4]]})
    x = GroupRingElement(c2, {0: 2, 1: 3})
    # (2 + 3j) . 1 = 2 + 3*4 = 14 = 4 mod 5
    assert m.act_group_ring(x, [1]) == [4]
    half = GroupRingElement.scalar(c2, Fraction(1, 2))
    # 1/2 is invertible mod 5 (inverse 3)
    assert m.act_group_ring(half, [1]) == [3]
    bad = GroupRingElement.scalar(c2, Fraction(1, 5))
    with pytest.raises(FixtureError):
        m.act_group_ring(bad, [1])
    # denominators 2 and 3 over one denominator 6: invertible mod 5, not mod 3
    mixed = GroupRingElement(c2, {0: Fraction(1, 2), 1: Fraction(2, 3)})
    # 1/2 + (2/3) * 4 = 3 + 4 * 4 = 19 = 4 mod 5
    assert m.act_group_ring(mixed, [1]) == [4]
    m3 = FiniteGModule(c2, [3], {0: [[1]], 1: [[2]]})
    with pytest.raises(FixtureError, match="not invertible mod 3"):
        m3.act_group_ring(mixed, [1])


def test_certified_h_elements_and_annihilation():
    c2 = named_group("C2")
    table = irreducibles_monomial(c2)
    m = FiniteGModule(c2, [2], {0: [[1]], 1: [[1]]})
    one = CentralElement(table, [Cyclo.one(), Cyclo.one()])
    fitt = FittingInvariant([one], quadratic=True, zero=False)
    hs = certified_h_elements(table)
    assert len(hs) == 1 and hs[0][0] == "certified:|G|"
    verdict = annihilation_check(fitt, m, hs)
    assert verdict.ok  # |G| = 2 kills Z/2
    m5 = FiniteGModule(c2, [5], {0: [[1]], 1: [[1]]})
    verdict5 = annihilation_check(fitt, m5, hs)
    assert not verdict5.ok and verdict5.violations


small_ints = st.integers(min_value=-2, max_value=2)


@settings(max_examples=15, deadline=None)
@given(st.lists(small_ints, min_size=8, max_size=8),
       st.lists(small_ints, min_size=8, max_size=8))
def test_reduced_norm_multiplicative_q8_scalars(xs, ys):
    table = TABLES["Q8"]
    group = table.group
    a = [[GroupRingElement(group, {g: xs[g] for g in range(8)})]]
    b = [[GroupRingElement(group, {g: ys[g] for g in range(8)})]]
    assert reduced_norm(mat_mul(a, b), table) == \
        reduced_norm(a, table) * reduced_norm(b, table)


# -- differential tests against the Cyclo-matrix construction -------------

DIFF_TABLES = {"S3": TABLES["S3"], "Q8": TABLES["Q8"],
               **{name: ExtensionFixture.load(fixture_path(name)).table
                  for name in ("s3c2", "q_zeta23")}}


def _matrices_from_certificate(table, i):
    """Oracle: the representation's Cyclo matrices, one per group element,
    built entry by entry from the certificate as before the monomial data."""
    group = table.group
    cert = table.certificates[i]
    exps = fraction_exps(cert)
    u_set = set(cert.u_elems)
    reps = group.coset_reps(sorted(u_set))
    d = len(reps)
    mats = []
    for g in range(group.order):
        m = [[Cyclo.zero() for _ in range(d)] for _ in range(d)]
        for j, xj in enumerate(reps):
            gx = group.mul(g, xj)
            for r, xi in enumerate(reps):
                y = group.mul(group.inverse(xi), gx)
                if y in u_set:
                    m[r][j] = from_root_of_unity(exps[y])
                    break
        mats.append(m)
    return mats


def _apply_by_running_sum(mats, a):
    """Oracle: apply_representation as a running Cyclo sum per entry."""
    b = len(a)
    d = len(mats[0])
    n = b * d
    out = [[Cyclo.zero() for _ in range(n)] for _ in range(n)]
    for s in range(b):
        for t in range(len(a[0])):
            for g, c in a[s][t].items():
                rho = mats[g]
                for i in range(d):
                    for j in range(d):
                        if not rho[i][j].is_zero():
                            out[s * d + i][t * d + j] = (
                                out[s * d + i][t * d + j] + c * rho[i][j]
                            )
    return out


def _keys(mat):
    return [[(x.order, x.num, x.den) for x in row] for row in mat]


def test_monomial_matrices_match_the_certificate_construction():
    for table in DIFF_TABLES.values():
        for i in range(len(table)):
            rep = monomial_representation(table, i)
            old = _matrices_from_certificate(table, i)
            assert [_keys(monomial_matrix(rep, g)) for g in range(table.group.order)] \
                == [_keys(m) for m in old]


RATIONAL_COEFFS = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.sampled_from((Fraction(1, 2), Fraction(-2, 3))))


@st.composite
def represented_matrices(draw):
    """A table, a character index and a b x b matrix over the group ring,
    b <= 2, whose entries have up to three terms.  Some first entries get
    a pair of terms c * g - c * zeta * h, zeta = +-1, whose images cancel
    in one block entry."""
    name = draw(st.sampled_from(sorted(DIFF_TABLES)))
    table = DIFF_TABLES[name]
    i = draw(st.integers(0, len(table) - 1))
    b = draw(st.integers(1, 2))
    elems = st.integers(0, table.group.order - 1)
    a = [[GroupRingElement(table.group, dict(draw(st.lists(st.tuples(elems, RATIONAL_COEFFS),
                                                           max_size=3))))
          for _ in range(b)] for _ in range(b)]
    g = draw(elems)
    rep = monomial_representation(table, i)
    # h whose image has an entry in a row of g's at zeta = +-1 times g's
    partners = {h: 1 if (k - k2) % rep.order == 0 else -1
                for h in range(table.group.order) if h != g
                for (r, k), (r2, k2) in zip(rep.columns[g], rep.columns[h])
                if r == r2 and 2 * (k - k2) % rep.order == 0}
    if partners and draw(st.booleans()):
        h = draw(st.sampled_from(sorted(partners)))
        c = draw(RATIONAL_COEFFS)
        a[0][0] = GroupRingElement(table.group, {g: c, h: -c * partners[h]})
    return table, i, a


@settings(max_examples=120, deadline=None)
@given(represented_matrices())
def test_apply_representation_matches_running_sum_exactly(case):
    table, i, a = case
    rep = monomial_representation(table, i)
    old = _apply_by_running_sum(_matrices_from_certificate(table, i), a)
    assert _keys(apply_representation(rep, a)) == _keys(old)


def test_trace_check_fires_on_any_corrupted_value(fixtures):
    # on a fresh table each time, class by class: a character of degree 2
    # with one value changed, and a linear character of an abelian and of
    # a non-abelian table with one integer power changed, on the character
    # or on its certificate's psi at the class's first element
    def fresh(group, i):
        table = irreducibles_monomial(group)
        return table, table.chars[i], table.certificates[i]

    def raises(table, i):
        with pytest.raises(InternalCheckError, match="trace mismatch"):
            monomial_representation(table, i)

    for name in ("q_zeta23", "s3c2"):
        group, shipped = fixtures[name].group, fixtures[name].table
        classes = group.conjugacy_classes()
        linear = max((j for j, chi in enumerate(shipped) if chi.degree == 1),
                     key=lambda j: (shipped.certificates[j].order, j))
        assert shipped.certificates[linear].order > 1
        for c, cls in enumerate(classes):
            table, chi, cert = fresh(group, linear)
            chi.powers = tuple((k + 1) % chi.order if t == c else k
                               for t, k in enumerate(chi.powers))
            raises(table, linear)
            table, chi, cert = fresh(group, linear)
            cert.powers = {y: (k + 1) % cert.order if y == cls[0] else k
                           for y, k in cert.powers.items()}
            raises(table, linear)
        if name == "s3c2":
            i = max(range(len(shipped)), key=lambda j: (shipped[j].degree, j))
            assert shipped[i].degree == 2
            for c in range(len(classes)):
                table, chi, _ = fresh(group, i)
                chi.values = tuple(v + 1 if k == c else v for k, v in enumerate(chi.values))
                raises(table, i)


def test_linear_character_with_a_proper_certificate_subgroup_fails_the_trace_check(fixtures):
    # psi on a proper U induces a character of degree [G:U], not 1
    table = irreducibles_monomial(fixtures["s3c2"].group)
    i = next(j for j, chi in enumerate(table) if chi.degree == 2)
    j = next(j for j, chi in enumerate(table) if chi.degree == 1)
    table.certificates[j] = table.certificates[i]
    with pytest.raises(InternalCheckError, match="trace mismatch at element 0"):
        monomial_representation(table, j)


def test_sparse_trace_equals_the_dense_weights(fixtures):
    for fix in fixtures.values():
        table = fix.table
        ids = table.group.class_index()
        for i, chi in enumerate(table):
            rep = monomial_representation(table, i)
            for g, column in enumerate(rep.columns):
                order = chi.values[ids[g]].order
                for m in (order, 2 * order):
                    want = dense_trace(column, rep.order, m)
                    assert (m, fixed_point_trace(column, rep.order, m), 1) == \
                        (want.order, want.num, want.den)


# -- Fitting invariants from the blocks of the whole presentation ----------

FITTING_SHAPES = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]


def _sparse_presentation(group, a, b, rng):
    """An a x b integral presentation with zero to two terms per entry."""
    return [[GroupRingElement(group, {g: rng.choice((-2, -1, 1, 2))
                                      for g in rng.sample(range(group.order),
                                                          rng.choice((0, 1, 1, 2)))})
             for _ in range(b)] for _ in range(a)]


def _components(x):
    return [(c.order, c.num, c.den) for c in x.components]


@pytest.mark.parametrize("name", ["s3c2", "q_zeta23"])
def test_fitting_equals_the_reduced_norm_of_each_minor(name):
    table = DIFF_TABLES[name]
    rng = random.Random(7)
    for a, b in FITTING_SHAPES * 2:
        h = _sparse_presentation(table.group, a, b, rng)
        fitt = fitting_of_presentation(h, table)
        minors = list(itertools.combinations(range(a), b))
        assert len(fitt.generators) == len(minors)
        for rows, gen in zip(minors, fitt.generators):
            sub = [h[r] for r in rows]
            assert _components(gen) == _components(reduced_norm(sub, table))
            # each component straight from the minor's own block
            assert _components(gen) == [
                (c.order, c.num, c.den)
                for c in (reduced_norm_component(sub, table, i)
                          for i in range(len(table)))]


WIDE_SHAPES = [(a, b) for b in (1, 2, 3, 4) for a in (b, b + 1, b + 2)]


@pytest.mark.parametrize("name", ["S3", "Q8", "s3c2", "q_zeta23"])
def test_fitting_equals_the_per_minor_elimination(name):
    # every generator, component by component in (order, num, den), as
    # each minor's own elimination gave it
    table = DIFF_TABLES[name]
    rng = random.Random(11)
    for a, b in WIDE_SHAPES:
        h = _sparse_presentation(table.group, a, b, rng)
        got = fitting_of_presentation(h, table).generators
        want = fitting_by_minors(h, table)
        assert [_components(x) for x in got] == [_components(x) for x in want], (a, b)


def test_fitting_inverts_each_shared_pivot_once(monkeypatch):
    # a 4 x 3 presentation on s3c2 with random coefficients up to 10^6,
    # whose blocks have no zero entry: every minor inverts each pivot but
    # its last two.  At a linear character
    # the minors (0, 1, 2), (0, 1, 3) and (0, 2, 3) share the pivot row 0
    # and (1, 2, 3) takes row 1: 2 inverses, not 4.  At a character of
    # degree 2 the first two minors share all four pivots, (0, 2, 3)
    # shares two of them, and (1, 2, 3) shares none: 4 + 2 + 4 = 10, not 16
    import skv.rednorm as rednorm
    table = DIFF_TABLES["s3c2"]
    group = table.group
    rng = random.Random(4)
    h = [[GroupRingElement(group, {g: rng.randint(1, 10 ** 6) for g in range(group.order)})
          for _ in range(3)] for _ in range(4)]
    inverses, per_character = [], []
    real = Cyclo.inverse
    monkeypatch.setattr(Cyclo, "inverse", lambda x: inverses.append(x) or real(x))

    def counted(m, rows):
        assert all(not x.is_zero() for row in m for x in row)
        start = len(inverses)
        dets = selection_dets(m, rows)
        per_character.append(len(inverses) - start)
        return dets

    monkeypatch.setattr(rednorm, "selection_dets", counted)
    fitting_of_presentation(h, table)
    degrees = [chi.degree for chi in table]
    assert not table.galois_fills() and degrees == [1, 1, 1, 1, 2, 2]
    assert per_character == [2 if d == 1 else 10 for d in degrees]
    # each minor on its own: 4 per linear character, 16 per degree 2
    monkeypatch.setattr(rednorm, "selection_dets", selection_dets)
    del inverses[:]
    fitting_by_minors(h, table)
    assert len(inverses) == 4 * 4 + 2 * 16


def _det_calls(monkeypatch, h, table):
    """The determinants that ``fitting_of_presentation(h, table)`` takes
    from ``selection_dets``, in call order: per computed character, one
    per minor."""
    import skv.rednorm as rednorm
    calls = []

    def record(m, rows):
        dets = selection_dets(m, rows)
        calls.extend(dets)
        return dets

    monkeypatch.setattr(rednorm, "selection_dets", record)
    fitting_of_presentation(h, table)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name", ["s3c2", "q_zeta23"])
def test_fitting_galois_check_catches_one_corrupted_minor_component(name, monkeypatch):
    import skv.rednorm as rednorm
    table = DIFF_TABLES[name]
    for seed in range(3, 8):
        h = _sparse_presentation(table.group, 3, 2, random.Random(seed))
        calls = len(_det_calls(monkeypatch, h, table))  # passes uncorrupted
        assert calls == 18  # one determinant per minor and computed character
        for target in range(calls):
            count = itertools.count()

            def corrupted(m, rows, target=target, count=count):
                return [det + Cyclo.zeta(4) if next(count) == target else det
                        for det in selection_dets(m, rows)]

            monkeypatch.setattr(rednorm, "selection_dets", corrupted)
            with pytest.raises(InternalCheckError, match="Galois"):
                fitting_of_presentation(h, table)
            monkeypatch.undo()


def test_fitting_computes_one_pair_per_galois_orbit(monkeypatch):
    # C22 has Galois orbits of sizes 1, 1, 10 and 10: each orbit's first
    # member and one conjugate are computed, the other 16 are filled
    import skv.rednorm as rednorm
    table = DIFF_TABLES["q_zeta23"]
    assert sorted(map(len, table.galois_orbits())) == [1, 1, 10, 10]
    h = _sparse_presentation(table.group, 3, 2, random.Random(3))
    assert len(_det_calls(monkeypatch, h, table)) == 3 * 6
    used = []
    monkeypatch.setattr(rednorm, "monomial_representation",
                        lambda t, i: used.append(i) or monomial_representation(t, i))
    fitting_of_presentation(h, table)
    orbit_starts = [orbit[0] for orbit in table.galois_orbits()]
    assert len(used) == 6 and set(orbit_starts) <= set(used)
    # no presentation has a non-rational entry: it is not over QG
    with pytest.raises(GroupError, match="over QG"):
        h[0][0] = h[0][0] + GroupRingElement(table.group, {0: Cyclo.zeta(4)})
        fitting_of_presentation(h, table)
    with pytest.raises(GroupError, match="over QG"):
        reduced_norm([[h[0][0] * Cyclo.zeta(4)]], table)


def _assert_fitting_matches_each_component(h, table):
    fitt = fitting_of_presentation(h, table)
    minors = list(itertools.combinations(range(len(h)), len(h[0])))
    assert len(fitt.generators) == len(minors)
    for rows, gen in zip(minors, fitt.generators):
        sub = [h[r] for r in rows]
        assert _components(gen) == [
            (c.order, c.num, c.den)
            for c in (reduced_norm_component(sub, table, i) for i in range(len(table)))]


def test_fitting_computes_a_conjugate_whose_certificate_is_no_galois_image(monkeypatch):
    from skv.characters import CharacterTable, MonomialCertificate
    shared = DIFF_TABLES["q_zeta23"]
    h = _sparse_presentation(shared.group, 3, 2, random.Random(5))
    j = max(shared.galois_fills())
    certs = list(shared.certificates)
    cert = certs[j]
    # the same subgroup and character, listed in another order, in a fresh
    # table, since each table builds its fill map once
    certs[j] = MonomialCertificate(cert.u_elems[::-1], cert.order, cert.powers)
    table = CharacterTable(shared.group, shared.chars, certs)
    assert j in shared.galois_fills() and j not in table.galois_fills()
    assert len(_det_calls(monkeypatch, h, table)) == 3 * 7
    _assert_fitting_matches_each_component(h, table)


def test_fitting_matches_each_component_on_a_ladder_group(tmp_path):
    # C46, the group of Q(zeta_47): Galois orbits of sizes 1, 1, 22 and 22
    table = ExtensionFixture.load(ladder_fixture_writer()(47, str(tmp_path))).table
    assert sorted(map(len, table.galois_orbits())) == [1, 1, 22, 22]
    rng = random.Random(11)
    for a, b in ((1, 1), (2, 1), (3, 2)):
        _assert_fitting_matches_each_component(
            _sparse_presentation(table.group, a, b, rng), table)


def test_fitting_rejects_a_ragged_presentation():
    table = DIFF_TABLES["s3c2"]
    one = GroupRingElement.basis(table.group, 0)
    for h in ([[one, one], [one]], [[one, one], [one, one, one], [one, one]]):
        with pytest.raises(GroupError, match="square"):
            fitting_of_presentation(h, table)


# -- the star adjoint as a polynomial in A with rational coefficients ------


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "C6", "q_zeta23"])
def test_star_adjoint_matches_the_per_character_gluing(name):
    table = {**TABLES, **DIFF_TABLES}[name]
    group = table.group
    rng = random.Random(13)
    matrices = [_sparse_presentation(group, b, b, rng) for b in (1, 2, 2)]
    # times 1 - g on the left, the first row vanishes under every character
    # trivial at g, and so does the reduced norm
    one_minus_g = GroupRingElement(group, {0: 1, 1: -1})
    matrices += [[[one_minus_g * x for x in h[0]], *h[1:]] for h in matrices]
    singular = 0
    for h in matrices:
        res = star_adjoint(h, table)
        assert res.adjoint == star_adjoint_per_character(h, table)
        singular += any(c.is_zero() for c in res.norm.components)
    assert singular >= 3


def test_star_adjoint_takes_six_char_polys(fixtures, monkeypatch):
    # characteristic polynomials are taken only at the 6 of 22 characters
    # that the fill map leaves out
    import skv.rednorm as rednorm
    table = irreducibles_monomial(fixtures["q_zeta23"].group)  # no kept transforms
    polys = []
    monkeypatch.setattr(rednorm, "char_poly", lambda m: polys.append(m) or char_poly(m))
    star_adjoint([[GroupRingElement(table.group, {0: 2, 1: 1})]], table)
    assert len(polys) == len(table) - len(table.galois_fills()) == 6


def _corrupt_char_poly(monkeypatch, block, j, delta):
    """Add delta to f[j] of the characteristic polynomial of ``block``."""
    import skv.rednorm as rednorm

    def corrupted(m):
        f = char_poly(m)
        if m == block:
            f[j] = f[j] + delta
        return f
    monkeypatch.setattr(rednorm, "char_poly", corrupted)


def test_star_adjoint_catches_a_corrupted_char_poly_coefficient(monkeypatch):
    # on C22: a non-rational coefficient at a rational character fails the
    # Galois check (sigma_k must fix it), a rational one the identity, and
    # any change at the computed partner of an orbit of size 10 fails the
    # Galois check, which compares it with sigma_k of the orbit's first
    table = DIFF_TABLES["q_zeta23"]
    group = table.group
    h = [[GroupRingElement(group, {0: 2, 1: 1}), GroupRingElement(group, {3: 1})],
         [GroupRingElement(group, {5: -1}), GroupRingElement(group, {0: 3, 2: 1})]]
    star_adjoint(h, table)  # passes uncorrupted
    fills = table.galois_fills()
    rational = next(o[0] for o in table.galois_orbits() if len(o) == 1 and o[0] != 0)
    orbit = next(o for o in table.galois_orbits() if len(o) == 10)
    partner = next(i for i in orbit[1:] if i not in fills)
    cases = [(rational, Cyclo.zeta(4), "star adjoint: components not Galois-equivariant"),
             (rational, Cyclo.one(), "star adjoint identity failed at character"),
             (partner, Cyclo.one(), "star adjoint: components not Galois-equivariant"),
             (partner, Cyclo.zeta(4), "star adjoint: components not Galois-equivariant")]
    for i, delta, message in cases:
        block = apply_representation(monomial_representation(table, i), h)
        for j in (1, 2):
            _corrupt_char_poly(monkeypatch, block, j, delta)
            with pytest.raises(InternalCheckError, match=message):
                star_adjoint(h, table)
            monkeypatch.undo()


def test_star_adjoint_rejects_a_non_rational_entry():
    table = TABLES["C6"]
    with pytest.raises(GroupError, match="over QG"):
        star_adjoint([[GroupRingElement(table.group, {0: Cyclo.zeta(3), 1: 1})]], table)


def test_star_adjoint_of_the_empty_matrix():
    # the empty product: no adjoint entries, and the unit as the norm, as
    # for the reduced norm of the 0 x 0 matrix
    table = TABLES["S3"]
    res = star_adjoint([], table)
    assert res.adjoint == []
    assert res.norm == central_unit(table) == reduced_norm([], table)
