"""Matrices over group rings: representations, reduced norms, star adjoints,
Fitting invariants of finite presentations, and annihilation checks.

Reduced norms are computed through monomial representations, one per
irreducible character, each stored as integer data: per group element and
column, the row of its one nonzero entry and that entry's exponent as a
root of unity.  A linear character is its own 1 x 1 representation,
read straight from its certificate (G, psi) and checked against the
character's integer powers; only irreducibles of degree two or more are
built on cosets and checked with ``fixed_point_trace``.  A block matrix
is built from that data with each entry added up in integers and reduced
once.  Every star adjoint is verified against its defining identity
before being returned.

The minors of a Fitting invariant are row selections of one
presentation: at each irreducible, the block of the whole presentation is
built once, and ``linalg.selection_dets`` eliminates all selections of
its rows together, so a pivot inverse or row update that several minors
share is made once; every minor still gets the value and order that its
own elimination gives.

Every matrix is over QG, since a ``GroupRingElement`` holds integer
numerators over one denominator.  The reduced norm of such a matrix is
Galois-equivariant: its component at sigma_k(chi) is
sigma_k of its component at chi.  So it is built by
``CentralElement.from_orbits`` on the table's fill map
(``CharacterTable.galois_fills``): in each Galois orbit of characters only
the first member and one conjugate of it get a representation and a
determinant; every other member whose certificate is the sigma_k-image of
the first one's is filled: its component is sigma_k of that component,
which is the value, at the order, its own determinant would give, and it
is made only when every component is read (the ``fitting`` output).  The
Galois self-check runs once per orbit on the computed components, and it
compares the two members computed independently, so a wrong determinant
anywhere still fails it.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .characters import CharacterTable
from .cyclotomic import Cyclo, order_data
from .errors import FixtureError, GroupError, InternalCheckError
from .grouprings import CentralElement, GroupRingElement, central_unit
from .groups import memo
from .linalg import char_poly, mat_add, mat_det, mat_mul, selection_dets

# -- monomial representations -------------------------------------------


class MonomialRepresentation:
    """An irreducible representation in monomial form: rho(g) sends the
    j-th basis vector to zeta_N^k times the i-th, for
    ``(i, k) = columns[g][j]``, where N (``order``) is the order of the
    certificate's linear character."""

    __slots__ = ("degree", "order", "columns")

    def __init__(self, degree: int, order: int, columns):
        self.degree = degree
        self.order = order
        self.columns = columns


def monomial_representation(table: CharacterTable, chi_index: int) -> MonomialRepresentation:
    """The chi_index-th irreducible in monomial form, realized from the
    stored certificate (U, psi) on the left cosets x_i U; its trace is
    checked against the character at every class.  A linear character
    has U = G and is psi itself, one 1 x 1 column per element, and its
    check is in integers: zeta_N^p = zeta_n^k, for psi(g) = zeta_N^p and
    the character's power k of zeta_n at g's class, exactly when
    p n = k N mod N n."""
    def build():
        group = table.group
        cert = table.certificates[chi_index]
        chi = table.chars[chi_index]
        n, power = cert.order, cert.powers
        classes = group.conjugacy_classes()
        if chi.degree == 1:
            # a proper U would give degree [G:U] > 1, the trace at 1
            if len(cert.u_elems) != group.order:
                raise InternalCheckError("monomial representation trace mismatch at element 0")
            m = chi.order
            for cls, k in zip(classes, chi.powers):
                if (power[cls[0]] * m - k * n) % (n * m):
                    raise InternalCheckError(
                        f"monomial representation trace mismatch at element {cls[0]}")
            return MonomialRepresentation(1, n, [((0, power[g]),) for g in range(group.order)])
        reps = group.coset_reps(cert.u_elems)
        # coset[h] = (i, k) for h = x_i * y with y in U and psi(y) = zeta_N^k
        coset = [None] * group.order
        for i, x in enumerate(reps):
            for y in cert.u_elems:
                coset[group.mul(x, y)] = (i, power[y])
        columns = [tuple(coset[group.mul(g, x)] for x in reps) for g in range(group.order)]
        # the trace must reproduce the character exactly at every class, in
        # (num, den) at the order the value is stored at
        for cls, value in zip(classes, chi.values):
            g = cls[0]
            if value.order % n or \
                    (fixed_point_trace(columns[g], n, value.order), 1) != (value.num, value.den):
                raise InternalCheckError(
                    f"monomial representation trace mismatch at element {g}"
                )
        return MonomialRepresentation(len(reps), n, columns)
    return memo(table, ("monomial_representation", chi_index), build)


def fixed_point_trace(column, n: int, order: int) -> tuple[int, ...]:
    """Power-basis numerators, over the denominator 1, of the trace of a
    monomial matrix given by its columns: the sum of zeta_n^k over the
    columns j whose entry (i, k) sits on the diagonal, i == j, written in
    Q(zeta_order) for n | order.  Each of these at most ``degree`` roots of
    unity is added as its reduced power; no vector of length ``order`` is
    built."""
    step = order // n
    return tuple(order_data(order).numerators(
        (k * step, 1) for j, (i, k) in enumerate(column) if i == j))


# -- group-ring matrices --------------------------------------------------


def grm_identity(group, n: int):
    one = GroupRingElement.basis(group, 0)
    zero = GroupRingElement(group)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def grm_is_integral(a) -> bool:
    return all(entry.is_integral() for row in a for entry in row)


def apply_representation(rep: MonomialRepresentation, a):
    """Apply a representation of degree d entrywise to a matrix over QG of
    r rows, the longest with c entries, producing the blown-up (r d) x
    (c d) cyclotomic block matrix; row s of ``a`` becomes the d rows from
    s * d on.  A block entry is the sum of (a / D) * zeta_N^k over its
    terms, a an integer numerator and D the denominator of the matrix
    entry; it is added up as integer weights on the L-th roots of unity,
    L the lcm of N / gcd(k, N) over the terms, and reduced once, which
    gives the value and order of the running Cyclo sum.  An entry with no
    terms is Cyclo.zero()."""
    d, columns = rep.degree, rep.columns
    width = max(map(len, a), default=0) * d
    zero = Cyclo.zero()
    out = [[zero] * width for _ in range(len(a) * d)]
    for s, row in enumerate(a):
        for t, entry in enumerate(row):
            terms = {}  # (i, j) -> [(c, k), ...]
            for g, c in enumerate(entry.nums):
                if c:
                    for j, (i, k) in enumerate(columns[g]):
                        terms.setdefault((i, j), []).append((c, k))
            for (i, j), block_terms in terms.items():
                out[s * d + i][t * d + j] = _block_entry(block_terms, rep.order, entry.den)
    return out


def _block_entry(terms, n: int, den: int) -> Cyclo:
    """Sum of (a / den) * zeta_n^k over the (a, k) in terms, a an integer,
    at the lcm of the orders of the roots of unity."""
    order = lcm(*(n // gcd(k, n) for _, k in terms))
    num = order_data(order).numerators((k * order // n % order, a) for a, k in terms)
    return Cyclo.from_numerators(order, num, den)


# -- reduced norm and star adjoint ---------------------------------------


def reduced_norm_component(a, table: CharacterTable, i: int) -> Cyclo:
    """Component of the reduced norm of a square group-ring matrix at the
    i-th irreducible: the determinant of its blown-up block."""
    if any(len(row) != len(a) for row in a):
        raise GroupError("reduced norm requires a square matrix")
    return mat_det(apply_representation(monomial_representation(table, i), a))


def reduced_norm(a, table: CharacterTable) -> CentralElement:
    """Reduced norm of a square matrix over QG, as a central element (one
    component per irreducible; see ``_represented``)."""
    return _minor_norms(a, [range(len(a))], table)[0]


def _represented(a, table: CharacterTable):
    """Per character, the degree of the irreducible and the block matrix
    of ``a`` under its monomial representation, or None for a character
    that the table's ``galois_fills`` fills: its reduced-norm components
    are sigma_k images, because its block is sigma_k of the block at its
    orbit's first member with the same orders (the fill map matches the
    certificates, and ``a`` is over QG)."""
    fills = table.galois_fills()
    blocks = []
    for i in range(len(table)):
        if i in fills:
            blocks.append(None)
        else:
            rep = monomial_representation(table, i)
            blocks.append((rep.degree, apply_representation(rep, a)))
    return blocks


def _minor_norms(a, selections, table: CharacterTable) -> list[CentralElement]:
    """Reduced norm of the matrix made of the given rows of the matrix
    ``a`` over QG, for each selection of rows.  Each must be square.  At
    an irreducible of degree d, the component is the determinant of the
    d rows from r * d on of the ``_represented`` block of all of ``a``,
    for each selected row r; one ``selection_dets`` call per character
    gives those of every selection, and its row states last only for that
    call.  At a filled character, the component is sigma_k of the one at
    its orbit's first member, made when read.  The computed components of
    each selection must pass the Galois self-check."""
    selections = [tuple(rows) for rows in selections]
    blocks = _represented(a, table)
    if any(len(a[r]) != len(rows) for rows in selections for r in rows):
        raise GroupError("reduced norm requires a square matrix")
    dets = []
    for block in blocks:
        if block is None:
            dets.append(None)
        else:
            d, m = block
            dets.append(selection_dets(m, [[r * d + j for r in rows for j in range(d)]
                                           for rows in selections]))
    return [CentralElement.from_orbits(table, lambda i, s=s: dets[i][s], "reduced norm")
            for s in range(len(selections))]


class StarAdjointResult:
    """Adjoint matrix and reduced norm, satisfying H* H = H H* = nr(H) I."""

    def __init__(self, adjoint, norm: CentralElement):
        self.adjoint = adjoint
        self.norm = norm


def star_adjoint(a, table: CharacterTable) -> StarAdjointResult:
    """Star adjoint of a square integral matrix A over ZG.

    At a character chi whose block rho(A) is m x m with characteristic
    polynomial f, Cayley-Hamilton gives the block of the adjoint as
    sum_(j >= 1) c_j rho(A)^(j - 1), with c_j = (-1)^(m - 1) f[j].  Since
    A is over QG, f at sigma_k(chi) is sigma_k of f at chi, so each c_j is
    a rational central element, built by ``CentralElement.from_orbits``
    (characteristic polynomials only at the characters the table's
    ``galois_fills`` leaves out, and the Galois self-check once per
    orbit), and H* = sum_j c_j A^(j - 1) over QG.  The norm is
    ``reduced_norm``.  Checked exactly: every represented block of H* is
    integral and times rho(A) gives nr I, and H* A = A H* = nr I over QG.
    The 0 x 0 matrix has the empty adjoint and the unit as its norm.
    """
    b = len(a)
    if any(len(row) != b for row in a):
        raise GroupError("star adjoint requires a square matrix")
    if not grm_is_integral(a):
        raise GroupError("star adjoint requires integral entries")
    group = table.group
    norm = reduced_norm(a, table)
    if not b:
        return StarAdjointResult([], norm)
    reps = [monomial_representation(table, i) for i in range(len(table))]
    blocks = [apply_representation(rep, a) for rep in reps]
    fills = table.galois_fills()
    polys = {i: char_poly(block) for i, block in enumerate(blocks) if i not in fills}

    def coefficient(j):
        def compute(i):
            f = polys[i]
            m = len(f) - 1
            if j > m:
                return Cyclo.zero()
            return f[j] if m % 2 else -f[j]
        return CentralElement.from_orbits(table, compute, "star adjoint").to_group_ring()

    # Horner: H* = (...(c_M A + c_(M-1)) A + ...) A + c_1, M the largest block size
    zero = GroupRingElement(group)
    adjoint = None
    for j in range(max(map(len, polys.values())) - 1, 0, -1):
        c = coefficient(j)
        scalar = [[c if r == s else zero for s in range(b)] for r in range(b)]
        adjoint = scalar if adjoint is None else mat_add(mat_mul(adjoint, a), scalar)
    # represented adjoint blocks: integral, and inverse to rho(A) up to nr
    for i, (rep, block) in enumerate(zip(reps, blocks)):
        rep_adjoint = apply_representation(rep, adjoint)
        if not all(x.is_algebraic_integer() for row in rep_adjoint for x in row):
            raise InternalCheckError(f"star adjoint block not integral at character {i}")
        det = norm.components[i]
        if any(x != (det if r == s else Cyclo.zero())
               for r, row in enumerate(mat_mul(rep_adjoint, block)) for s, x in enumerate(row)):
            raise InternalCheckError(f"star adjoint identity failed at character {i}")
    # global identity over the group ring
    nr_elem = norm.to_group_ring()
    target = [[nr_elem * entry for entry in row] for row in grm_identity(group, b)]
    if not (mat_mul(adjoint, a) == target and mat_mul(a, adjoint) == target):
        raise InternalCheckError("star adjoint identity failed over the group ring")
    return StarAdjointResult(adjoint, norm)


# -- Fitting invariants ---------------------------------------------------


class FittingInvariant:
    """Generators of a Fitting invariant; the object stands for a class
    under nr-equivalence, tested against this stored representative."""

    def __init__(self, generators, quadratic: bool, zero: bool):
        self.generators = generators
        self.quadratic = quadratic
        self.zero = zero
        self.equivalence_tag = "class-under-nr-equivalence; stored representative"


def fitting_of_presentation(h, table: CharacterTable) -> FittingInvariant:
    """Fitting invariant of the presentation matrix h over ZG (a rows, b
    columns, rows are relations): reduced norms of all b x b row
    selections, in ``itertools.combinations`` order, read off the blocks
    of the whole of h under every irreducible, with one elimination per
    irreducible shared by all of them (``_minor_norms``)."""
    a = len(h)
    b = len(h[0]) if a else 0
    if not grm_is_integral(h):
        raise GroupError("presentation matrices must be integral")
    if a < b:
        zero = CentralElement(table, [Cyclo.zero()] * len(table))
        return FittingInvariant([zero], quadratic=False, zero=True)
    gens = _minor_norms(h, itertools.combinations(range(a), b), table)
    return FittingInvariant(gens, quadratic=(a == b), zero=False)


# -- finite modules with G-action ------------------------------------------


class FiniteGModule:
    """Finite abelian group (product of cyclic factors) with a G-action."""

    def __init__(self, group, factors, action):
        self.group = group
        # type(d) is int also rejects bool, and a float or string is not read as one
        if not all(type(d) is int and d > 0 for d in factors):
            raise FixtureError("cyclic factor orders must be positive integers")
        self.factors = list(factors)
        k = len(self.factors)
        self.action = {}
        for g in range(group.order):
            if g not in action:
                raise FixtureError(f"no action matrix for group element {g}")
            m = action[g]
            if not isinstance(m, list) or len(m) != k or \
                    any(not isinstance(r, list) or len(r) != k for r in m):
                raise FixtureError("action matrix has wrong shape")
            # type(x) is int also rejects bool, and a float is not truncated
            if not all(type(x) is int for r in m for x in r):
                raise FixtureError(f"action matrix of element {g} has a non-integer entry")
            self.action[g] = [[x % d for x in r] for r, d in zip(m, self.factors)]
            # d_i | m[i][t] * d_t makes m well defined on the product of the Z/d_t
            if any(x * d_t % d_i for r, d_i in zip(m, self.factors)
                   for x, d_t in zip(r, self.factors)):
                raise FixtureError(
                    f"action matrix of element {g} is not an endomorphism of the module")
        ident = self.action[0]
        for i in range(k):
            for j in range(k):
                if (ident[i][j] - (1 if i == j else 0)) % self.factors[i] != 0:
                    raise FixtureError("identity must act trivially")
        self._check_homomorphism(group)

    def _check_homomorphism(self, group):
        """rho(g) rho(h) = rho(gh) row-wise modulo the factors, for every g
        and every h in ``group.generators()`` (see groups).  That covers
        every pair because each matrix is an endomorphism, so multiplying
        by it keeps row-wise congruences."""
        k, d, gens = len(self.factors), self.factors, group.generators()
        for g in range(group.order):
            for h in gens:
                prod = self._mat_mul(self.action[g], self.action[h])
                target = self.action[group.mul(g, h)]
                for i in range(k):
                    for j in range(k):
                        if (prod[i][j] - target[i][j]) % d[i] != 0:
                            raise FixtureError(
                                f"action is not a homomorphism at ({g}, {h})"
                            )

    def _mat_mul(self, a, b):
        k = len(self.factors)
        return [
            [sum(a[i][t] * b[t][j] for t in range(k)) % self.factors[i] for j in range(k)]
            for i in range(k)
        ]

    def is_trivial_module(self) -> bool:
        return all(d == 1 for d in self.factors)

    def generators(self):
        return [
            [1 if i == j else 0 for j in range(len(self.factors))]
            for i in range(len(self.factors))
        ]

    def act_group_ring(self, x: GroupRingElement, vec):
        """Apply a group-ring element to a vector.  Its denominator is the
        lcm of its coefficients' reduced denominators, so it is invertible
        mod each factor d exactly when every one of them is."""
        k = len(self.factors)
        for d in self.factors:
            if gcd(x.den, d) != 1:
                raise FixtureError(f"coefficient denominator {x.den} not invertible mod {d}")
        inverses = [pow(x.den, -1, d) for d in self.factors]
        out = [0] * k
        for g, a in enumerate(x.nums):
            if a:
                m = self.action[g]
                for i, (d, inv) in enumerate(zip(self.factors, inverses)):
                    out[i] = (out[i] + a * inv * sum(m[i][t] * vec[t] for t in range(k))) % d
        return out


class AnnihilationVerdict:
    def __init__(self, ok: bool, violations, notes):
        self.ok = ok
        self.violations = violations
        self.notes = notes

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, "violations": self.violations, "notes": self.notes}


def certified_h_elements(table: CharacterTable):
    """Members of the annihilator-friendly central set that we can certify:
    just the scalar |G|."""
    return [("certified:|G|", central_unit(table) * table.group.order)]


def annihilation_check(fitt: FittingInvariant, module: FiniteGModule,
                       h_elements) -> AnnihilationVerdict:
    """Check that h * f kills the module for every certified h and every
    Fitting generator f, acting through the group ring."""
    violations = []
    notes = []
    if module.is_trivial_module():
        notes.append("module is trivial; annihilation holds vacuously")
    gens = module.generators()
    for tag, h in h_elements:
        for fi, f in enumerate(fitt.generators):
            y = (h * f).to_group_ring()
            for gi, vec in enumerate(gens):
                out = module.act_group_ring(y, vec)
                if any(v % d != 0 for v, d in zip(out, module.factors)):
                    violations.append(
                        {"hElement": tag, "generator": fi, "moduleGenerator": gi,
                         "image": out}
                    )
    return AnnihilationVerdict(not violations, violations, notes)
