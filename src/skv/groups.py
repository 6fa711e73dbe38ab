"""Finite groups given by explicit multiplication tables.

Element 0 is always the identity.  A table is a tuple of row tuples of plain
ints; every construction checks it in full (square shape, integer entries in
range, identity, unique two-sided inverses, and associativity, by Light's
test over a generating set) and caps the order at 1024.  Subgroup search
is exhaustive, and class ids are computed once per group.

``FiniteGroup.generators`` is a greedy generating set S, and the checks
that a map rho out of G is multiplicative run over it: rho(1) = 1 and
rho(g) rho(s) = rho(gs) for every g and every s in S give
rho(g) rho(h) = rho(gh) for every h, by induction on the length of h as a
word in S (an inverse is a positive power, so every h is such a word):
rho(g) rho(h's) = rho(g) rho(h') rho(s) = rho(gh') rho(s) = rho(gh's),
where the first step is the check at (h', s) and the second is induction.
The first step multiplies an equation by rho(g), which needs values that
multiply associatively and respect the equality tested: group elements,
units mod w, or module matrices that are endomorphisms (see
rednorm.FiniteGModule, which checks every pair otherwise).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter

from .errors import GroupError

ORDER_CAP = 1024


def memo(owner, key, build):
    """``owner._memo[key]``, from ``build()`` on the first call with that
    key.  Every cache on an object goes through here: its owner declares
    ``self._memo = {}`` in ``__init__``, and each key starts with the name
    of the function that builds the value.  A build that raises stores
    nothing, so input that fails a check raises again on every call."""
    cache = owner._memo
    try:
        return cache[key]
    except KeyError:
        pass
    value = cache[key] = build()
    return value


class FiniteGroup:
    """Immutable finite group: full multiplication table, index 0 = identity."""

    def __init__(self, table, labels=None):
        if not isinstance(table, (list, tuple)) or \
                not all(isinstance(row, (list, tuple)) for row in table):
            raise GroupError("multiplication table must be a list of rows")
        n = len(table)
        if n == 0 or n > ORDER_CAP:
            raise GroupError(f"group order must be in 1..{ORDER_CAP}, got {n}")
        if any(len(row) != n for row in table):
            raise GroupError("multiplication table must be square")
        # type(v) is int also rejects bool, whose values would pass as 0 and 1
        if not all(type(v) is int and 0 <= v < n for row in table for v in row):
            raise GroupError(f"table entries must be integers in 0..{n - 1}")
        tbl = tuple(map(tuple, table))
        ident = tuple(range(n))
        if tbl[0] != ident or tuple(row[0] for row in tbl) != ident:
            raise GroupError("index 0 is not a two-sided identity")
        for a, row in enumerate(tbl):
            if row.count(0) != 1:
                raise GroupError(f"element {a} has no unique inverse")
        inv = tuple(row.index(0) for row in tbl)
        if any(tbl[inv[a]][a] != 0 for a in range(n)):
            raise GroupError("left and right inverses disagree")
        self.table = tbl
        self.inv = inv
        self.order = n
        self._memo = {}
        self._generators = self._greedy_generators()
        self._check_associative()
        if labels is not None and len(labels) != n:
            raise GroupError(f"{len(labels)} labels given for a group of order {n}")
        if labels is not None and (not all(isinstance(x, str) for x in labels)
                                   or len(set(labels)) != n):
            raise GroupError("group labels must be distinct strings")
        self.labels = list(labels) if labels is not None else [f"g{i}" for i in range(n)]

    def _check_associative(self):
        """Raise GroupError unless (ab)c = a(bc) for all a, b, c.  The c
        that satisfy it for all a, b are closed under products (Light's
        test), so it is enough to check each c of a set whose products
        reach every element: ``_greedy_generators`` is such a set without
        any associativity assumed, since ``subgroup_closure`` only
        multiplies on the right.  Per row a, (ab)c over every b is column
        c read through row a, and a(bc) is row a read through column c."""
        tbl = self.table
        for c in self._generators:
            column = tuple(row[c] for row in tbl)
            through_column = itemgetter(*column)
            for row_a in tbl:
                if itemgetter(*row_a)(column) != through_column(row_a):
                    raise GroupError("multiplication table is not associative")

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_permutations(gens: list[list[int]]) -> "FiniteGroup":
        """Build the group generated by permutations (lists of images)."""
        if not gens:
            raise GroupError("need at least one permutation generator")
        deg = len(gens[0])
        for g in gens:
            if sorted(g) != list(range(deg)):
                raise GroupError(f"not a permutation of 0..{deg - 1}: {g}")
        ident = tuple(range(deg))
        elems = [ident]
        index = {ident: 0}
        queue = [ident]
        gens_t = [tuple(g) for g in gens]
        while queue:
            a = queue.pop()
            for g in gens_t:
                p = tuple(a[g[i]] for i in range(deg))
                if p not in index:
                    if len(elems) >= ORDER_CAP + 1:
                        raise GroupError(f"generated group exceeds order cap {ORDER_CAP}")
                    index[p] = len(elems)
                    elems.append(p)
                    queue.append(p)
        return FiniteGroup([[index[tuple(a[k] for k in b)] for b in elems]
                            for a in elems])

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        row = list(range(n))
        return FiniteGroup([row[a:] + row[:a] for a in range(n)])

    @staticmethod
    def direct_product(a: "FiniteGroup", b: "FiniteGroup") -> "FiniteGroup":
        """Product group with element (x, y) at index x * |b| + y."""
        nb = b.order
        return FiniteGroup([[x * nb + y for x in row_x for y in row_y]
                            for row_x in a.table for row_y in b.table])

    # -- basic operations -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def _cyclic_powers(self, a: int) -> tuple[int, ...]:
        """a^0, a^1, ..., a^(m-1) for m the order of a."""
        row = self.table[a]
        powers = [0]
        x = a
        while x != 0:
            powers.append(x)
            x = row[x]
        return tuple(powers)

    def exponent(self) -> int:
        def build():
            # a walk over the powers of a gives the order m / gcd(m, j) of
            # each a^j, m the order of a; each a not reached yet starts one
            orders = [0] * self.order
            for a in range(self.order):
                if not orders[a]:
                    powers = self._cyclic_powers(a)
                    m = len(powers)
                    for j, x in enumerate(powers):
                        orders[x] = m // gcd(m, j)
            return lcm(*orders)
        return memo(self, "exponent", build)

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Classes in canonical order (sorted by minimal element, identity first)."""
        def build():
            ids = self.class_index()
            classes: list[list[int]] = [[] for _ in range(max(ids) + 1)]
            for g, c in enumerate(ids):
                classes[c].append(g)
            return tuple(map(tuple, classes))
        return list(memo(self, "conjugacy_classes", build))

    def generators(self) -> tuple[int, ...]:
        """A generating set: each element, smallest first, that the
        elements taken so far do not generate (empty for the trivial group).
        Each element is a product of them multiplied left to right, also
        in a table not yet known to be associative.  Picked once, by the
        constructor."""
        return self._generators

    def _greedy_generators(self) -> tuple[int, ...]:
        # span: left-to-right products of the generators so far, which in
        # a group make up the subgroup they generate.  It grows only by the
        # products that start with a new generator g: in a group, g <S> is
        # <S> for S the generators with g among them
        tbl = self.table
        gens, span = [], {0}
        for g in range(self.order):
            if g in span:
                continue
            gens.append(g)
            span.add(g)
            frontier = [g]
            while frontier:
                reached = []
                for x in frontier:
                    row = tbl[x]
                    for s in gens:
                        y = row[s]
                        if y not in span:
                            span.add(y)
                            reached.append(y)
                frontier = reached
        return tuple(gens)

    def class_index(self) -> tuple[int, ...]:
        """Class id per element; ids are assigned in order of minimal member."""
        def build():
            if self.is_abelian():  # every element is its own class
                return tuple(range(self.order))
            rows, inv = self.table, self.inv
            ids = [-1] * self.order
            next_id = 0
            for g in range(self.order):
                if ids[g] < 0:
                    for x in range(self.order):
                        ids[rows[rows[x][g]][inv[x]]] = next_id
                    next_id += 1
            return tuple(ids)
        return memo(self, "class_index", build)

    def power_map(self, k: int) -> tuple[int, ...]:
        """Class power map: class c -> class of g^k for any g in class c
        (conjugation commutes with powers), kept per k mod the exponent."""
        def build():
            ids = self.class_index()
            reps = memo(self, "_cyclic_powers",
                        lambda: [self._cyclic_powers(c[0]) for c in self.conjugacy_classes()])
            return tuple(ids[p[k % len(p)]] for p in reps)
        k %= self.exponent()
        return memo(self, ("power_map", k), build)

    def subgroup_closure(self, gens) -> tuple[int, ...]:
        """Subgroup generated by gens, found breadth-first as every product of
        generators (in a finite group these products already form a subgroup)."""
        gens = sorted(set(gens))
        for g in gens:
            if not 0 <= g < self.order:
                raise GroupError(f"element {g} out of range for order {self.order}")
        found = {0}
        frontier = [0]
        while frontier:
            reached = []
            for x in frontier:
                row = self.table[x]
                for g in gens:
                    y = row[g]
                    if y not in found:
                        found.add(y)
                        reached.append(y)
            frontier = reached
        return tuple(sorted(found))

    def is_subgroup(self, elems) -> bool:
        s = set(elems)
        if 0 not in s:
            return False
        return all(self.mul(a, b) in s for a in s for b in s)

    def is_normal(self, elems) -> bool:
        """Whether ``elems`` is closed under conjugation, that is, a union
        of conjugacy classes."""
        ids, classes, counts = self.class_index(), self.conjugacy_classes(), {}
        for h in set(elems):
            counts[ids[h]] = counts.get(ids[h], 0) + 1
        return all(len(classes[c]) == k for c, k in counts.items())

    def is_abelian_subset(self, elems) -> bool:
        return all(self.mul(a, b) == self.mul(b, a) for a in elems for b in elems)

    def is_abelian(self) -> bool:
        # generators that commute pairwise make every pair commute
        def build():
            tbl, gens = self.table, self._generators
            return all(tbl[a][b] == tbl[b][a] for a in gens for b in gens)
        return memo(self, "is_abelian", build)

    def abelian_coordinates(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``abelian_coordinates(self.table)``, kept on the group."""
        return memo(self, "abelian_coordinates", lambda: abelian_coordinates(self.table))

    def center(self) -> tuple[int, ...]:
        columns = tuple(zip(*self.table))
        return tuple(g for g in range(self.order) if self.table[g] == columns[g])

    def commutator_subgroup(self, elems=None) -> tuple[int, ...]:
        elems = list(range(self.order)) if elems is None else list(elems)
        comms = {
            self.mul(self.mul(a, b), self.mul(self.inv[a], self.inv[b]))
            for a in elems
            for b in elems
        }
        return self.subgroup_closure(comms)

    def normal_closure(self, elems) -> tuple[int, ...]:
        if self.is_abelian():
            # every subgroup of an abelian group is normal
            return self.subgroup_closure(elems)
        conj = {
            self.mul(self.mul(g, h), self.inv[g])
            for g in range(self.order)
            for h in elems
        }
        return self.subgroup_closure(conj)

    def all_subgroups(self) -> list[tuple[int, ...]]:
        """Every subgroup, sorted by decreasing order then lexicographically."""
        def build():
            found = {(0,)}
            frontier = {(0,)}
            cyclic = {self.subgroup_closure([g]) for g in range(self.order)}
            found |= cyclic
            frontier |= cyclic
            while frontier:
                nxt = set()
                for sub in frontier:
                    # <sub, g> = <sub, gh> for h in sub: one g per coset g sub
                    done = set(sub)
                    for g in range(1, self.order):
                        if g not in done:
                            row = self.table[g]
                            done.update(row[h] for h in sub)
                            ext = self.subgroup_closure(set(sub) | {g})
                            if ext not in found:
                                found.add(ext)
                                nxt.add(ext)
                frontier = nxt
            return sorted(found, key=lambda s: (-len(s), s))
        return list(memo(self, "all_subgroups", build))

    # -- subgroups as groups, cosets -----------------------------------------

    def subgroup_as_group(self, elems) -> tuple["FiniteGroup", dict[int, int]]:
        """Standalone group on the subgroup, plus map subgroup-index -> parent element."""
        elems = sorted(set(elems))
        if elems[0] != 0 or not self.is_subgroup(elems):
            raise GroupError(f"{elems} is not a subgroup")
        pos = {g: i for i, g in enumerate(elems)}
        tbl = [[pos[self.mul(a, b)] for b in elems] for a in elems]
        return FiniteGroup(tbl, labels=[self.labels[g] for g in elems]), dict(enumerate(elems))

    def coset_reps(self, elems) -> list[int]:
        """Left coset representatives of a subgroup, minimal element first."""
        seen = [False] * self.order
        reps = []
        s = sorted(set(elems))
        for g in range(self.order):
            if not seen[g]:
                reps.append(g)
                for h in s:
                    seen[self.mul(g, h)] = True
        return reps

    def double_cosets(self, left_elems, right_elems) -> list[tuple[int, ...]]:
        """Partition of G into (left, right) double cosets, sorted by minimal element."""
        left = sorted(set(left_elems))
        right = sorted(set(right_elems))
        assigned = [-1] * self.order
        out = []
        for g in range(self.order):
            if assigned[g] == -1:
                idx = len(out)
                members = sorted({self.mul(self.mul(a, g), b) for a in left for b in right})
                for m in members:
                    assigned[m] = idx
                out.append(tuple(members))
        return out


def abelian_coordinates(table) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """For the multiplication table of an abelian group, element 0 the
    identity, ``(orders, coords)``: a basis b_1, ..., b_k with
    G = <b_1> x ... x <b_k>, b_i of order d_i = orders[i] and d_(i+1) | d_i,
    and per element g its coordinate vector, g = b_1^x_1 ... b_k^x_k with
    0 <= x_i < d_i (Cohen, *A Course in Computational Algebraic Number
    Theory*, 2.4: greedy with lifts).  Each step takes the first element g
    of largest order m modulo the span H of the basis so far; g^m is in H
    with every coordinate a multiple of m, and dividing them out lifts g to
    a b of order m with <b> meeting H in 1.  The map is not checked here:
    a caller that relies on it checks it (``characters.check_coordinates``)."""
    n = len(table)
    coords: dict[int, tuple[int, ...]] = {0: ()}
    orders, powers = [], []  # per basis element b_i: d_i, b_i^t for t < d_i
    while len(coords) < n:
        seen, m, g, top = set(coords), 0, None, None
        for x in range(n):
            if x in seen:
                continue
            # x, x^2, ..., up to the first power that lies in H
            walk, y = [x], table[x][x]
            while y not in coords:
                walk.append(y)
                y = table[y][x]
            for w in walk:
                row = table[w]
                seen.update(row[h] for h in coords)
            if len(walk) + 1 > m:
                m, g, top = len(walk) + 1, x, y
        # b = g times b_i^(-c_i / m) over g^m's coordinates c_i
        b = g
        for c, d, pw in zip(coords[top], orders, powers):
            b = table[b][pw[-c // m % d]]
        pw = [0]
        for _ in range(m - 1):
            pw.append(table[pw[-1]][b])
        coords = {table[h][z]: c + (t,) for t, z in enumerate(pw)
                  for h, c in coords.items()}
        orders.append(m)
        powers.append(pw)
    return tuple(orders), tuple(coords[g] for g in range(n))


def detect_direct_product(group: FiniteGroup):
    """Internal direct-product decomposition G = H x C with C abelian maximal.

    Returns (H_elems, C_elems) maximizing |C|, or None when only C = {1}
    works (callers then use the trivial C).  An abelian G is its own C,
    with H = {1}, and needs no subgroup search.  Kept on the group.
    """
    def build():
        if group.is_abelian():
            return ((0,), tuple(range(group.order))) if group.order > 1 else None
        normal = [s for s in group.all_subgroups() if group.is_normal(s)]
        best = None
        for c in normal:
            if not group.is_abelian_subset(c):
                continue
            for h in normal:
                if len(h) * len(c) != group.order:
                    continue
                if set(h) & set(c) != {0}:
                    continue
                if not all(group.mul(a, b) == group.mul(b, a) for a in h for b in c):
                    continue
                cand = (h, c)
                if best is None or (len(c), c, h) > (len(best[1]), best[1], best[0]):
                    best = cand
        if best is None or len(best[1]) == 1:
            return None
        return best
    return memo(group, "detect_direct_product", build)


@lru_cache(maxsize=None)
def _named_tables():
    tables = {}
    tables["C1"] = FiniteGroup([[0]])
    tables["C2"] = FiniteGroup.cyclic(2)
    tables["C3"] = FiniteGroup.cyclic(3)
    tables["C6"] = FiniteGroup.cyclic(6)
    tables["S3"] = FiniteGroup.from_permutations([[1, 2, 0], [1, 0, 2]])
    tables["D4"] = FiniteGroup.from_permutations([[1, 2, 3, 0], [0, 3, 2, 1]])
    # Q8 on {1,i,j,k,-1,-i,-j,-k} via left regular action of i and j
    i_perm = [1, 4, 7, 2, 5, 0, 3, 6]
    j_perm = [2, 3, 4, 5, 6, 7, 0, 1]
    tables["Q8"] = FiniteGroup.from_permutations([i_perm, j_perm])
    tables["S3xC2"] = FiniteGroup.direct_product(tables["S3"], tables["C2"])
    return tables


def named_group(name: str) -> FiniteGroup:
    """Small standard groups used by tests and benchmarks."""
    tables = _named_tables()
    if name not in tables:
        raise GroupError(f"unknown named group {name!r}")
    return tables[name]
