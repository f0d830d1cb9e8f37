"""Irreducible root systems in exact Bourbaki coordinates.

Positive roots are generated in simple-root coordinates, as integer tuples,
by the root-string algorithm on the Cartan matrix; they are never copied
from tables.  The same pass keeps each root's weight (its coordinates in
the fundamental-weight basis), which the coroots, the simple reflections
and the spanning check read.  Only the simple roots have vectors in the
ambient space of the standard model (dimension n+1 for A_n, n for
B_n/C_n/D_n, 8 for the E series, 4 for F4, 3 for G2), integer tuples, with
the E and F models doubled to clear their halves; their Gram form gives
the Cartan matrix.  Weights are tuples of integers in the fundamental-weight
basis, where rho is the all-ones vector.

Each rule is stated once.  _is_type decides which (family, rank) labels
exist; FamilyRank, all_types and classify_subsystem read it.  Closure of
a set of roots is tracked on integer positive-root indices:
Subsystem.is_closed tests the sum and difference of each pair of members,
and closure(), for efficiency.enumerate_closed_subsystems, reads a table
per system of the roots each pair forces.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import add, mul

from ._linalg import echelon, full_rank

Weight = tuple[int, ...]


def ensure(ok, message: str = "") -> None:
    """Raise AssertionError(message) unless ok; unlike assert, kept under -O."""
    if not ok:
        raise AssertionError(message)


_LEAST_CLASSICAL_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}
_EXCEPTIONAL = {("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)}


def _is_type(family: str, rank: int) -> bool:
    """A classical family from its least rank on, or an exceptional type."""
    least = _LEAST_CLASSICAL_RANK.get(family)
    return (least is not None and rank >= least) or (family, rank) in _EXCEPTIONAL


class FamilyRank(namedtuple("FamilyRank", "family rank")):
    """Type label of an irreducible root system, e.g. FamilyRank('B', 7)."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if not _is_type(family, rank):
            raise ValueError(f"invalid root system type: {family}{rank}")
        return super().__new__(cls, family, rank)

    def __str__(self):
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "FamilyRank":
        text = text.strip()
        if len(text) < 2 or text[0] not in "ABCDEFG" or not text[1:].isdigit():
            raise ValueError(f"cannot parse root system type {text!r}")
        return cls(text[0], int(text[1:]))


def all_types(max_rank: int = 8) -> list[FamilyRank]:
    """Every valid irreducible type with rank at most max_rank, by family then rank."""
    return [FamilyRank(fam, n) for fam in "ABCDEFG" for n in range(1, max_rank + 1)
            if _is_type(fam, n)]


def _e(i: int, dim: int) -> Weight:
    return tuple(int(j == i) for j in range(dim))


def _vadd(a, b) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _double(a) -> tuple[int, ...]:
    return tuple(2 * x for x in a)


def _simple_roots(fr: FamilyRank) -> list[tuple[int, ...]]:
    """Integer simple roots of the standard model, doubled for E and F."""
    fam, n = fr.family, fr.rank
    if fam == "A":
        dim = n + 1
        return [_vsub(_e(i, dim), _e(i + 1, dim)) for i in range(n)]
    if fam == "E":  # alpha_1 = (1, -1, -1, -1, -1, -1, -1, 1) / 2 before doubling
        simples = [_vadd(_e(0, 8), _e(1, 8))] + [
            _vsub(_e(i, 8), _e(i - 1, 8)) for i in range(1, 7)
        ]
        return [(1, -1, -1, -1, -1, -1, -1, 1)] + [_double(s) for s in simples[: n - 1]]
    if fam == "G":  # in the sum-zero hyperplane of Q^3: alpha1 short, alpha2 long
        return [(1, -1, 0), (-2, 1, 1)]
    head = [_vsub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)]
    if fam == "B":
        return head + [_e(n - 1, n)]
    if fam == "C":
        return head + [_double(_e(n - 1, n))]
    if fam == "D":
        return head + [_vadd(_e(n - 2, n), _e(n - 1, n))]
    # F4, with alpha_4 = (1, -1, -1, -1) / 2 before doubling
    return [_double(s) for s in head[1:] + [_e(3, 4)]] + [(1, -1, -1, -1)]


def _generate_positive_roots(cartan) -> tuple[tuple, tuple]:
    """Simple-root coordinates and weights of the positive roots: by height, then coordinates.

    Root strings (Humphreys, Lie Algebras, 9.4): for a positive root beta
    and a simple root alpha_i, beta + alpha_i is a root iff
    p - <beta, alpha_i^vee> >= 1, where p is the largest k with
    beta - k alpha_i a root.  The weight f of beta (its coordinates in the
    fundamental-weight basis, f_i = <beta, alpha_i^vee>) is carried along:
    alpha_i has row i of C, and adding alpha_i adds that row.  Every root
    below beta's height is known when beta is reached.
    """
    n = len(cartan)
    level = {tuple(int(i == j) for j in range(n)): tuple(row) for i, row in enumerate(cartan)}
    out = {}
    while level:
        # one level is one height, so out stays in canonical order
        out.update(sorted(level.items()))
        nxt = {}
        for c, f in level.items():
            for i, row in enumerate(cartan):
                need = f[i] + 1  # the test is p >= need, where p <= c[i]
                if need > c[i]:
                    continue
                p = 0
                while p < need and c[:i] + (c[i] - p - 1,) + c[i + 1:] in out:
                    p += 1
                if p >= need:
                    nxt[c[:i] + (c[i] + 1,) + c[i + 1:]] = tuple(map(add, f, row))
        level = nxt
    return tuple(out), tuple(out.values())


class RootSystem:
    """An irreducible root system, immutable after build()."""

    def __init__(self, fr: FamilyRank):
        self.id = fr
        simples = _simple_roots(fr)
        n = fr.rank

        # gram holds the inner products of the integer simple roots, the
        # symmetrized form; cartan[i][j] = 2(alpha_i, alpha_j) / (alpha_j, alpha_j)
        gram = self._gram = tuple(tuple(sum(map(mul, a, b)) for b in simples) for a in simples)
        self.cartan_matrix: tuple[tuple[int, ...], ...] = tuple(
            tuple(2 * gram[i][j] // gram[j][j] for j in range(n)) for i in range(n)
        )
        self.root_coords, self.root_weights = _generate_positive_roots(self.cartan_matrix)

        # beta = sum c_i alpha_i has coroot coordinates c_i |alpha_i|^2 / |beta|^2,
        # and 2 |beta|^2 = sum c_i f_i |alpha_i|^2 for the weight f of beta; the
        # floors are exact iff no remainder is left, the remainders sharing a sign
        norms = [gram[i][i] for i in range(n)]
        coroots = []
        for c, f in zip(self.root_coords, self.root_weights):
            scaled = list(map(mul, c, norms))
            nrm = sum(map(mul, scaled, f))
            coroot = tuple(2 * x // nrm for x in scaled)
            if nrm * sum(coroot) != 2 * sum(scaled):
                raise ArithmeticError(f"coroot of {c} is not integral")
            coroots.append(coroot)
        self.coroots: tuple[tuple[int, ...], ...] = tuple(coroots)
        # Weyl's denominator Delta = prod <rho, beta^vee>, a coroot's coordinate sum
        self.delta: int = math.prod(map(sum, coroots))

        # every non-simple positive coroot is an earlier one plus a simple
        # coroot alpha_j^vee: with slot j holding alpha_j^vee, the step (p, j)
        # fills the next slot with slot p plus slot j
        slot = {_e(j, n): j for j in range(n)}
        chain = []
        for c in sorted(coroots, key=lambda c: (sum(c), c))[n:]:
            chain.append(next((slot[q], j) for j in range(n)
                              if (q := c[:j] + (c[j] - 1,) + c[j + 1:]) in slot))
            slot[c] = len(slot)
        self.coroot_chain: tuple[tuple[int, int], ...] = tuple(chain)

    @cached_property
    def _inverse_cartan_t(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        # eliminating [C^T | I] leaves [d I | d C^-T], d = det C; C^-T takes a
        # weight to its simple-root coordinates.  Only groups that are not simply
        # connected read it, so the elimination runs on first read, not at build.
        n = self.rank
        reduced, _ = echelon([list(col) + [int(i == j) for i in range(n)]
                              for j, col in enumerate(zip(*self.cartan_matrix))])
        return reduced[0][0], tuple(tuple(row[n:]) for row in reduced)

    @cached_property
    def reflections(self) -> list[tuple[int, ...]]:
        """simple_reflections of this system, built on first read."""
        return simple_reflections(self)

    cartan_det = property(lambda self: self._inverse_cartan_t[0], doc="det C")
    _inv_cartan_t_num = property(lambda self: self._inverse_cartan_t[1], doc="det C times C^-T")

    # -- basic accessors ---------------------------------------------------

    @property
    def rank(self) -> int:
        return self.id.rank

    @property
    def num_positive(self) -> int:
        return len(self.root_coords)

    @property
    def num_roots(self) -> int:
        return 2 * len(self.root_coords)

    def pair(self, alpha_index: int, lam) -> int:
        """Coroot-weight pairing alpha^vee(lambda) for a positive root index."""
        return sum(c * w for c, w in zip(self.coroots[alpha_index], lam))

    def inner(self, x, y) -> int:
        """Inner product of two vectors in simple-root coordinates, in the Gram form."""
        return sum(a * sum(map(mul, row, y)) for a, row in zip(x, self._gram))

    def root_basis_numerators(self, lam) -> tuple[int, ...]:
        """det(C) times the coordinates of a weight in the simple-root basis."""
        return tuple(
            sum(x * c for x, c in zip(row, lam)) for row in self._inv_cartan_t_num
        )

    def center_class(self, lam) -> tuple[int, ...]:
        """Class of a weight modulo the root lattice: its numerators mod det(C)."""
        d = self.cartan_det
        return tuple(x % d for x in self.root_basis_numerators(lam))

    def __repr__(self):
        return f"RootSystem({self.id})"


@lru_cache(maxsize=None)
def _build(fr: FamilyRank) -> RootSystem:
    return RootSystem(fr)


def build(fr) -> RootSystem:
    """Build (and cache) the root system for a FamilyRank or a string like 'F4'."""
    if isinstance(fr, str):
        fr = FamilyRank.parse(fr)
    return _build(fr)


# -- Weyl group action -----------------------------------------------------


def _reduce_to_dominant(system: RootSystem, vec) -> Weight:
    """The dominant member of the Weyl orbit of vec, by simple reflections."""
    v = list(vec)
    n = system.rank
    cartan = system.cartan_matrix
    while (j := next((i for i in range(n) if v[i] < 0), None)) is not None:
        c = v[j]
        for i in range(n):
            v[i] -= c * cartan[j][i]
    return tuple(v)


def weyl_orbit_equal(system: RootSystem, v1, v2) -> bool:
    """True iff v1 and v2 lie in the same (unshifted) Weyl orbit."""
    if len(v1) != system.rank or len(v2) != system.rank:
        raise ValueError(f"vectors {v1} and {v2} need {system.rank} coordinates each")
    return _reduce_to_dominant(system, v1) == _reduce_to_dominant(system, v2)


def _signed_index(system) -> dict[tuple[int, ...], int]:
    """Simple-root coordinates of each root +-beta_b, mapped to the index b."""
    index = {}
    for b, c in enumerate(system.root_coords):
        index[c] = index[tuple(-x for x in c)] = b
    return index


def simple_reflections(system) -> list[tuple[int, ...]]:
    """Per simple root alpha_i, the permutation b -> index of +-s_i(beta_b).

    s_i(beta) = beta - <beta, alpha_i^vee> alpha_i moves only coordinate i,
    by coordinate i of beta in the fundamental-weight basis.  s_i negates
    alpha_i and permutes the other positive roots.
    """
    index = _signed_index(system)
    return [
        tuple(index[c[:i] + (c[i] - f[i],) + c[i + 1:]]
              for c, f in zip(system.root_coords, system.root_weights))
        for i in range(system.rank)
    ]


def reflection_orbits(perms, m: int) -> list[list[int]]:
    """Orbits of the group the permutations generate on range(m), least member first."""
    seen = [False] * m
    orbits = []
    for start in range(m):
        if not seen[start]:
            seen[start] = True
            orbits.append([start])
            for b in orbits[-1]:
                for c in (perm[b] for perm in perms):
                    if not seen[c]:
                        seen[c] = True
                        orbits[-1].append(c)
    return orbits


# -- subsystems ------------------------------------------------------------


class Subsystem(namedtuple("Subsystem", "parent pos_indices")):
    """A symmetric subset of the roots, stored by positive-root indices."""

    __slots__ = ()

    @property
    def num_positive(self) -> int:
        return len(self.pos_indices)

    def is_closed(self) -> bool:
        """Sum closure: a, b in S and a + b a root imply a + b in S.

        S is symmetric, so the sums to test are a + b and a - b, up to
        sign, for positive members a and b.
        """
        index = _signed_index(self.parent)
        coords = [self.parent.root_coords[i] for i in self.pos_indices]
        return all(k in self.pos_indices for i, a in enumerate(coords)
                   for b in coords[:i] for k in _forced(index, a, b))


def _forced(index, a, b) -> tuple[int, ...]:
    """Positive-root indices of +-(a + b) and +-(a - b), those that are roots.

    A symmetric set containing +-a and +-b must contain them, so closure
    can be tracked on positive indices alone.
    """
    return tuple(index[s] for s in (_vadd(a, b), _vsub(a, b)) if s in index)


@lru_cache(maxsize=None)
def _forced_table(system) -> list[list[tuple[int, ...]]]:
    """forced[i][j] = _forced of positive roots i and j."""
    index = _signed_index(system)
    return [[_forced(index, a, b) for b in system.root_coords] for a in system.root_coords]


def closure(system, mask: int) -> int:
    """The least closed symmetric set of roots containing a positive-root bitmask."""
    forced = _forced_table(system)
    stack = [i for i in range(len(forced)) if mask >> i & 1]
    while stack:
        for j, need in enumerate(forced[stack.pop()]):
            if need and mask >> j & 1:
                for k in need:
                    if not mask >> k & 1:
                        mask |= 1 << k
                        stack.append(k)
    return mask


def orthogonal_subsystem(system: RootSystem, v) -> Subsystem:
    """Roots whose coroots pair to zero with the weight v."""
    if len(v) != system.rank:
        raise ValueError(f"weight {v} needs {system.rank} coordinates")
    idx = frozenset(
        i for i in range(system.num_positive) if system.pair(i, v) == 0
    )
    return Subsystem(system, idx)


def _base_of(sub: Subsystem) -> list[int]:
    """Indecomposable positive members: the simple system of the subsystem."""
    coords = {i: sub.parent.root_coords[i] for i in sub.pos_indices}
    cset = set(coords.values())
    return [
        i for i, c in sorted(coords.items())
        if not any(_vsub(c, w) in cset for w in cset if w != c)
    ]


def _cartan_of(system: RootSystem, indices: list[int]) -> list[list[int]]:
    coords = [system.root_coords[i] for i in indices]
    return [
        [2 * system.inner(a, b) // system.inner(b, b) for b in coords]
        for a in coords
    ]


def _cartan_match(mat: list[list[int]], ref) -> bool:
    """Existence of a vertex relabelling identifying the two Cartan matrices."""
    r = len(mat)
    used = [False] * r
    assign = [-1] * r

    def backtrack(i: int) -> bool:
        if i == r:
            return True
        for j in range(r):
            if not used[j] and all(
                mat[i][k] == ref[j][assign[k]] and mat[k][i] == ref[assign[k]][j]
                for k in range(i)
            ):
                used[j] = True
                assign[i] = j
                if backtrack(i + 1):
                    return True
                used[j] = False
        return False

    return backtrack(0)


def classify_subsystem(sub: Subsystem) -> list[FamilyRank]:
    """Type of a closed symmetric subsystem as a sorted list of components."""
    if not sub.pos_indices:
        return []
    if not sub.is_closed():
        raise ValueError("subsystem is not closed")
    base = _base_of(sub)
    cartan = _cartan_of(sub.parent, base)
    r = len(base)
    # connected components of the base diagram
    seen = [False] * r
    comps = []
    for s in range(r):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(r):
                if not seen[j] and cartan[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    types = []
    for comp in comps:
        sub_cartan = [[cartan[i][j] for j in comp] for i in comp]
        found = next((t for t in all_types(len(comp)) if t.rank == len(comp)
                      and _cartan_match(sub_cartan, build(t).cartan_matrix)), None)
        if found is None:
            raise ValueError("unrecognized component Cartan matrix")
        types.append(found)
    return sorted(types)


# -- global quadratic-form and spanning checks -----------------------------


def quadratic_nullspace_dim(system: RootSystem) -> int:
    """Dimension of the space of quadratic forms vanishing on every root.

    Forms are symmetric bilinear forms on the span of the roots, written in
    the simple-root basis; vanishing on all roots should pin the form to zero.
    """
    n = system.rank
    unknowns = [(i, j) for i in range(n) for j in range(i, n)]

    def row(c):
        return [c[i] * c[j] if i == j else 2 * c[i] * c[j] for i, j in unknowns]

    # full_rank stops at the last row it needs, so the rows come one at a time
    if full_rank(map(row, system.root_coords), len(unknowns)):
        return 0
    return len(unknowns) - len(echelon(list(map(row, system.root_coords)))[1])


def spanning_check(system: RootSystem) -> bool:
    """For every root a, the roots not orthogonal to a span the whole space.

    The statement is W-invariant: w in W permutes the roots up to sign and
    preserves orthogonality, so it maps the roots not orthogonal to a onto
    those not orthogonal to w(a), and their span onto its image.  So one
    root per orbit of the simple-reflection permutations is tested; the
    orbits are computed, not assumed from root lengths.

    The test is the rank of the kept roots' simple-root coordinates
    themselves, with no Gram matrix: certified mod a prime, stopping at the
    n-th independent root, and settled exactly only when that falls short.
    """
    n = system.rank
    for orbit in reflection_orbits(system.reflections, system.num_positive):
        coroot = system.coroots[orbit[0]]
        kept = [c for c, f in zip(system.root_coords, system.root_weights)
                if sum(map(mul, coroot, f))]
        if not full_rank(kept, n) and len(echelon(kept)[1]) < n:
            return False
    return True
