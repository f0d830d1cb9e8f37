"""Reference definitions the tests compare faster code against.

Each function here is a slower or older definition kept out of the
package: the subspace search for full subsystems, the per-root spanning
test, the dense modular rank certificate, the Fraction-vector closure
test, the weight-coset rule (C^T v integral) and the Fraction closure of
coset vectors, the GF(2) elimination for spanning the dual of F_2^3, the
truncation of a parsed degree table that cache hits are compared
against, a table's text formatted row by row, the nonzero terms of a series in either form as a dict, the
Dirichlet product and power by their definitions, Weyl's
dimension formula over ambient Fraction vectors and over one dot product
per coroot, those vectors themselves (the package keeps only integer
simple-root coordinates), the weights and coroots of the positive roots
by their definitions, Horner's rule in Fractions, and helpers only the
tests call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from operator import mul

from weylzeta._linalg import _PRIME, annihilator, echelon
from weylzeta.repdegrees import DegreeTable, GroupSpec, dim_irrep
from weylzeta.rootsys import RootSystem, Subsystem, _simple_roots, _vadd, build


def _full_subsystem_masks(system: RootSystem) -> list[int]:
    """Bitmasks of subsystems of the form R intersected with a subspace.

    Breadth-first over subspaces spanned by roots, one dimension at a
    time.  A subspace spanned by roots is spanned by the roots it
    contains, so the mask determines the subspace and dedup is sound.
    A root lies in a subspace iff it pairs to zero with every vector of
    the subspace's integer annihilator.  Roots that one extension of a
    mask already swept in would give that extension again, so they are
    skipped.  Simple-root coordinates keep the elimination small.
    """
    pos = system.root_coords
    m = len(pos)
    dim = system.rank
    found = {0}
    frontier: list[tuple[int, list[tuple[int, ...]]]] = [(0, [])]
    while frontier:
        grown = []
        for mask, gens in frontier:
            covered = mask
            for i in range(m):
                if covered >> i & 1:
                    continue
                # pos[i] lies outside span(gens), which mask exhausts
                span = gens + [pos[i]]
                forms = annihilator(span, dim)
                ext = 0
                for j, root in enumerate(pos):
                    if not any(sum(f * x for f, x in zip(form, root)) for form in forms):
                        ext |= 1 << j
                covered |= ext
                if ext not in found:
                    found.add(ext)
                    grown.append((ext, span))
        frontier = grown
    return sorted(found)


def spanning_check(system: RootSystem) -> bool:
    """For every root a, the roots not orthogonal to a span the whole space.

    The simple-root coordinates c of those roots span Q^n iff
    M = sum c c^T is invertible: v^T M v = sum (c.v)^2, so the kernel of M
    is the common annihilator of the c.  So each root costs one n x n
    elimination.
    """
    n = system.rank
    coords = system.root_coords
    products = [[[c[i] * c[j] for c in coords] for j in range(n)] for i in range(n)]
    weights = [root_fundamental(system, b) for b in range(system.num_positive)]
    for coroot in system.coroots:
        keep = [sum(map(mul, coroot, f)) != 0 for f in weights]
        gram = [[sum(compress(p, keep)) for p in row] for row in products]
        if len(echelon(gram)[1]) < n:
            return False
    return True


def full_rank(rows, n: int) -> bool:
    """True if n of the integer rows are independent mod the prime; stops at the n-th.

    The dense form of the certificate: every reduced row is a full list.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> reduced row, 1 at the pivot
    for row in rows:
        v = [x % _PRIME for x in row]
        for c, top in basis.items():
            if f := v[c]:
                v = [(x - f * y) % _PRIME for x, y in zip(v, top)]
        if (c := next((c for c, x in enumerate(v) if x), None)) is not None:
            inv = pow(v[c], -1, _PRIME)
            basis[c] = [x * inv % _PRIME for x in v]
            if len(basis) == n:
                return True
    return False


def simple_roots(system: RootSystem) -> tuple:
    """The simple roots as ambient Fraction vectors of the standard model.

    The package doubles the E and F models to keep them integral; this halves
    them back.
    """
    scale = Fraction(1, 2) if system.id.family in "EF" else Fraction(1)
    return tuple(tuple(scale * x for x in s) for s in _simple_roots(system.id))


def root_fundamental(system: RootSystem, b: int) -> tuple[int, ...]:
    """Positive root b in the fundamental-weight basis: C^T times its coordinates."""
    x = system.root_coords[b]
    return tuple(sum(map(mul, x, column)) for column in zip(*system.cartan_matrix))


def coroots(system: RootSystem) -> tuple:
    """Coroot coordinates c_i (alpha_i, alpha_i) / (beta, beta), with (beta, beta) by inner."""
    n = system.rank
    norms = [system.inner(u, u) for u in (tuple(int(i == j) for j in range(n)) for i in range(n))]
    return tuple(tuple(Fraction(x * g, system.inner(c, c)) for x, g in zip(c, norms))
                 for c in system.root_coords)


def dim_by_pairings(system: RootSystem, lam) -> Fraction:
    """Weyl's formula prod <lam + rho, beta^vee> / prod <rho, beta^vee>, one dot product each."""
    shifted = [c + 1 for c in lam]
    num = den = 1
    for coroot in system.coroots:
        num *= sum(map(mul, coroot, shifted))
        den *= sum(coroot)
    return Fraction(num, den)


def evaluate(P, n) -> Fraction:
    """P(n) by Horner's rule in Fractions."""
    acc = Fraction(0)
    for c in reversed(P.coefficients):
        acc = acc * n + c
    return acc


@lru_cache(maxsize=None)
def positive_roots(system: RootSystem) -> tuple:
    """The positive roots as ambient Fraction vectors, in root_coords order."""
    columns = list(zip(*simple_roots(system)))
    return tuple(tuple(sum(map(mul, c, col), Fraction(0)) for col in columns)
                 for c in system.root_coords)


@lru_cache(maxsize=None)
def fundamental_weights(system: RootSystem) -> tuple:
    """omega_i = sum over k of (C^-T)_ki alpha_k, as ambient Fraction vectors."""
    columns = list(zip(*simple_roots(system)))
    num, d = system._inv_cartan_t_num, system.cartan_det
    return tuple(tuple(Fraction(sum(row[i] * x for row, x in zip(num, col)), d)
                       for col in columns)
                 for i in range(system.rank))


def root_basis_coords(system: RootSystem, lam) -> tuple[Fraction, ...]:
    """Coordinates of a weight in the simple-root basis."""
    d = system.cartan_det
    return tuple(Fraction(x, d) for x in system.root_basis_numerators(lam))


def is_root(system: RootSystem, vec) -> bool:
    """True iff the ambient vector vec is a root of the system."""
    roots = _positive_root_set(system)
    return vec in roots or tuple(-x for x in vec) in roots


@lru_cache(maxsize=None)
def _positive_root_set(system: RootSystem) -> frozenset:
    return frozenset(positive_roots(system))


def in_root_lattice(system: RootSystem, v) -> bool:
    """True iff the weight v is an integer combination of roots."""
    return not any(system.center_class(v))


def allowable_at(R: RootSystem, lam, p: int) -> bool:
    """False iff every coordinate of lam + rho is divisible by p."""
    return not all((c + 1) % p == 0 for c in lam)


def weight_to_ambient(system: RootSystem, lam) -> tuple:
    """The weight with fundamental-weight coordinates lam, as an ambient vector."""
    dim = len(simple_roots(system)[0])
    vec = [Fraction(0)] * dim
    for c, w in zip(lam, fundamental_weights(system)):
        if c:
            for r in range(dim):
                vec[r] += c * w[r]
    return tuple(vec)


def dim_weyl(system: RootSystem, lam) -> Fraction:
    """Weyl's formula: the product of (lam + rho, a) / (rho, a) over positive roots a."""
    shifted = weight_to_ambient(system, [c + 1 for c in lam])
    rho = weight_to_ambient(system, (1,) * system.rank)
    out = Fraction(1)
    for alpha in positive_roots(system):
        out *= sum(map(mul, shifted, alpha)) / sum(map(mul, rho, alpha))
    return out


def subsystem_vectors(sub: Subsystem) -> list[tuple]:
    """The subsystem's roots as ambient Fraction vectors, positive ones first."""
    pos = [positive_roots(sub.parent)[i] for i in sorted(sub.pos_indices)]
    return pos + [tuple(-x for x in v) for v in pos]


def is_closed(sub: Subsystem) -> bool:
    """Sum closure: a, b in S and a + b a root imply a + b in S.

    Every ordered pair of the subsystem's ambient Fraction vectors is added.
    """
    vecs = subsystem_vectors(sub)
    members = set(vecs)
    for a in vecs:
        for b in vecs:
            if a == b:
                continue
            s = _vadd(a, b)
            if any(s) and is_root(sub.parent, s) and s not in members:
                return False
    return True


def spans_dual(mult: dict[int, int]) -> bool:
    """The functionals y with nonzero multiplicity span the dual of F_2^3.

    GF(2) elimination: each functional is reduced against the basis so far.
    """
    basis: list[int] = []
    for y, m in mult.items():
        if not m:
            continue
        v = y
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis) == 3


def is_weight_coset(factors, v) -> bool:
    """Fractional root-basis coordinates v name a weight coset iff C^T v is
    integral on each factor's block."""
    blocks = zip(factors, GroupSpec(factors).slices())
    return all(sum(x * row[i] for x, row in zip(v[a:b], build(fr).cartan_matrix)).denominator == 1
               for fr, (a, b) in blocks for i in range(fr.rank))


def closed_under_addition(vectors) -> bool:
    """Every sum of two Fraction vectors of the set, reduced mod 1, is in it."""
    members = {tuple(x % 1 for x in v) for v in vectors}
    return all(tuple((x + y) % 1 for x, y in zip(a, b)) in members
               for a in members for b in members)


def su3_code_words(columns=("100", "010", "001", "110", "101", "011", "112")) -> list[str]:
    """The 27 words of a ternary code of length 7, spanned by the rows of
    the 3 x 7 matrix with these columns (digit strings over F_3), as SU(3)^7
    coset vectors, one pair of A2 root-basis coordinates per letter."""
    pair = ["0,0", "1/3,2/3", "2/3,1/3"]
    return [",".join(pair[sum(map(mul, a, map(int, col))) % 3] for col in columns)
            for a in product(range(3), repeat=3)]


def su3_code_group(words) -> str:
    return "x".join(["A2"] * 7) + ":cosets[" + ";".join(words) + "]"


def dim_irrep_product(spec: GroupSpec, lam) -> int:
    if len(lam) != spec.total_rank:
        raise ValueError("weight length does not match total rank")
    out = 1
    for fr, (a, b) in zip(spec.factors, spec.slices()):
        out *= dim_irrep(build(fr), tuple(lam[a:b]))
    return out


def recover_factor_sizes(coeffs) -> list[int]:
    """Invert a truncated product of geometric series 1/(1-t^m).

    coeffs maps exponent k to coefficient (a dict, or a dense list starting
    at k=0).  Returns the sorted factor sizes m, erroring if no multiset of
    factors reproduces the series.
    """
    if isinstance(coeffs, dict):
        K = max(coeffs)
        target = [coeffs.get(k, 0) for k in range(K + 1)]
    else:
        target = list(coeffs)
        K = len(target) - 1
    if K < 0 or target[0] != 1:
        raise ValueError("series must start with coefficient 1")
    current = [1] + [0] * K
    sizes: list[int] = []
    while current != target:
        k = next(i for i in range(1, K + 1) if current[i] != target[i])
        if current[k] > target[k]:
            raise ValueError("series is not a product of geometric factors")
        sizes.append(k)
        for j in range(k, K + 1):
            current[j] += current[j - k]
    return sorted(sizes)


def truncated(table: DegreeTable, bound: int) -> DegreeTable:
    """The table's counts of dimension <= bound, as a table up to bound."""
    if bound > table.bound:
        raise ValueError("cannot extend a table by truncation")
    return DegreeTable(
        table.group, table.variant, bound,
        {d: c for d, c in table.counts.items() if d <= bound},
    )


def to_text(table: DegreeTable) -> str:
    """The table's text with one str.format call per row, as it was printed
    before rows were formatted a block at a time."""
    s = table.counts.series
    values = compress(s, s) if isinstance(s, list) else s.values()
    rows = map("{}\t{}\n".format, table.counts, values)
    return table.header(table.group, table.variant, table.bound) + "".join(rows)


def as_dict(series):
    """The nonzero terms of a series, list or dict, as a dict in the series' order."""
    items = enumerate(series) if isinstance(series, list) else series.items()
    return {d: c for d, c in items if c}


def pair_loop(a, b, bound):
    """The Dirichlet product by its definition: every ordered pair once."""
    out = {}
    for i, ai in as_dict(a).items():
        for j, bj in as_dict(b).items():
            if i * j <= bound:
                out[i * j] = out.get(i * j, 0) + ai * bj
    return {d: c for d, c in sorted(out.items()) if c}


def dirichlet_pow(base, k: int, bound: int):
    """base ** k for k >= 1 by square-and-multiply over pair_loop."""
    result = base
    for bit in bin(k)[3:]:
        result = pair_loop(result, result, bound)
        if bit == "1":
            result = pair_loop(result, base, bound)
    return result
