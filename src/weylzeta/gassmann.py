"""Equal-spectrum center quotients of SU(2)^n.

An irreducible representation of SU(2)^n with highest weight
(a_1, ..., a_n) has dimension prod(a_i + 1) and acts on the center
F_2^n through the parities of the a_i, so the degree counts of a
quotient by a central subgroup are Dirichlet-series coefficients
summed over the center characters that survive: a class polynomial,
one monomial per character, that the engine behind every spectrum
evaluates.  Starting from an integer trace function on F_2^3 this module
builds two embeddings of F_2^3 into F_2^n whose annihilators give
quotients with identical counts at every dimension, while no
permutation of the n factors carries one annihilator to the other.

Elements of F_2^3 and its dual are both encoded as 3-bit integers;
the pairing is the parity of the AND.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import permutations

from .repdegrees import DegreeTable, _zeta_series, as_list
from .rootsys import FamilyRank, ensure

_SPACE = range(8)


def _dot(y: int, x: int) -> int:
    return (y & x).bit_count() & 1


class TraceFunction(namedtuple("TraceFunction", "values")):
    """An integer function on F_2^3, stored as a tuple indexed by element."""

    __slots__ = ()


def build_trace(values) -> TraceFunction:
    """Validate and wrap a prospective trace function.

    values: a sequence of 8 integers indexed by element, or a mapping
    with keys 0..7.  Required: injectivity, all values divisible by 8,
    and values[0] at least the sum of |values[x]| over nonzero x.
    """
    if isinstance(values, dict):
        if set(values) != set(_SPACE):
            raise ValueError("trace function needs exactly the keys 0..7")
        vals = tuple(int(values[x]) for x in _SPACE)
    else:
        vals = tuple(int(v) for v in values)
        if len(vals) != 8:
            raise ValueError("trace function needs exactly 8 values")
    if len(set(vals)) != 8:
        raise ValueError("trace function must be injective")
    for v in vals:
        if v % 8:
            raise ValueError(f"trace value {v} is not a multiple of 8")
    budget = sum(abs(v) for v in vals[1:])
    if vals[0] < budget:
        raise ValueError(
            f"value at 0 must dominate: {vals[0]} < {budget}"
        )
    return TraceFunction(vals)


def fourier_multiplicities(f: TraceFunction) -> dict[int, int]:
    """m(y) = (1/8) sum_x f(x) (-1)^(y.x), for each functional y."""
    out = {}
    for y in _SPACE:
        total = sum(
            f.values[x] * (1 - 2 * _dot(y, x)) for x in _SPACE
        )
        q, r = divmod(total, 8)
        ensure(r == 0 and q >= 0, "valid trace functions invert cleanly")
        out[y] = q
    return out


class SignHom(namedtuple("SignHom", "n functionals multiplicities")):
    """A linear embedding of F_2^3 into F_2^n, one functional per coordinate.

    multiplicities maps each functional to the number of coordinates using it.
    """

    __slots__ = ()

    def weight(self, x: int) -> int:
        """Hamming weight of the image of x."""
        return self.image_bits(x).bit_count()

    def exponents(self) -> list[tuple[int, int]]:
        """The pairs (n - w(x), w(x)) over the 8 characters x, sorted."""
        return sorted((self.n - w, w) for w in map(self.weight, _SPACE))

    def polynomial(self) -> Counter:
        """The class polynomial, odd^(n - w(x)) * even^w(x) over the characters x."""
        return Counter(_monomial(odd, even) for odd, even in self.exponents())

    def image_bits(self, x: int) -> int:
        """The image of x in F_2^n packed into an integer, coordinate j at bit j."""
        bits = 0
        for j, y in enumerate(self.functionals):
            bits |= _dot(y, x) << j
        return bits


def build_sign_hom(f: TraceFunction) -> SignHom:
    """Embedding whose coordinate sign pattern realizes the trace function.

    Coordinate j applies functional y with each y repeated by its
    Fourier multiplicity, in increasing encoding order.  Then for every
    x the image weight satisfies n - 2 wt = f(x).
    """
    mult = fourier_multiplicities(f)
    n = f.values[0]
    functionals = tuple(y for y in _SPACE for _ in range(mult[y]))
    hom = SignHom(n, functionals, mult)
    ensure(len(functionals) == n, "multiplicities sum to f(0)")
    ensure(_spans_dual(mult), "injective trace functions span the dual")
    for x in _SPACE:
        ensure(n - 2 * hom.weight(x) == f.values[x], f"image weight of {x}")
    return hom


def _spans_dual(mult: dict[int, int]) -> bool:
    """The functionals in use span the dual: no nonzero x is killed by all of them."""
    return all(any(m and _dot(y, x) for y, m in mult.items()) for x in range(1, 8))


@lru_cache(maxsize=1)
def _gl3_tables() -> tuple[tuple[int, ...], ...]:
    """Action tables of all 168 invertible linear maps on F_2^3."""
    tables = [
        tuple((c1 if x & 1 else 0) ^ (c2 if x & 2 else 0) ^ (c3 if x & 4 else 0)
              for x in _SPACE)
        for c1, c2, c3 in permutations(range(1, 8), 3)
        if c3 != c1 ^ c2
    ]
    ensure(len(tables) == 168, "GL(3, 2) has 168 elements")
    return tuple(tables)


def twist(f: TraceFunction, pi) -> TraceFunction:
    """Precompose f with a permutation of the nonzero elements.

    pi maps each of 1..7 to its image (0, if present, must be fixed).
    Permutations realized by an invertible linear map are rejected:
    the twisted function must come from a genuinely different labeling.
    """
    tab = [0] * 8
    seen = set()
    for k, v in dict(pi).items():
        k, v = int(k), int(v)
        if k == 0:
            if v != 0:
                raise ValueError("permutation must fix 0")
            continue
        if not (1 <= k <= 7 and 1 <= v <= 7):
            raise ValueError("permutation must act on 1..7")
        tab[k] = v
        seen.add(k)
    if seen != set(range(1, 8)) or len(set(tab[1:])) != 7:
        raise ValueError("not a permutation of the nonzero elements")
    if tuple(tab) in _gl3_tables():
        raise ValueError("permutation is a linear map; twist would be equivalent")
    return build_trace(tuple(f.values[tab[x]] for x in _SPACE))


# -- Dirichlet series machinery ---------------------------------------------


def _monomial(odd: int, even: int) -> frozenset:
    """odd^odd * even^even on SU(2)'s classes: (0,) the odd dimensions, (1,) the even."""
    return frozenset(((FamilyRank("A", 1), (c,)), k) for c, k in enumerate((odd, even)) if k)


def dirichlet_coeffs(O: int, E: int, bound: int) -> list[int]:
    """Counts of ordered factorizations into O even and E odd parts.

    Entry d (1 <= d <= bound) is the number of tuples
    (b_1..b_O, c_1..c_E) with every b even, every c odd, and product d.
    Index 0 is unused.  A product of O even numbers is at least 2^O, so
    the whole array is zero when that already exceeds the bound.
    """
    if O < 0 or E < 0:
        raise ValueError("factor counts must be nonnegative")
    if bound < 1:
        raise ValueError("bound must be positive")
    return as_list(_zeta_series(Counter([_monomial(E, O)]), bound), bound)


def group_string(hom: SignHom) -> str:
    """su2^<n>/Z[...]: the central subgroup named by the annihilated image."""
    gens = ",".join(format(hom.image_bits(basis), "x") for basis in (1, 2, 4))
    return f"su2^{hom.n}/Z[{gens}]"


def quotient_zeta(hom: SignHom, bound: int, memo=None) -> DegreeTable:
    """Degree counts of the quotient of SU(2)^n by the annihilator of the image.

    A representation survives exactly when its coordinate parity vector
    lies in the image, so the counts sum SignHom.polynomial's monomials, one
    per image character.  memo, a dict, lets calls at the same bound share
    every product odd^a * even^b.
    """
    counts = _zeta_series(hom.polynomial(), bound, memo=memo)
    return DegreeTable(group_string(hom), "zeta", bound, counts)


def perm_equivalent(h1: SignHom, h2: SignHom) -> bool:
    """Whether relabeling coordinates carries one image onto the other.

    A coordinate permutation identifies the images exactly when some
    invertible change of source basis A matches the functional
    multiplicities.  It takes a functional y to y o A, that is A^T y, and
    the transposes of GL(3, 2) are GL(3, 2) again, so its 168 action
    tables decide it as they stand.
    """
    if h1.n != h2.n:
        raise ValueError("homomorphisms target different ranks")
    m1, m2 = h1.multiplicities, h2.multiplicities
    return any(all(m1[tab[y]] == m2[y] for y in _SPACE) for tab in _gl3_tables())


# A valid trace function with the smallest dominating value for this
# spread of nonzero values, and a transposition no linear map realizes.
DEFAULT_TRACE = (128, 8, -8, 16, -16, 24, -24, 32)
DEFAULT_TWIST = {1: 3, 2: 2, 3: 1, 4: 4, 5: 5, 6: 6, 7: 7}


class GassmannReport(namedtuple("GassmannReport", "zeta_equal perm_equivalent n")):
    __slots__ = ()


def verify_gassmann(f1_values, pi, bound: int) -> GassmannReport:
    """End-to-end check: equal degree counts, inequivalent subgroups."""
    f1 = build_trace(f1_values)
    f2 = twist(f1, pi)
    h1 = build_sign_hom(f1)
    h2 = build_sign_hom(f2)
    memo = {}  # for this call only: nothing outlives it
    t1 = quotient_zeta(h1, bound, memo)
    t2 = quotient_zeta(h2, bound, memo)
    return GassmannReport(
        zeta_equal=t1.counts == t2.counts,
        perm_equivalent=perm_equivalent(h1, h2),
        n=h1.n,
    )
