"""Degree spectra of compact semisimple groups.

A group is a product of irreducible factors together with a weight lattice
between the root lattice and the full weight lattice of the product.  All
dimension arithmetic is exact big-integer work; spectra are tables counting
irreducible representations by dimension up to a bound.

Spectra come from one combiner, graded_product: each factor's degrees are
counted once per center class (the class of the highest weight modulo the
root lattice), and the spectrum of the group is the sum, over the class
tuples its lattice allows, of the Dirichlet products of those series.  A
series is a list indexed by degree when dense and a dict of its terms
otherwise (_dense), and a product is a list when either operand is one, a
dict otherwise; DegreeTable.counts reads either like a dict.

An A1 factor's series are written down in closed form by a1_series, which
gassmann's SU(2) quotients use too.  Factors of rank >= 2 and
enumerate_dominant go through one walk, _factor_spectrum, that visits the
dominant weights up to the bound once each, incrementally: raising one
coordinate adds a coroot column to the kept pairings <lam + rho, beta^vee>
and steps the center class, so a weight costs one product of |Phi+|
integers.  For zeta_star, one sieve flags the coordinate gcds a prime
= 1 mod N divides; the same sieve lists the smooth numbers of the Euler
check.  allowable and in_lattice remain as the per-weight definitions.
Equal series in one product are raised to a power by squaring or, for a
dense multiplicative series (every A1 class-0 series is one) and a power
of at least 3, prime by prime from its values at prime powers (see
_dirichlet_pow), with a least-prime-power table from the same prime sieve.
Tuples with the same multiset of (factor, class) pairs share one product.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import Counter, defaultdict, namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, islice, repeat, starmap, zip_longest
from operator import add, eq, floordiv, mul

from .rootsys import FamilyRank, RootSystem, build, ensure

Weight = tuple[int, ...]


class GroupSpec(namedtuple("GroupSpec", "factors kind cosets")):
    """Product of irreducible factors plus a choice of weight lattice.

    kind 'sc' takes the full weight lattice, 'adjoint' the root lattice, and
    'cosets' an explicit subgroup of the fundamental group given by vectors
    of fractional root-basis coordinates, held sorted and reduced mod 1.
    """

    __slots__ = ()

    def __new__(cls, factors, kind: str = "sc", cosets=()):
        self = super().__new__(cls, tuple(factors), kind, cosets)
        if not self.factors:
            raise ValueError("group needs at least one factor")
        if kind not in ("sc", "adjoint", "cosets"):
            raise ValueError(f"unknown lattice kind {kind!r}")
        if kind != "cosets":
            if cosets:
                raise ValueError("coset list requires kind='cosets'")
            return self
        n = self.total_rank
        seen = set()
        for v in cosets:
            if len(v) != n:
                raise ValueError("coset vector length != total rank")
            seen.add(tuple(Fraction(x) % 1 for x in v))
        if (Fraction(0),) * n not in seen:
            raise ValueError("cosets must contain the identity coset")
        for v in seen:
            if not self._is_weight_coset(v):
                raise ValueError(f"not a weight-lattice coset: {v}")
        for a in seen:
            for b in seen:
                if tuple((x + y) % 1 for x, y in zip(a, b)) not in seen:
                    raise ValueError("cosets are not closed under addition")
        return super().__new__(cls, self.factors, kind, tuple(sorted(seen)))

    def _is_weight_coset(self, v) -> bool:
        # fractional root-basis coordinates name a weight iff C^T v is integral
        for fr, (a, b) in zip(self.factors, self.slices()):
            cartan = build(fr).cartan_matrix
            n = fr.rank
            block = v[a:b]
            for i in range(n):
                if sum(block[j] * cartan[j][i] for j in range(n)).denominator != 1:
                    return False
        return True

    @property
    def total_rank(self) -> int:
        return sum(fr.rank for fr in self.factors)

    def slices(self) -> list[tuple[int, int]]:
        out, off = [], 0
        for fr in self.factors:
            out.append((off, off + fr.rank))
            off += fr.rank
        return out

    def canonical(self) -> str:
        base = "x".join(str(fr) for fr in self.factors)
        if self.kind == "cosets":
            body = ";".join(",".join(str(x) for x in v) for v in self.cosets)
            return f"{base}:cosets[{body}]"
        return f"{base}:{self.kind}"

    _GRAMMAR = re.compile(
        r"^(?P<factors>[A-G]\d+(?:x[A-G]\d+)*)"
        r"(?::(?P<kind>sc|adjoint|cosets\[(?P<body>[^\]]*)\]))?$"
    )

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        m = cls._GRAMMAR.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse group {text!r}")
        factors = tuple(FamilyRank.parse(t) for t in m.group("factors").split("x"))
        kind = m.group("kind") or "sc"
        if kind.startswith("cosets"):
            body = m.group("body")
            try:
                vecs = tuple(
                    tuple(Fraction(c) for c in vec.split(",")) for vec in body.split(";")
                )
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in cosets[{body}]") from None
            return cls(factors, "cosets", vecs)
        return cls(factors, kind)

    def __str__(self):
        return self.canonical()


# -- dimension formula -----------------------------------------------------


@lru_cache(maxsize=None)
def _delta(fr: FamilyRank) -> int:
    system = build(fr)
    return math.prod(system.coroot_height(i) for i in range(system.num_positive))


def dim_irrep(R: RootSystem, lam) -> int:
    """Dimension of the irreducible representation with highest weight lam.

    Weyl's formula prod <lam + rho, beta^vee> / Delta over the positive
    coroots: the simple coroots pair to lam_j + 1, and each step (p, j) of
    R.coroot_chain pairs the next coroot by one addition.
    """
    if len(lam) != R.rank or any(c < 0 for c in lam):
        raise ValueError(f"weight {lam} is not dominant")
    vals = [c + 1 for c in lam]
    for p, j in R.coroot_chain:
        vals.append(vals[p] + vals[j])
    q, r = divmod(math.prod(vals), _delta(R.id))
    if r:
        raise ArithmeticError(f"{R.id} Weyl product of {lam} is not divisible by Delta")
    return q


def _class_of(system: RootSystem, w, kind: str) -> tuple[int, ...]:
    return () if kind == "sc" else system.center_class(w)


@lru_cache(maxsize=None)
def _allowed_classes(spec: GroupSpec) -> frozenset:
    """The class tuples, one center class per factor, in the group's lattice."""
    systems = [build(fr) for fr in spec.factors]
    if spec.kind != "cosets":
        return frozenset([tuple(_class_of(s, (0,) * s.rank, spec.kind) for s in systems)])
    return frozenset(
        tuple(tuple(int(x * s.cartan_det) for x in v[a:b])
              for s, (a, b) in zip(systems, spec.slices()))
        for v in spec.cosets
    )


def in_lattice(spec: GroupSpec, lam) -> bool:
    """True iff lam lies in the group's weight lattice."""
    classes = tuple(_class_of(build(fr), lam[a:b], spec.kind)
                    for fr, (a, b) in zip(spec.factors, spec.slices()))
    return classes in _allowed_classes(spec)


# -- the factor walk -------------------------------------------------------


@lru_cache(maxsize=None)
def _center_steps(fr: FamilyRank, kind: str) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The center classes of one factor and how raising a coordinate moves them.

    Raising lam_i adds the class of the i-th fundamental weight (column i of
    the numerators of C^-T, mod det C).  classes lists every class reached
    from the zero class, and steps[i][k] indexes classes[k] plus that column.
    'sc' grades nothing: one class, ().
    """
    system = build(fr)
    n = system.rank
    if kind == "sc":
        return ((),), ((0,),) * n
    d = system.cartan_det
    cols = [system.center_class(tuple(int(i == j) for j in range(n))) for i in range(n)]
    classes = [(0,) * n]
    index = {classes[0]: 0}
    steps = [[] for _ in range(n)]
    for cls in classes:  # grows until closed under the steps: the center is finite
        for col, step in zip(cols, steps):
            nxt = tuple((a + b) % d for a, b in zip(cls, col))
            if nxt not in index:
                index[nxt] = len(classes)
                classes.append(nxt)
            step.append(index[nxt])
    return tuple(classes), tuple(map(tuple, steps))


def _factor_spectrum(fr: FamilyRank, bound: int, kind: str):
    """Walk the dominant weights of one factor with dimension <= bound.

    Yields (dim, class, shifted) once per weight, in no particular order.
    class indexes _center_steps(fr, kind)[0]; shifted is lam + rho as a list
    the walk goes on changing, so copy it to keep it.  The walk holds the
    pairings <lam + rho, beta^vee> of the positive coroots: raising lam_i adds
    column i of the coroots to them, and dim <= bound is the integer test
    prod(pairings) <= bound * Delta.
    """
    system = build(fr)
    n, delta = system.rank, _delta(fr)
    limit = bound * delta
    cols = [[c[i] for c in system.coroots] for i in range(n)]
    steps = _center_steps(fr, kind)[1]
    shifted = [1] * n

    def raise_from(k: int, vals: list[int], cls: int):
        # a weight's children raise one coordinate at or after the last one it
        # raised; dim grows in every coordinate, so each chain ends at its
        # first weight over the bound, whose extensions are all over it too
        for i in range(k, n):
            col, step, v, c = cols[i], steps[i], vals, cls
            while True:
                v = list(map(add, v, col))
                c = step[c]
                shifted[i] += 1
                p = math.prod(v)
                if p > limit:
                    break
                yield p // delta, c, shifted
                if i + 1 < n:
                    yield from raise_from(i + 1, v, c)
            shifted[i] = 1

    vals = [sum(c) for c in system.coroots]
    if math.prod(vals) <= limit:  # the trivial weight, of dimension 1
        yield 1, 0, shifted
        yield from raise_from(0, vals, 0)


def enumerate_dominant(spec: GroupSpec, D: int) -> list[tuple[Weight, int]]:
    """All dominant weights of the group with dimension at most D.

    Returns (weight, dimension) pairs sorted by dimension then weight.
    """
    if D < 1:
        return []
    lists = [sorted((d, tuple(x - 1 for x in shifted))
                    for d, _, shifted in _factor_spectrum(fr, D, "sc"))
             for fr in spec.factors]
    m = len(lists)
    parts: list[Weight] = [()] * m
    results: list[tuple[Weight, int]] = []

    def rec(k: int, budget: int, dim_so_far: int):
        if k == m:
            lam = tuple(c for part in parts for c in part)
            if in_lattice(spec, lam):
                results.append((lam, dim_so_far))
            return
        for d, w in lists[k]:
            if d > budget:
                break
            parts[k] = w
            rec(k + 1, budget // d, dim_so_far * d)

    rec(0, D, 1)
    results.sort(key=lambda t: (t[1], t[0]))
    return results


# -- allowability ----------------------------------------------------------


def N_of(spec: GroupSpec) -> int:
    """Factorial of the total number of roots of the product."""
    return math.factorial(sum(2 * build(fr).num_positive for fr in spec.factors))


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _stripped(w, N: int) -> bool:
    """True iff a prime = 1 mod N divides every coordinate of w + rho.

    Only primes dividing the coordinate gcd can, and such a prime exceeds N.
    """
    g = math.gcd(*(c + 1 for c in w))
    return g > N and any(p % N == 1 for p in _prime_divisors(g))


def allowable(spec: GroupSpec, lam) -> bool:
    """True iff no factor of lam can be stripped at a prime = 1 mod N."""
    N = N_of(spec)
    return not any(_stripped(lam[a:b], N) for a, b in spec.slices())


def _iroot(x: int, k: int) -> int:
    """The largest r >= 0 with r**k <= x (0 when x < 1)."""
    lo, hi = 0, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _primes(limit: int) -> bytearray:
    """prime[n] is 1 iff n is prime, for 0 <= n <= limit (Eratosthenes)."""
    prime = bytearray([1]) * (limit + 1)
    prime[:2] = bytes(min(2, limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return prime


def _sieve(limit: int, N: int) -> tuple[bytearray, bytearray]:
    """Prime divisors of each 1 <= g <= limit, sorted by residue mod N.

    Returns (hit, miss): hit[g] is 1 iff a prime = 1 mod N divides g, and
    miss[g] is 1 iff a prime that is not = 1 mod N does.
    """
    if limit > MAX_SIEVE:
        raise ValueError(f"the strip sieve needs more than {MAX_SIEVE} slots; lower the bound")
    hit, miss = bytearray(limit + 1), bytearray(limit + 1)
    for p in compress(range(limit + 1), _primes(limit)):
        (hit if p % N == 1 else miss)[p::p] = b"\x01" * (limit // p)
    return hit, miss


# -- series ----------------------------------------------------------------

# A Dirichlet series up to a bound is held in one of two forms, chosen by
# one density rule (_dense): a list of counts indexed by degree, of length
# bound + 1 with index 0 unused, or a dict of its nonzero terms.  Counts are
# Python ints, since they pass 2^63 (the odd series to the 128th power does
# by 10^6).
Series = list[int] | dict[int, int]

# The most entries one series may hold: walk weights and dict terms, or the
# bound + 1 slots of a list, checked before the series is built.  A list costs
# about 30 bytes a slot and a walk about 115 bytes a weight, rendering included
# (A1:sc to 4*10^6: 110 MiB; A2:sc to 10^9, 4.1*10^6 weights: 434 MiB), so a
# job the cap admits stays under about 600 MiB.  A strip sieve (_sieve) costs
# about 4 bytes a slot (zeta-star A1:sc to 3*10^7: 114 MiB), so MAX_SIEVE slots
# cost about what MAX_ENTRIES list slots do.
MAX_ENTRIES = 5 * 10**6
MAX_SIEVE = 8 * MAX_ENTRIES


def _dense(terms: int, bound: int) -> bool:
    """The density rule: a series of this many terms up to bound is a list."""
    return terms * 64 >= bound


def _admit(entries: int) -> None:
    """Refuse a series of more entries than MAX_ENTRIES."""
    if entries > MAX_ENTRIES:
        raise ValueError(f"the spectrum needs a series of more than {MAX_ENTRIES} "
                         "entries; lower the bound")


def _terms(series: Series):
    """The (degree, count) terms in increasing degree, lazily for a list."""
    if isinstance(series, list):
        return zip(compress(range(len(series)), series), compress(series, series))
    return sorted(series.items())


def as_list(series: Series, bound: int) -> list[int]:
    """The series as a list up to bound: a list as it is, a dict written out."""
    if isinstance(series, list):
        return series
    out = [0] * (bound + 1)
    for d, c in series.items():
        if d <= bound:
            out[d] = c
    return out


class Counts(Mapping):
    """Counts by dimension, read like a dict in increasing dimension.

    A read-only view of the series a spectrum was computed as, list or dict;
    a dict is kept sorted, without zero counts.  Two views are equal when
    their nonzero terms are, whatever their forms.
    """

    __slots__ = ("series",)

    def __init__(self, series: Series):
        self.series = (series if isinstance(series, list)
                       else {d: c for d, c in sorted(series.items()) if c})

    def __getitem__(self, d):
        s = self.series
        if not isinstance(s, list):
            return s[d]
        if isinstance(d, int) and 0 < d < len(s) and s[d]:
            return s[d]
        raise KeyError(d)

    def __iter__(self):
        s = self.series
        return compress(range(len(s)), s) if isinstance(s, list) else iter(s)

    def __len__(self):
        s = self.series
        return len(s) - s.count(0) if isinstance(s, list) else len(s)

    def __eq__(self, other):
        if isinstance(other, Counts):
            theirs = _terms(other.series)
        elif isinstance(other, Mapping):
            theirs = sorted(other.items())
        else:
            return NotImplemented
        return all(starmap(eq, zip_longest(_terms(self.series), theirs)))

    def __repr__(self):  # a dict's, so a table's repr reads as before
        return repr(dict(_terms(self.series)))


# -- spectra ---------------------------------------------------------------


class DegreeTable(namedtuple("DegreeTable", "group variant bound counts")):
    """Counts of irreducible representations by dimension up to a bound.

    variant is "zeta" or "zeta_star"; counts, a Counts, maps dimension to
    count.  A series or dict given as counts is wrapped in one.
    """

    __slots__ = ()

    _HEADER = re.compile(
        r"^#\s*weylzeta v1 group=(\S+) variant=(zeta|zeta_star) maxdim=(\d+)\s*$"
    )
    _CHUNK = 4096  # rows joined into one string at a time by to_text

    def __new__(cls, group: str, variant: str, bound: int, counts):
        if not isinstance(counts, Counts):
            counts = Counts(counts)
        return super().__new__(cls, group, variant, bound, counts)

    @staticmethod
    def header(group: str, variant: str, bound: int) -> str:
        """The first line of a table's text, which _HEADER reads back."""
        return f"# weylzeta v1 group={group} variant={variant} maxdim={bound}\n"

    def to_text(self) -> str:
        """The header, then one row per nonzero count in increasing dimension.

        Rows are formatted straight from the series and joined a chunk at a
        time, so no tuple or string per row outlives its chunk.
        """
        s = self.counts.series
        values = compress(s, s) if isinstance(s, list) else s.values()
        rows = map("{}\t{}\n".format, self.counts, values)
        chunks = [self.header(self.group, self.variant, self.bound)]
        while chunk := "".join(islice(rows, self._CHUNK)):
            chunks.append(chunk)
        return "".join(chunks)

    @classmethod
    def from_text(cls, text: str) -> "DegreeTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty degree table")
        m = cls._HEADER.match(lines[0])
        if not m:
            raise ValueError(f"bad degree-table header: {lines[0]!r}")
        counts = {}
        for ln in lines[1:]:
            d, c = ln.split("\t")
            counts[int(d)] = int(c)
        return cls(m.group(1), m.group(2), int(m.group(3)), counts)


# -- center-graded Dirichlet convolution -----------------------------------


def _pairs(a: dict, b: dict, bound: int) -> int:
    """The pairs i * j <= bound of two dicts' degrees, counted until past MAX_ENTRIES."""
    js, count = sorted(b), 0
    for i in sorted(a):
        n = bisect_right(js, bound // i)
        count += n
        if not n or count > MAX_ENTRIES:
            break
    return count


def _pair_loop(a: dict, b: dict, bound: int, square: bool) -> dict[int, int]:
    """The product of two dicts, sorted, without zeros (see _dirichlet_mul)."""
    out = defaultdict(int)
    b_terms = sorted(b.items())
    for k, (i, ai) in enumerate(b_terms if square else sorted(a.items())):
        limit = bound // i
        if square:
            if i > limit:
                break
            out[i * i] += ai * ai
            ai *= 2
        for j, bj in islice(b_terms, k + 1, None) if square else b_terms:
            if j > limit:
                break
            out[i * j] += ai * bj
    return {d: out[d] for d in sorted(out) if out[d]}


def _axpy(out: list[int], i: int, ai: int, b: list[int], lo: int, hi: int) -> None:
    """out[i * j] += ai * b[j] for lo <= j <= hi, as one slice."""
    hi = min(hi, len(b) - 1)
    if lo <= hi:
        cells = slice(i * lo, i * hi + 1, i)
        seg = b[lo:hi + 1]
        out[cells] = map(add, out[cells], seg if ai == 1 else map(mul, repeat(ai), seg))


def _sliced_mul(out: list[int], a: Series, b: list[int], bound: int, square: bool):
    """The product into out with b a list, one slice of b per term of a.

    For a list a, the pairs split at s = isqrt(bound): the terms i <= s of
    a each take a slice of b, and the terms j <= bound // (s + 1) of b each
    take a slice of a past s, so O(sqrt(bound)) slices cover all pairs.  A
    square (a is b) has i <= j, so i <= s already.
    """
    split = math.isqrt(bound) if isinstance(a, list) else bound
    for i, ai in _terms(a):
        if i > split:
            break
        lo = 1
        if square:
            out[i * i] += ai * ai
            lo, ai = i + 1, 2 * ai
        _axpy(out, i, ai, b, lo, bound // i)
    if isinstance(a, list) and not square:
        for j, bj in _terms(b):
            if j > bound // (split + 1):
                break
            _axpy(out, j, bj, a, split + 1, bound // j)
    return out


def _dirichlet_mul(a: Series, b: Series, bound: int) -> Series:
    """Dirichlet product up to bound; a square (a is b) sums each pair i <= j once.

    The product is a list when either operand is one, which goes in as b and
    is added in by slices, else a dict from the pair loop.  MAX_ENTRIES caps
    the list's bound + 1 slots or the two dicts' pairs.
    """
    if isinstance(a, list):
        a, b = b, a
    if isinstance(b, list):
        _admit(bound + 1)
        return _sliced_mul([0] * (bound + 1), a, b, bound, a is b)
    _admit(_pairs(a, b, bound))
    return _pair_loop(a, b, bound, a is b)


def _dirichlet_pow(base: Series, k: int, bound: int) -> Series:
    """base ** k for k >= 1, up to bound, by one of two exact paths.

    Square-and-multiply squares from the top bit of k down, with only
    O(bound) alive.  A multiplicative base (f(1) = 1, f(mn) = f(m) f(n)
    for coprime m, n) has a multiplicative power, so _multiplicative_pow
    takes it prime by prime; on any other base it returns None and the
    power squares after all.

    The rule reads only k, len(base), bound and f(1): the prime-by-prime
    path is tried iff f(1) = 1, the base is dense (_dense(len(base), bound),
    so every list) and k >= 3.  The least of three medians of seven
    in-process runs on a 2-core VM, ms, square-and-multiply on lists /
    prime by prime:

        series, bound    k = 2       k = 3       k = 4       k = 8
        all, 2000        0.6 / 0.7   1.5 / 0.7   1.2 / 0.7   1.9 / 0.7
        all, 20000       7.1 / 6.2  18.0 / 6.2  15.0 / 6.3  24.9 / 6.5
        odd, 2000        0.4 / 0.7   0.9 / 0.7   0.7 / 0.7   1.1 / 0.7
        odd, 20000       4.3 / 6.3  10.5 / 6.3   8.7 / 6.4  13.1 / 6.4

    A dense base that is not multiplicative usually fails the check on a
    short prefix, before the O(bound) tables are built.
    """
    one = base[1:2] == [1] if isinstance(base, list) else base.get(1) == 1
    if one and k >= 3 and _dense(len(base), bound):
        _admit(bound + 1)
        power = _multiplicative_pow(base, k, bound)
        if power is not None:
            return power
    result = base
    for bit in bin(k)[3:]:
        result = _dirichlet_mul(result, result, bound)
        if bit == "1":
            result = _dirichlet_mul(result, base, bound)
    return result


def _least_prime_parts(powers: list[list[int]], limit: int) -> list[int]:
    """part[n] = q for 0 <= n <= limit: the power q of the least prime of n
    that divides n exactly (part[0] = part[1] = 1).

    powers lists, prime by prime in increasing order, the powers of every
    prime p <= isqrt(limit) (more primes do no harm).  They are written in
    decreasing order of p, each power in increasing order, so the least
    prime and its highest power write last; a number whose least prime
    exceeds isqrt(limit) is that prime.
    """
    part = list(range(limit + 1))
    for qs in reversed(powers):
        for q in qs:
            if q > limit:
                break
            part[q::q] = [q] * (limit // q)
    part[0] = 1  # 0 = 0 * 1, and f(0) = f(0) f(1)
    return part


def _multiplicative_pow(base: Series, k: int, bound: int) -> list[int] | None:
    """base ** k from its values at prime powers as a list, or None if base
    is not multiplicative up to bound.

    Write n = m q with q = part[n] from _least_prime_parts; m and q are
    coprime, and m = 1 iff n is a prime power.  The base is multiplicative
    up to bound iff f(n) = f(m) f(q) for every n <= bound; keys past the
    bound are never read.  The check runs up to isqrt(bound) first, so a
    base that fails early costs O(isqrt(bound)).  Then g = f ** k is
    multiplicative, g(n) = g(m) g(q), and at p^e the local series
    G = F ** k satisfies x G' F = k G x F', that is

        e g(p^e) = sum over j = 1..e of ((k + 1) j - e) f(p^j) g(p^(e-j)),

    one exact division (checked) per power of a prime p <= sqrt(bound); a
    larger prime has e = 1 only, where g(p) = k f(p).
    """
    small = list(compress(range(math.isqrt(bound) + 1), _primes(math.isqrt(bound))))
    powers = [[p**e for e in range(1, bound.bit_length()) if p**e <= bound]
              for p in small]
    f = as_list(base, bound)
    for limit in (math.isqrt(bound), bound):
        part = _least_prime_parts(powers, limit)
        fm = map(f.__getitem__, map(floordiv, range(limit + 1), part))
        if not all(map(eq, f, map(mul, fm, map(f.__getitem__, part)))):
            return None
    local = [k * c for c in f]  # g(q) at every prime power q
    for qs in powers:
        fs, gs = [1, *map(f.__getitem__, qs)], [1]
        for e in range(1, len(qs) + 1):
            total = sum(((k + 1) * j - e) * fs[j] * gs[e - j] for j in range(1, e + 1))
            ge, r = divmod(total, e)
            ensure(not r, f"the local recurrence divides exactly at {qs[e - 1]}")
            gs.append(ge)
            local[qs[e - 1]] = ge
    g = [0, 1]
    for n, q in enumerate(islice(part, 2, None), 2):
        g.append(g[n // q] * local[q])
    return g


def _least(series: Series) -> int | None:
    """The least degree of a term, None when there is none."""
    if isinstance(series, list):
        return next(compress(range(len(series)), series), None)
    return min(series, default=None)


def _sum(a: Series, b: Series, bound: int) -> Series:
    """a + b as a new series, a list when either is one."""
    if isinstance(a, list) or isinstance(b, list):
        return list(map(add, as_list(a, bound), as_list(b, bound)))
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + c
    return out


def graded_product(factors, graded, tuples, bound: int, memo=None) -> Series:
    """Sum over class tuples of the Dirichlet product of the factors' series.

    factors holds one key per factor, graded[key] maps a center class to
    that factor's series, and each of tuples names one class per factor.
    Equal (factor, class) pairs are raised to a power, and tuples with the
    same multiset of pairs share one product, computed once; a tuple is
    skipped when even its smallest degree, the product of the least
    dimensions, exceeds the bound.  memo, a dict, keeps the products by
    that multiset for later calls with the same graded and bound.  No
    series is changed in place, so products are shared, with the memo and
    with the result.
    """
    pairs = {pair for classes in tuples for pair in zip(factors, classes)}
    least = {(key, c): d for key, c in pairs if (d := _least(graded[key].get(c, {})))}
    total = None
    multisets = Counter(frozenset(Counter(zip(factors, classes)).items()) for classes in tuples)
    for groups, times in multisets.items():
        if any(pair not in least for pair, _ in groups):
            continue  # a factor has no weight of that class
        if math.prod(least[pair] ** k for pair, k in groups) > bound:
            continue
        product = None if memo is None else memo.get(groups)
        if product is None:
            powers = [_dirichlet_pow(graded[key][c], k, bound) for (key, c), k in groups]
            product = reduce(lambda a, b: _dirichlet_mul(a, b, bound), powers or [{1: 1}])
            if memo is not None:
                memo[groups] = product
        if times > 1:
            product = ([times * c for c in product] if isinstance(product, list)
                       else {d: times * c for d, c in product.items()})
        total = product if total is None else _sum(total, product, bound)
    return {} if total is None else total


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def a1_series(bound: int, m: int, hit=None) -> list[Series]:
    """The degrees of SU(2) up to bound, one series per center class, no walk.

    The weight with shifted coordinate t has dimension t, and raising it steps
    the class, so with m classes in step order from the zero class, class j
    holds each t = j + 1 mod m once.  t is also the coordinate gcd, so a
    strip sieve hit from _sieve (of length bound + 1) drops every t it flags.
    """
    if hit is None:  # each class keeps all its t, so a nonempty one is a list
        _admit(bound + 1)
    series = []
    for j in range(m):
        ts = range(j + 1, bound + 1, m)
        keep = b"\1" * len(ts) if hit is None else hit[j + 1::m].translate(_FLIP)
        terms = keep.count(1)
        if _dense(terms, bound):
            _admit(bound + 1)
            s = [0] * (bound + 1)
            s[j + 1::m] = keep
        else:
            _admit(terms)
            s = dict.fromkeys(compress(ts, keep), 1)
        series.append(s)
    return series


def _spectrum(spec: GroupSpec, D: int, star: bool) -> Series:
    """Degree counts up to D; star keeps the weights no prime = 1 mod N strips.

    Each distinct factor's weights are counted once, by center class, as the
    walk visits them, or in closed form for A1.  A weight's shifted
    coordinates are g times positive integers, so its dimension is at least
    g ** |Phi+| for their gcd g; the strip flags are sieved only that far,
    and not at all when no prime = 1 mod N (each exceeds N) is that small.
    A walk that yields more than MAX_ENTRIES weights is refused.
    """
    N = N_of(spec) if star else None
    graded: dict[FamilyRank, dict[tuple, Series]] = {}
    for fr in set(spec.factors):
        gmax = _iroot(D, build(fr).num_positive)
        hit = _sieve(gmax, N)[0] if star and gmax > N else None
        classes = _center_steps(fr, spec.kind)[0]
        if fr.rank == 1:
            counts = a1_series(D, len(classes), hit)
        else:
            counts = [{} for _ in classes]
            walk = _factor_spectrum(fr, D, spec.kind)
            for d, c, shifted in islice(walk, MAX_ENTRIES):
                if hit is None or not hit[math.gcd(*shifted)]:
                    series = counts[c]
                    series[d] = series.get(d, 0) + 1
            if next(walk, None) is not None:
                _admit(MAX_ENTRIES + 1)
        graded[fr] = dict(zip(classes, counts))
    return graded_product(spec.factors, graded, _allowed_classes(spec), D)


def zeta_coefficients(spec: GroupSpec, D: int) -> DegreeTable:
    return DegreeTable(spec.canonical(), "zeta", D, _spectrum(spec, D, star=False))


def zeta_star_coefficients(spec: GroupSpec, D: int) -> DegreeTable:
    return DegreeTable(spec.canonical(), "zeta_star", D, _spectrum(spec, D, star=True))


def euler_identity_check(spec: GroupSpec, D: int) -> bool:
    """Coefficientwise check that zeta equals zeta_star times the geometric
    correction factors at primes = 1 mod N, truncated at D."""
    N = N_of(spec)
    # prod over those p of 1/(1 - p^-ms) sums n^-ms over n built from such p
    top = _iroot(D, min(build(fr).num_positive for fr in spec.factors))
    miss = _sieve(top, N)[1]
    smooth = [n for n in range(1, top + 1) if not miss[n]]
    series = _spectrum(spec, D, star=True)
    for fr in spec.factors:
        m = build(fr).num_positive
        series = _dirichlet_mul(series, {n**m: 1 for n in smooth if n**m <= D}, D)
    return Counts(series) == Counts(_spectrum(spec, D, star=False))


def _is_prime_power(n: int) -> bool:
    return n > 1 and len(_prime_divisors(n)) == 1


def prime_power_scan(spec: GroupSpec, D: int) -> list[tuple[int, int]]:
    """Entries of the degree spectrum whose dimension is a prime power > 1."""
    table = zeta_coefficients(spec, D)
    return [(d, table.counts[d]) for d in sorted(table.counts) if _is_prime_power(d)]
