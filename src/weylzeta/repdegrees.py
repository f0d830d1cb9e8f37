"""Degree spectra of compact semisimple groups.

A group is a product of irreducible factors with a weight lattice between
the root lattice and the full weight lattice.  A spectrum counts
irreducible representations by dimension up to a bound, exactly.  A
DegreeTable holds one and owns its text: to_text writes it, and from_text
and served (a --cache hit) read it through one check of its grammar.

Every spectrum, gassmann's included, evaluates a class polynomial: each
factor's degrees are counted once per center class it names, and one
combiner, graded_product, sums its monomials' Dirichlet products.  A
series is a list indexed by degree when dense, else a dict (_dense).

A1 factors are written in closed form by a1_series, whose strip sieve
flags the t no prime = 1 mod N divides.  Other factors go through one
walk, _chains, over stems, the weights whose last coordinate is 0: each
stem's chain along that coordinate is a product of counts in C.  zeta_star
refuses a bound at which they lose a weight (_strips).

The per-weight definitions the tests hold the engine to share none of it:
enumerate_dominant rests on dim_irrep, in_lattice on root-basis
coordinates, and allowable on trial division.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import Counter, _count_elements, defaultdict, namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, count, islice, repeat, starmap, takewhile, zip_longest
from operator import add, eq, floordiv, itemgetter, mul, not_

from .rootsys import FamilyRank, RootSystem, build, ensure

Weight = tuple[int, ...]


class GroupSpec(namedtuple("GroupSpec", "factors kind cosets")):
    """Product of irreducible factors plus a choice of weight lattice.

    kind 'sc' takes the full weight lattice, 'adjoint' the root lattice, and
    'cosets' an explicit subgroup of the fundamental group given by vectors
    of fractional root-basis coordinates, held sorted and reduced mod 1.
    Each vector is checked against its factors' center classes (det C times
    a factor's block must be one), and closure under addition on those
    class tuples.
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
        tuples = set(map(self._classes, seen))
        dets = [build(fr).cartan_det for fr in self.factors]
        for a in tuples:
            for b in tuples:
                if tuple(tuple((x + y) % d for x, y in zip(p, q))
                         for p, q, d in zip(a, b, dets)) not in tuples:
                    raise ValueError("cosets are not closed under addition")
        return super().__new__(cls, self.factors, kind, tuple(sorted(seen)))

    def _classes(self, v) -> tuple[tuple[int, ...], ...]:
        """The center class of each factor's block of a reduced coset vector:
        det C times the block, which is a class iff C^T v is integral there (a
        Fraction equals its integer, so the class test needs no other)."""
        out = []
        for fr, (a, b) in zip(self.factors, self.slices()):
            d = build(fr).cartan_det
            block = tuple(x * d for x in v[a:b])
            if block not in _center_steps(fr, "cosets")[0]:
                raise ValueError(f"not a weight-lattice coset: {v}")
            out.append(tuple(map(int, block)))
        return tuple(out)

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


def dim_irrep(R: RootSystem, lam) -> int:
    """Dimension of the irreducible representation with highest weight lam.

    Weyl's formula prod <lam + rho, beta^vee> / Delta over the positive
    coroots; each step (p, j) of R.coroot_chain pairs one by an addition.
    """
    if len(lam) != R.rank or any(c < 0 for c in lam):
        raise ValueError(f"weight {lam} is not dominant")
    vals = [c + 1 for c in lam]
    for p, j in R.coroot_chain:
        vals.append(vals[p] + vals[j])
    q, r = divmod(math.prod(vals), R.delta)
    if r:
        raise ArithmeticError(f"{R.id} Weyl product of {lam} is not divisible by Delta")
    return q


def in_lattice(spec: GroupSpec, lam) -> bool:
    """True iff lam lies in the group's weight lattice: its root-basis
    coordinates, factor by factor, are all integers ('adjoint') or one of
    the coset vectors mod 1 ('cosets')."""
    if spec.kind == "sc":
        return True
    coords = tuple(Fraction(x, R.cartan_det) % 1
                   for R, (a, b) in zip(map(build, spec.factors), spec.slices())
                   for x in R.root_basis_numerators(lam[a:b]))
    return not any(coords) if spec.kind == "adjoint" else coords in spec.cosets


# -- the factor walk -------------------------------------------------------


@lru_cache(maxsize=None)
def _center_steps(fr: FamilyRank, kind: str) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The center classes of one factor and how raising a coordinate moves them.

    Raising lam_i adds the class of the i-th fundamental weight (column i of
    C^-T times det C, mod det C): steps[i][k] indexes classes[k] plus it.
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


@lru_cache(maxsize=None)
def _columns(fr: FamilyRank) -> tuple:
    """The coroots by column, their pairings with rho, which of them miss the
    last column, and (index, coefficient) for the others."""
    coroots = build(fr).coroots
    *cols, last = map(list, zip(*coroots))
    return cols, last, list(map(sum, coroots)), list(map(not_, last)), list(
        compress(enumerate(last), last))


def _chains(fr: FamilyRank, bound: int, kind: str, wanted):
    """The dominant weights of one factor with dimension <= bound, by chains.

    Yields (v, c, t, per, dims), dims nonempty, per stem (a weight with
    last coordinate 0) and class c in wanted (indexing
    _center_steps(fr, kind)[0]): v holds the stem's pairings
    <lam + rho, beta^vee>, and its weights of class c have last coordinate
    t, t + per, ... and dimensions dims.  Raising lam_i adds column i of the
    coroots to them; dim <= bound iff their product is at most
    bound * Delta.  A chain is a product of counts multiplied in C.
    """
    n, delta = fr.rank, build(fr).delta
    limit, div = bound * delta, delta.__rfloordiv__
    cols, last, vals, rest, ((j0, a0), *pairs) = _columns(fr)
    *steps, step = _center_steps(fr, kind)[1]
    left = MAX_ENTRIES
    stack = [(0, vals, math.prod(vals), 0)] if math.prod(vals) <= limit else []
    while stack:
        _admit(MAX_ENTRIES - left)
        k, v, p, c = stack.pop()
        for i in range(k, n - 1):  # the stems raising coordinate i >= k of this one
            w = list(map(add, v, cols[i]))
            if (q := math.prod(w)) <= limit:
                stack.append((i, w, q, steps[i][c]))
        if math.prod(map(add, v, last)) > limit:  # one weight, t = 0, of gcd 1
            if c in wanted:
                left -= 1
                yield v, c, 0, 1, [div(p)]
            continue
        orbit = [c]  # the classes along the chain
        while step[orbit[-1]] != c:
            orbit.append(step[orbit[-1]])
        per = len(orbit)
        const = math.prod(compress(v, rest))
        for r, e in enumerate(orbit):
            if e not in wanted:
                continue
            prods = count(const * (v[j0] + r * a0), const * per * a0)
            for j, a in pairs:
                prods = map(mul, prods, count(v[j] + r * a, per * a))
            prods = takewhile(limit.__ge__, prods)
            if dims := list(map(div, islice(prods, max(left, 0) + 1))):
                left -= len(dims)
                yield v, e, r, per, dims
    _admit(MAX_ENTRIES - left)


def enumerate_dominant(spec: GroupSpec, D: int) -> list[tuple[Weight, int]]:
    """All dominant weights of the group with dimension at most D, as
    (weight, dimension) pairs sorted by dimension then weight.  Each factor
    walks up from 0: raising a coordinate raises the dimension, and raising
    only coordinates at or after the last one raised reaches each weight once."""
    found = [((), 1)]
    for fr in spec.factors:
        system, ws, stack = build(fr), [], [(1, (0,) * fr.rank, 0)]
        while stack:
            d, w, k = stack.pop()
            ws.append((d, w))
            for i in range(k, fr.rank):
                up = (*w[:i], w[i] + 1, *w[i + 1:])
                if (e := dim_irrep(system, up)) <= D:
                    stack.append((e, up, i))
        ws.sort()
        found = [(lam + w, dim * d) for lam, dim in found
                 for d, w in takewhile(lambda dw: dim * dw[0] <= D, ws)]
    return sorted(((lam, d) for lam, d in found if in_lattice(spec, lam)), key=itemgetter(1, 0))


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


def _strips(fr: FamilyRank, D: int, N: int) -> bool:
    """True iff a prime p = 1 mod N strips a weight of fr of dimension <= D:
    p strips p mu + (p - 1) rho, of dimension p ** |Phi+| dim mu.  A walk
    holding the weights 2 j rho, of the zero class, with (2 j + 1) ** |Phi+|
    <= D is refused first, so the primes are sieved at most to 2 MAX_ENTRIES."""
    top = _iroot(D, build(fr).num_positive)
    _admit((top + 1) // 2)
    return any(_primes(top)[N + 1::N])


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


def _sieve(limit: int, N: int) -> bytearray:
    """keep[g] is 1 iff no prime = 1 mod N divides g, for 0 <= g <= limit.

    With s = isqrt(limit), g has at most one prime factor p > s, and then
    g = m p with m <= limit // (s + 1).  big clears the primes q = 1 + kN in
    (s, limit]; for each m in increasing order a slice copies it to the m q
    (a 1 at m q with p | q is rewritten by m q / p > m).  Then each prime
    = 1 mod N up to s clears its multiples.
    """
    if limit > MAX_SIEVE:
        raise ValueError(f"the strip sieve needs more than {MAX_SIEVE} slots; lower the bound")
    s = math.isqrt(limit)
    keep = bytearray([1]) * (limit + 1)
    keep[0] = 0  # every prime divides 0
    big = bytearray((limit - 1) // N + 1)  # big[k] for q = 1 + kN
    k0 = (s - 1) // N + 1  # the first q past s
    big[:k0] = bytearray([1]) * k0
    small = list(compress(range(s + 1), _primes(s)))
    for p in small:
        if N % p:  # q = 1 + kN is a multiple of p iff k = -1/N mod p
            k = -pow(N, -1, p) % p
            big[k::p] = bytearray([1]) * len(range(k, len(big), p))
    del big[:k0]  # now big[k - k0] for q = 1 + kN
    for m in range(1, limit // (s + 1) + 1):
        k1 = (limit // m - 1) // N  # falls as m rises, so big is cut in place
        del big[k1 - k0 + 1:]
        keep[m * (1 + k0 * N):m * (1 + k1 * N) + 1:m * N] = big  # a bytearray, not copied
    for p in small:
        if p % N == 1:
            keep[p::p] = bytearray(limit // p)
    return keep


def _smooth(top: int, N: int) -> list[int]:
    """The n <= top whose prime factors are all = 1 mod N, sorted."""
    part = [1] * (top + 1)  # part[n]: the powers of such primes in n, multiplied
    for p in compress(range(1, top + 1, N), _primes(top)[1::N]):
        q = p
        while q <= top:
            part[q::q] = map(p.__mul__, part[q::q])
            q *= p
    return list(compress(range(1, top + 1), map(eq, part[1:], range(1, top + 1))))


# -- series ----------------------------------------------------------------

# A series up to a bound is a list of counts indexed by degree (bound + 1
# long) or a dict of its nonzero terms; counts are Python ints (past 2^63).
Series = list[int] | dict[int, int]

# The most entries a series may hold (walk weights, dict terms or list
# slots), checked before it is built.  A list costs about 30 bytes a slot and
# a walk about 115 bytes a weight, rendering included (A1:sc to 4*10^6:
# 110 MiB; A2:sc to 10^9: 434 MiB), so an admitted job stays under about
# 600 MiB.  A strip sieve costs about 2 bytes a slot, a1_series' slice of it
# included (zeta-star A1:sc to 3*10^7, one class sliced whole: 67 MiB).
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
    _admit(bound + 1)
    out = [0] * (bound + 1)
    for d, c in series.items():
        if d <= bound:
            out[d] = c
    return out


class Counts(Mapping):
    """A read-only view of a series, list or dict, read like a dict in
    increasing dimension (a dict is kept sorted, without zeros).  Two views
    are equal when their nonzero terms are."""

    __slots__ = ("series",)

    def __init__(self, series: Series):
        if isinstance(series, list):
            self.series = series
        else:  # the nonzero counts' degrees, sorted, then their counts
            ks = sorted(compress(series, series.values()))
            self.series = dict(zip(ks, map(series.__getitem__, ks)))

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
            a, b = self.series, other.series
            if isinstance(a, list) and isinstance(b, list):  # slot by slot in C
                n = min(len(a), len(b))
                return a[:n] == b[:n] and not any(a[n:]) and not any(b[n:])
            theirs = _terms(b)
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

    variant is "zeta" or "zeta_star"; counts is a Counts (a series or dict
    given is wrapped in one).
    """

    __slots__ = ()

    _HEADER = re.compile(
        r"^#\s*weylzeta v1 group=(\S+) variant=(zeta|zeta_star) maxdim=(\d+)\s*$"
    )
    _CHUNK = 4096  # rows formatted into one string at a time by to_text

    def __new__(cls, group: str, variant: str, bound: int, counts):
        if not isinstance(counts, Counts):
            counts = Counts(counts)
        return super().__new__(cls, group, variant, bound, counts)

    @staticmethod
    def header(group: str, variant: str, bound: int) -> str:
        """The first line of a table's text, which _HEADER reads back."""
        return f"# weylzeta v1 group={group} variant={variant} maxdim={bound}\n"

    def to_text(self) -> str:
        """The header, then a row per nonzero count by dimension.  Up to
        _CHUNK dimensions at a time are interleaved with their counts and
        formatted by one %, so no string is made per row; the slice
        assignment needs as many counts as dimensions, so a misaligned
        series raises instead of printing shifted rows."""
        s = self.counts.series
        values = compress(s, s) if isinstance(s, list) else iter(s.values())
        dims = iter(self.counts)
        chunks = [self.header(self.group, self.variant, self.bound)]
        while block := list(islice(dims, self._CHUNK)):
            n = len(block)
            flat = block * 2
            flat[1::2] = islice(values, n)
            flat[::2] = block
            chunks.append("%d\t%d\n" * n % tuple(flat))
        return "".join(chunks)

    @classmethod
    def _rows(cls, body: bytes) -> tuple[re.Match, int]:
        """The header's match and the offset of the rows, each <digits>\t<digits>\n
        or ValueError: deleting the digits leaves only tab-newline pairs, no tab
        touches a line boundary, and the body ends a line."""
        head = body.index(b"\n") + 1
        m = cls._HEADER.match(body[:head - 1].decode("ascii"))
        rows = body[head:]
        marks = rows.translate(None, b"0123456789")
        if not (m and marks == b"\t\n" * (len(marks) // 2) and body.endswith(b"\n")
                and b"\t\n" not in rows and body.find(b"\n\t", head - 1) < 0):
            raise ValueError("not a degree table")
        return m, head

    @classmethod
    def from_text(cls, text: str) -> "DegreeTable":
        """The table whose to_text is text; ValueError unless _rows reads it."""
        body = text.encode()
        m, head = cls._rows(body)
        fields = map(int, body[head:].split())
        return cls(m[1], m[2], int(m[3]), dict(zip(fields, fields)))

    @classmethod
    def served(cls, body: bytes, group: str, variant: str, bound: int) -> str:
        """The text of the table in body (rows sorted by dimension) cut at bound;
        ValueError unless _rows reads body and the header names group and variant
        up to at least bound.  The cut bisects byte offsets, each probe moved to
        its line's start, so it parses only probed dimensions and decodes no more."""
        m, head = cls._rows(body)
        if not (m[1] == group and m[2] == variant and int(m[3]) >= bound):
            raise ValueError("the table does not cover the request")
        lo, hi = head, len(body)  # rows before lo are kept, rows from hi are not
        while lo < hi:
            start = body.rfind(b"\n", lo - 1, (lo + hi) // 2) + 1
            if int(body[start:body.index(b"\t", start)]) > bound:
                hi = start
            else:
                lo = body.index(b"\n", start) + 1
        return cls.header(group, variant, bound) + body[head:lo].decode("ascii")


# -- center-graded Dirichlet convolution -----------------------------------


def _pairs(a: dict, b: dict, bound: int) -> int:
    """The pairs i * j <= bound of two dicts' degrees, counted until past MAX_ENTRIES."""
    js, total = sorted(b), 0
    for i in sorted(a):
        n = bisect_right(js, bound // i)
        total += n
        if not n or total > MAX_ENTRIES:
            break
    return total


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

    For a list a the pairs split at s = isqrt(bound): terms i <= s of a take
    a slice of b, terms j <= bound // (s + 1) of b a slice of a past s.  A
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

    A list operand goes in as b, added in by slices, and makes the product a
    list; two dicts make a dict.  MAX_ENTRIES caps the slots or pairs.
    """
    if isinstance(a, list):
        a, b = b, a
    if isinstance(b, list):
        _admit(bound + 1)
        return _sliced_mul([0] * (bound + 1), a, b, bound, a is b)
    _admit(_pairs(a, b, bound))
    return _pair_loop(a, b, bound, a is b)


def _dirichlet_pow(base: Series, k: int, bound: int) -> Series:
    """base ** k for k >= 1 up to bound: by square-and-multiply or, for a
    list (dense by construction, as a1_series builds it) with k >= 3, prime
    by prime if it is multiplicative (_multiplicative_pow), about the cost
    of one squaring (A1 series to 20000 on a 2-core VM: 6.3 ms, against
    4.3-25 ms for k = 2..8 by squaring).  A dict, a walk's series, squares.
    """
    if isinstance(base, list) and k >= 3:
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
    """part[n]: the power of n's least prime that divides n exactly, for
    0 <= n <= limit (part[0] = part[1] = 1).

    powers holds the powers of each prime p <= isqrt(limit), by increasing
    p; written by decreasing p and increasing power, the least prime's
    highest power writes last.
    """
    part = list(range(limit + 1))
    for qs in reversed(powers):
        for q in qs:
            if q > limit:
                break
            part[q::q] = [q] * (limit // q)
    part[0] = 1  # 0 = 0 * 1, and f(0) = f(0) f(1)
    return part


def _multiplicative_pow(f: list[int], k: int, bound: int) -> list[int] | None:
    """f ** k as a list from f's values at prime powers, or None if the list
    f is not multiplicative up to bound.

    With n = m q, q = part[n] (_least_prime_parts), f is multiplicative iff
    f(n) = f(m) f(q) for all n <= bound, which also makes f(1) 0 or 1, and
    f all zero past 1 when f(1) = 0.  Then g = f ** k has g(1) = f(1),
    g(n) = g(m) g(q), and at p^e, from x G' F = k G x F' for the local
    series G = F ** k,

        e g(p^e) = sum over j = 1..e of ((k + 1) j - e) f(p^j) g(p^(e-j)),

    one exact division (checked) per power of a prime p <= sqrt(bound);
    past that g(p) = k f(p).
    """
    if f[1] == 0 and any(f):  # then not multiplicative: no table is needed
        return None
    small = list(compress(range(math.isqrt(bound) + 1), _primes(math.isqrt(bound))))
    powers = [[p**e for e in range(1, bound.bit_length()) if p**e <= bound]
              for p in small]
    part = _least_prime_parts(powers, bound)
    fm = map(f.__getitem__, map(floordiv, range(bound + 1), part))
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
    g = [0, f[1]]
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


def graded_product(poly, graded, bound: int, memo=None) -> Series:
    """Sum over a class polynomial's monomials of their Dirichlet products.

    graded[key] maps each center class the polynomial names to the series
    of the factor key, which a monomial raises to the pair's power.  Each
    product is kept by monomial in memo, a dict, if given, and a monomial
    whose least degree exceeds the bound is skipped.  No series is changed.
    """
    pairs = {pair for monomial in poly for pair, _ in monomial}
    least = {(key, c): d for key, c in pairs if (d := _least(graded[key][c]))}
    total = None
    for monomial, times in poly.items():
        if any(pair not in least for pair, _ in monomial):
            continue  # a factor has no weight of that class
        if math.prod(least[pair] ** k for pair, k in monomial) > bound:
            continue
        product = None if memo is None else memo.get(monomial)
        if product is None:
            powers = [_dirichlet_pow(graded[key][c], k, bound) for (key, c), k in monomial]
            product = reduce(lambda a, b: _dirichlet_mul(a, b, bound), powers or [{1: 1}])
            if memo is not None:
                memo[monomial] = product
        if times > 1:
            product = ([times * c for c in product] if isinstance(product, list)
                       else {d: times * c for d, c in product.items()})
        total = product if total is None else _sum(total, product, bound)
    return {} if total is None else total


def a1_series(bound: int, m: int, j: int, keep=None) -> Series:
    """The degrees of SU(2) up to bound in center class j of m: lam + rho = t
    has dimension and gcd t and class t - 1 mod m, so the series holds the
    t = j + 1 mod m that a strip sieve keep (_sieve, to bound) flags."""
    ts = range(j + 1, bound + 1, m)
    if keep is None:  # every t is kept, so a nonempty class is a list
        _admit(bound + 1)
        flags = b"\1" * len(ts)
    elif m == 1:  # keep[0] is 0, so keep itself flags every t, uncopied
        ts, flags = range(bound + 1), keep
    else:
        flags = keep[j + 1::m]
    terms = flags.count(1)
    if _dense(terms, bound):
        _admit(bound + 1)
        s = [0] * (bound + 1)
        s[ts.start::m] = flags
        return s
    _admit(terms)
    s, i = {}, flags.find(1)
    while i >= 0:  # under bound / 64 finds in C, not a pass over every t
        s[ts[i]] = 1
        i = flags.find(1, i + 1)
    return s


def class_polynomial(spec: GroupSpec) -> Counter:
    """zeta as a Counter of monomials in the factors' series by center class,
    frozensets of ((factor, class), power), one per allowed class tuple.  A
    class c stands for min(c, -c mod det C), as duals share degrees and
    gcds; so groups with equal polynomials have equal zeta and zeta_star."""
    zero = tuple(() if spec.kind == "sc" else (0,) * fr.rank for fr in spec.factors)
    tuples = map(spec._classes, spec.cosets) if spec.kind == "cosets" else [zero]
    return Counter(  # det C is read only for a class it grades, so never for 'sc'
        frozenset(Counter((fr, min(c, tuple(-x % build(fr).cartan_det for x in c)))
                          for fr, c in zip(spec.factors, classes)).items())
        for classes in tuples)


def _zeta_series(poly, D: int, N: int | None = None, memo=None) -> Series:
    """Degree counts up to D of a class polynomial, each factor counted in
    the classes it names; with N, of the weights no prime = 1 mod N strips.

    Only A1 factors lose weights in an admitted job: a walked factor's least
    stripped weight has dimension p ** |Phi+| (_strips), 2161^3 on A2.
    """
    pairs = {pair for monomial in poly for pair, _ in monomial}
    factors = sorted({fr for fr, _ in pairs})
    for fr in factors:  # every walked factor, before any series is built
        if N is not None and fr.rank > 1 and _strips(fr, D, N):
            raise ValueError(f"zeta_star would strip weights of {fr}; lower the bound")
    graded: dict[FamilyRank, dict[tuple, Series]] = {}
    for fr in factors:
        wanted = {c for other, c in pairs if other == fr}
        kind = "sc" if () in wanted else "cosets"  # () grades nothing
        classes = _center_steps(fr, kind)[0]
        if fr.rank == 1:  # a weight of A1 has gcd at most D
            keep = _sieve(D, N) if N is not None and D > N else None
            graded[fr] = {c: a1_series(D, len(classes), classes.index(c), keep) for c in wanted}
        else:
            graded[fr] = {c: {} for c in wanted}
            for _, j, _, _, dims in _chains(fr, D, kind, set(map(classes.index, wanted))):
                _count_elements(graded[fr][classes[j]], dims)  # Counter.update's loop, in C
    return graded_product(poly, graded, D, memo)


def zeta_coefficients(spec: GroupSpec, D: int) -> DegreeTable:
    return DegreeTable(spec.canonical(), "zeta", D, _zeta_series(class_polynomial(spec), D))


def zeta_star_coefficients(spec: GroupSpec, D: int) -> DegreeTable:
    return DegreeTable(spec.canonical(), "zeta_star", D,
                       _zeta_series(class_polynomial(spec), D, N_of(spec)))


def euler_identity_check(spec: GroupSpec, D: int) -> bool:
    """Coefficientwise check that zeta equals zeta_star times the geometric
    correction factors at primes = 1 mod N, truncated at D."""
    N = N_of(spec)
    # prod over those p of 1/(1 - p^-ms) sums n^-ms over n built from such p
    smooth = _smooth(_iroot(D, min(build(fr).num_positive for fr in spec.factors)), N)
    series = _zeta_series(class_polynomial(spec), D, N)
    for fr in spec.factors:
        m = build(fr).num_positive
        series = _dirichlet_mul(series, {n**m: 1 for n in smooth if n**m <= D}, D)
    return Counts(series) == Counts(_zeta_series(class_polynomial(spec), D))


def _is_prime_power(n: int) -> bool:
    return n > 1 and len(_prime_divisors(n)) == 1


def prime_power_scan(spec: GroupSpec, D: int) -> list[tuple[int, int]]:
    """Entries of the degree spectrum whose dimension is a prime power > 1."""
    table = zeta_coefficients(spec, D)
    return [(d, table.counts[d]) for d in sorted(table.counts) if _is_prime_power(d)]
