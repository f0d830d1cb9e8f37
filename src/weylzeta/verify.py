"""Regression ledger of reference values.

Every check here re-derives a frozen set of numbers or relations from
scratch and raises AssertionError when anything drifts (through ensure,
not assert, so the checks still run under python -O).  run_checks
returns one result per check; the command line prints them as a
PASS/FAIL ledger and the acceptance tests run them one per test.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from fractions import Fraction
from itertools import product

from .efficiency import eff_bruteforce, eff_formula
from .gassmann import (
    DEFAULT_TRACE,
    DEFAULT_TWIST,
    build_sign_hom,
    build_trace,
    perm_equivalent,
    quotient_zeta,
    twist,
)
from .repdegrees import (
    GroupSpec,
    dim_irrep,
    euler_identity_check,
    prime_power_scan,
    zeta_coefficients,
    zeta_star_coefficients,
)
from .rootsys import (
    FamilyRank,
    all_types,
    build,
    classify_subsystem,
    ensure,
    quadratic_nullspace_dim,
    spanning_check,
)
from .weylpoly import degree, evaluate, explicit_pair, explicit_polynomial, ord_at_zero


def check_explicit_values() -> None:
    """Frozen values of the distinguished polynomials at small arguments."""
    poly = lambda name: explicit_polynomial(FamilyRank.parse(name))
    for family, ranks in (("A", range(1, 9)), ("B", range(2, 9)),
                          ("C", range(3, 9)), ("D", range(4, 9))):
        for n in ranks:
            ensure(evaluate(poly(f"{family}{n}"), 1) == 1, f"{family}{n} at 1")
    ensure(evaluate(poly("G2"), 2) == 1)

    f4 = poly("F4")
    v2, v3 = int(evaluate(f4, 2)), int(evaluate(f4, 3))
    ensure((v2, v3) == (52, 340119))
    # 340119 = 3^4 * 13 * 17 * 19 and 52 = 2^2 * 13: the true gcd is 13
    ensure(math.gcd(v2, v3) == 13)

    e6 = poly("E6")
    vals = tuple(int(evaluate(e6, n)) for n in (2, 3, 4))
    ensure(vals == (1728, 3171108447, 71292900343808))
    ensure(math.gcd(*vals) == 1)

    e7 = poly("E7")
    vals = tuple(int(evaluate(e7, n)) for n in (2, 3))
    ensure(vals == (573440, 33940969546604175))
    ensure(math.gcd(*vals) == 5)

    e8 = poly("E8")
    vals = tuple(int(evaluate(e8, n)) for n in (2, 3))
    ensure(vals == (4096000, 2665014302693985712862760000))
    ensure(math.gcd(*vals) == 8000)


_CONSISTENCY_TYPES = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
    "D4", "D5", "E6", "E7", "E8", "F4", "G2",
)


def check_polynomial_consistency() -> None:
    """The distinguished polynomial interpolates the dimension formula."""
    for name in _CONSISTENCY_TYPES:
        system = build(name)
        pair = explicit_pair(system.id)
        P = explicit_polynomial(system.id)
        for n in range(2, 6):
            lam = tuple(n * m + v for m, v in zip(pair.mu, pair.nu))
            if any(c < 0 for c in lam):
                continue
            ensure(evaluate(P, n) == dim_irrep(system, lam), f"{name} at {n}")


def check_minimal_divisible_dimensions() -> None:
    """Exhaustive minimality of two distinguished divisible dimensions."""
    dims = zeta_coefficients(GroupSpec.parse("E7:sc"), 573440).counts
    hits = sorted(d for d in dims if d % 114688 == 0)
    ensure(hits and hits[0] == 573440, f"E7 multiples of 114688: {hits[:3]}")

    dims = zeta_coefficients(GroupSpec.parse("E8:sc"), 4096000).counts
    hits = sorted(d for d in dims if d % 512 == 0)
    ensure(hits and hits[0] == 4096000, f"E8 multiples of 512: {hits[:3]}")


_BRUTE_WITNESS = {
    "A2": [["A1"]],
    "A3": [["A2"]],
    "A4": [["A3"]],
    "B2": [["A1"]],
    "B3": [["B2"]],
    "B4": [["B3"]],
    "C3": [["B2"]],
    "C4": [["C3"]],
    "D4": [["A3"]],
    "G2": [["A1"]],
    "F4": [["B3"], ["C3"]],
}


def check_efficiency_oracle(include_f4: bool = True) -> None:
    """Brute-force efficiency equals the closed forms, witnesses included."""
    for name, expected_types in sorted(_BRUTE_WITNESS.items()):
        if name == "F4" and not include_f4:
            continue
        res = eff_bruteforce(name)
        expected = eff_formula(name)
        ensure(res.eff == expected.eff, f"{name} eff {res.eff}")
        ensure(res.lev == expected.lev, f"{name} lev {res.lev}")
        types = [str(t) for t in classify_subsystem(res.witness[0])]
        ensure(types in expected_types, f"{name} witness {types}")


def check_prime_power_scan() -> None:
    """No prime-power degrees below a million for the rank-7 adjoint pair."""
    for name in ("B7", "C7"):
        spec = GroupSpec.parse(f"{name}:adjoint")
        hits = prime_power_scan(spec, 10**6)
        ensure(hits == [], f"{name}: {hits[:5]}")


def check_scaling_identity() -> None:
    """dim(p*lam + (p-1)*rho) = p^|R+| dim(lam) on all rank <= 4 systems."""
    for fr in all_types(4):
        system = build(fr)
        n = system.rank
        factor = {p: p**system.num_positive for p in (2, 3, 5, 7)}
        for lam in product(range(3), repeat=n):
            base = dim_irrep(system, lam)
            for p in (2, 3, 5, 7):
                scaled = tuple(p * c + p - 1 for c in lam)
                ensure(dim_irrep(system, scaled) == factor[p] * base, f"{fr} {lam} p={p}")


def check_euler_identity() -> None:
    """Restricted counts generate the full counts through allowable primes."""
    for text in ("A1:sc", "A1:adjoint", "A1xA1:sc", "A1xA1:cosets[0,0;1/2,1/2]"):
        ensure(euler_identity_check(GroupSpec.parse(text), 512), text)
    star = zeta_star_coefficients(GroupSpec.parse("A1:sc"), 4096)
    ensure(sorted(star.counts) == [2**k for k in range(13)])
    ensure(set(star.counts.values()) == {1})


def check_gassmann_pair() -> None:
    """The default twisted pair: equal spectra, inequivalent subgroups."""
    # the reason the spectra agree, apart from the Dirichlet products the
    # two quotients share: equal exponent pairs, so equal class polynomials
    f = build_trace(DEFAULT_TRACE)
    h1, h2 = build_sign_hom(f), build_sign_hom(twist(f, DEFAULT_TWIST))
    ensure(h1.exponents() == h2.exponents())
    ensure(h1.polynomial() == h2.polynomial())
    ensure(h1.n == 128)
    ensure(not perm_equivalent(h1, h2))
    memo = {}  # the tables share their products, as in verify_gassmann
    t1, t2 = (quotient_zeta(h, 10**4, memo).counts for h in (h1, h2))
    ensure(t1 == t2)
    # apart from the engine: every nonzero image weight is >= 48, so below 2^48
    # d counts 0 if even, else the ordered 128-tuples of product d (tau_128)
    ensure(not any(t.get(d) for t in (t1, t2) for d in (2, 4, 6, 1024, 9990)))
    for e in product(range(9), range(6), range(5)):
        if (d := 3**e[0] * 5**e[1] * 7**e[2]) <= 10**4:
            tau = math.prod(math.comb(k + 127, 127) for k in e)
            ensure(t1.get(d, 0) == tau == t2.get(d, 0), f"degree {d}")


def check_quadratic_rigidity() -> None:
    """Roots pin the invariant quadratic form and span off every hyperplane."""
    for fr in all_types(8):
        system = build(fr)
        ensure(quadratic_nullspace_dim(system) == 0, str(fr))
        ensure(spanning_check(system), str(fr))


def _log_cmp(part: int, dim: int, q: Fraction) -> int:
    """Sign of log(part) / log(dim) - q, from part^v against dim^u (q = u/v, dim > 1)."""
    if q < 0:  # the log ratio is >= 0
        return 1
    lhs, rhs = part ** q.denominator, dim ** q.numerator
    return (lhs > rhs) - (lhs < rhs)


def check_prime_order_limit() -> None:
    """log(p)-weighted vanishing order approaches the efficiency, in integers.

    Exactly: ord_0(P) / deg(P) = eff and ord_0(P) = lev for the explicit
    polynomial P of each type but A1 (P = 1).  Then x_p = ord_p(dim) log p /
    log dim is compared with rationals by integer powers: |x_499 - eff| < 1/20,
    and |x_499 - eff| < r < |x_101 - eff| for an r found among the mediants of
    the Farey neighbours 0/1 and 1/20.
    """
    for fr in all_types(8)[1:]:
        P, expected = explicit_polynomial(fr), eff_formula(fr)
        order = ord_at_zero(P)
        ensure((Fraction(order, degree(P)), order) == (expected.eff, expected.lev),
               f"{fr}: ord/deg = {order}/{degree(P)}")
    for name in ("A3", "B3", "G2", "F4"):
        system = build(name)
        pair = explicit_pair(system.id)
        eff = eff_formula(name).eff
        dims = {}
        for p in (101, 499):
            dim = dim_irrep(system, tuple(p * m + v for m, v in zip(pair.mu, pair.nu)))
            dims[p] = (math.gcd(dim, p ** dim.bit_length()), dim)  # (p^ord_p(dim), dim)
        cmp = lambda p, q: _log_cmp(*dims[p], q)
        near = lambda p, r: cmp(p, eff - r) > 0 > cmp(p, eff + r)  # |x_p - eff| < r
        ensure(near(499, Fraction(1, 20)), f"{name}: |x_499 - eff| >= 1/20")
        a, b, c, d = 0, 1, 1, 20
        while b + d <= 1000:
            r = Fraction(a + c, b + d)
            if not near(499, r):  # r <= |x_499 - eff|
                a, b = a + c, b + d
            elif cmp(101, eff - r) >= 0 >= cmp(101, eff + r):  # r >= |x_101 - eff|
                c, d = a + c, b + d
            else:
                break
        ensure(b + d <= 1000, f"{name}: x_499 is not certified closer to eff than x_101")


class CheckResult(namedtuple("CheckResult", "title passed detail seconds",
                             defaults=("", 0.0))):
    __slots__ = ()


def run_checks(fast: bool = False) -> list[CheckResult]:
    """Run the ledger; fast mode drops the F4 efficiency search and the prime-power scan."""
    checks = [
        ("explicit pair values and gcds", check_explicit_values),
        ("polynomials match the dimension formula", check_polynomial_consistency),
        ("smallest divisible dimensions", check_minimal_divisible_dimensions),
        ("efficiency search agrees with the closed forms",
         lambda: check_efficiency_oracle(include_f4=not fast)),
    ]
    if not fast:
        checks.append(("rank-7 adjoint prime-power scan", check_prime_power_scan))
    checks += [
        ("dimension scaling identity", check_scaling_identity),
        ("restricted counts generate the spectrum", check_euler_identity),
        ("equal-spectrum quotient pair", check_gassmann_pair),
        ("quadratic rigidity of root systems", check_quadratic_rigidity),
        ("prime orders approximate the efficiency", check_prime_order_limit),
    ]
    for fr in all_types(8):  # shared by the checks, so built before any timer starts
        build(fr)
    results = []
    for title, fn in checks:
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(CheckResult(title, False, f"{type(exc).__name__}: {exc}",
                                       time.perf_counter() - start))
        else:
            results.append(CheckResult(title, True, seconds=time.perf_counter() - start))
    return results
