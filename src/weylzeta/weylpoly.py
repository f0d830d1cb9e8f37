"""Dimension-growth polynomials along lines of weights.

For weights mu, nu the polynomial interpolates the Weyl dimension formula
along n |-> n*mu + nu: each positive coroot contributes a linear factor
(a*x + b)/height with a, b its values on mu and nu + rho.  For suitable
per-family (mu, nu) the order/degree ratio at 0 realizes the efficiency of
the dual system, which is what makes these polynomials useful probes of the
degree spectrum.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache

from .rootsys import FamilyRank, RootSystem, build

Weight = tuple[int, ...]


class WeylPolynomial(namedtuple("WeylPolynomial", "coefficients")):
    """Exact rational coefficients, ascending degree."""

    __slots__ = ()

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coefficients) + "]"


class ExplicitPair(namedtuple("ExplicitPair", "id mu nu")):
    """The per-family (mu, nu) whose polynomial realizes the efficiency."""

    __slots__ = ()


def weyl_polynomial(R: RootSystem, mu, nu) -> WeylPolynomial:
    a, b = list(mu), [v + 1 for v in nu]
    for p, j in R.coroot_chain:  # the pairings of every positive coroot
        a.append(a[p] + a[j])
        b.append(b[p] + b[j])
    coeffs = [1]
    for x, y in zip(a, b):
        coeffs = [y * c + x * q for c, q in zip(coeffs + [0], [0] + coeffs)]
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return WeylPolynomial(tuple(Fraction(c, R.delta) for c in coeffs))


def evaluate(P: WeylPolynomial, n) -> Fraction:
    """P(n) exactly.

    Horner runs on the numerators scaled to the lcm d of the coefficient
    denominators (in integers for an int n), and one Fraction divides by d.
    """
    d = math.lcm(*(c.denominator for c in P.coefficients))
    acc = 0
    for c in reversed(P.coefficients):
        acc = acc * n + c.numerator * (d // c.denominator)
    return Fraction(acc, d)


def degree(P: WeylPolynomial) -> int:
    if not any(P.coefficients):
        raise ValueError("zero polynomial has no degree")
    return max(k for k, c in enumerate(P.coefficients) if c)


def ord_at_zero(P: WeylPolynomial) -> int:
    if not any(P.coefficients):
        raise ValueError("zero polynomial has no order")
    return next(k for k, c in enumerate(P.coefficients) if c)


_EXCEPTIONAL_PAIRS: dict[tuple[str, int], tuple[Weight, Weight]] = {
    ("E", 6): ((0, 1, 1, 0, 1, 1), (0, -1, -2, 0, -2, -1)),
    ("E", 7): ((1, 0, 1, 1, 0, 1, 0), (-1, 0, -1, -2, 0, -2, 0)),
    ("E", 8): ((1, 0, 0, 1, 0, 1, 1, 1), (-2, 0, 0, -2, 0, -2, -1, -1)),
    ("F", 4): ((1, 1, 0, 0), (-1, -2, 0, 0)),
    ("G", 2): ((1, 0), (-2, 0)),
}

# the ruled-out complement types: (orbit index of nu+rho, type of its complement)
_PAIR_COMPLEMENTS = {
    "A": (1, lambda n: [FamilyRank("A", n - 1)] if n > 1 else []),
    "B": (1, lambda n: [FamilyRank("B", n - 1)] if n > 2 else [FamilyRank("A", 1)]),
    "C": (1, lambda n: [FamilyRank("C", n - 1)] if n > 3 else [FamilyRank("B", 2)]),
    "D": (1, lambda n: [FamilyRank("D", n - 1)] if n > 4 else [FamilyRank("A", 3)]),
}

_EXCEPTIONAL_COMPLEMENTS = {
    ("E", 6): (1, ["D5"]),
    ("E", 7): (7, ["E6"]),
    ("E", 8): (8, ["E7"]),
    ("F", 4): (4, ["B3"]),
    ("G", 2): (1, ["A1"]),
}


def explicit_pair(fr: FamilyRank) -> ExplicitPair:
    fam, n = fr.family, fr.rank
    if fam in ("A", "B"):
        mu: Weight = tuple(0 if i == 0 else 1 for i in range(n))
    elif fam == "C":
        mu = (1,) * (n - 2) + (2, 0)
    elif fam == "D":
        mu = (1,) * (n - 3) + (2, 0, 0)
    else:
        mu, nu = _EXCEPTIONAL_PAIRS[fam, n]
        return ExplicitPair(fr, mu, nu)
    return ExplicitPair(fr, mu, tuple(-c for c in mu))


def pair_complement_claim(fr: FamilyRank) -> tuple[int, list[FamilyRank]]:
    """For the explicit pair: the fundamental-weight orbit index of nu+rho
    and the component types of its orthogonal complement."""
    fam, n = fr.family, fr.rank
    if fam in ("A", "B", "C", "D"):
        k, fn = _PAIR_COMPLEMENTS[fam]
        return k, fn(n)
    k, names = _EXCEPTIONAL_COMPLEMENTS[fam, n]
    return k, [FamilyRank.parse(t) for t in names]


@cache  # WeylPolynomial is frozen; the ledger asks for each type many times
def explicit_polynomial(fr: FamilyRank) -> WeylPolynomial:
    p = explicit_pair(fr)
    return weyl_polynomial(build(fr), p.mu, p.nu)
