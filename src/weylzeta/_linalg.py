"""Exact linear algebra from one fraction-free elimination.

`echelon` is fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp.
22, 1968) on integer rows.  A row of Fractions is first scaled to integers
by the lcm of its denominators, which keeps its span.  Every division in the
pass is exact, and all pivots of the result share one value d, so what the
callers need is read off in integers:

- the rank is the number of pivots;
- `annihilator` gives one integer vector of {x : A x = 0} per free column;
- for a square invertible A, eliminating [A | I] leaves [d I | d A^-1].

`full_rank` certifies rank n mod the prime 2^61 - 1 (a minor nonzero mod p is
nonzero over Z); when it falls short, callers fall back to `echelon`.
"""

from __future__ import annotations

import math


def echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Nonzero rows and pivot columns of the fraction-free reduced form."""
    mat = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (scale // x.denominator) for x in row])
    pivots: list[int] = []
    prev = 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        top, piv = mat[r], mat[r][c]
        for i, row in enumerate(mat):
            if i != r:
                f = row[c]
                mat[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        prev = piv
        pivots.append(c)
    return mat[: len(pivots)], pivots


def annihilator(rows, n: int) -> list[tuple[int, ...]]:
    """Integer basis of {x in Q^n : A x = 0} for A given by rows of length n."""
    reduced, pivots = echelon(rows)
    d = reduced[0][pivots[0]] if pivots else 1
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = d
        for row, c in zip(reduced, pivots):
            v[c] = -row[free]
        basis.append(tuple(v))
    return basis


_PRIME = 2**61 - 1


def full_rank(rows, n: int) -> bool:
    """True if n of the integer rows are independent mod the prime; stops at the n-th."""
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
