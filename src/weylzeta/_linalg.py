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
nonzero over Z); when it falls short, callers fall back to `echelon`.  It keeps
only the nonzero entries of a row, and a row's pivot is its least nonzero column.
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
    """True if n of the integer rows are independent mod the prime; stops at the n-th.

    A row is reduced by the basis rows in the order found, over their nonzeros
    only, and loses the entries that cancel; a basis row, scaled to 1 at its
    pivot, keeps its later nonzeros as (column, value) pairs.
    """
    basis: dict[int, list] = {}
    for row in rows:
        v = {c: r for c, x in enumerate(row) if (r := x % _PRIME)}
        for c, top in basis.items():
            if f := v.pop(c, 0):
                for k, y in top:
                    if x := (v.get(k, 0) - f * y) % _PRIME:
                        v[k] = x
                    else:
                        del v[k]
        if v:
            inv = pow(v.pop(c := min(v)), -1, _PRIME)
            basis[c] = [(k, x * inv % _PRIME) for k, x in v.items()]
            if len(basis) == n:
                return True
    return False
