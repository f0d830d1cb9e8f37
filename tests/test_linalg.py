"""The fraction-free elimination against sympy's exact matrices, and the
modular rank certificate against the elimination."""

from fractions import Fraction

import sympy
from hypothesis import given, strategies as st

from weylzeta._linalg import _PRIME, annihilator, echelon, full_rank

entries = st.one_of(
    st.integers(-4, 4),
    st.integers(-9, 9).map(lambda k: Fraction(k, 2)),
)


@st.composite
def matrices(draw, square=False):
    m = draw(st.integers(1, 6))
    n = m if square else draw(st.integers(1, 6))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]


@given(matrices())
def test_rank_and_annihilator_match_sympy(rows):
    n = len(rows[0])
    rank = sympy.Matrix(rows).rank()
    assert len(echelon(rows)[1]) == rank
    basis = annihilator(rows, n)
    assert len(basis) == n - rank
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


@given(matrices(square=True))
def test_inverse_matches_sympy(rows):
    n = len(rows)
    mat = sympy.Matrix(rows)
    reduced, pivots = echelon([row + [int(i == j) for j in range(n)]
                               for i, row in enumerate(rows)])
    if mat.det() == 0:
        assert pivots[-1] >= n
        return
    assert pivots == list(range(n))
    d = reduced[0][0]
    assert all(reduced[i][:n] == [d if j == i else 0 for j in range(n)]
               for i in range(n))
    inverse = sympy.Matrix([[sympy.Rational(x, d) for x in row[n:]] for row in reduced])
    assert inverse == mat.inv()


def test_empty_input():
    assert echelon([]) == ([], [])
    assert annihilator([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@st.composite
def integer_rows(draw):
    """Small integer rows, and which of them to multiply by the prime."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    rows = [draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) for _ in range(m)]
    return n, rows, draw(st.lists(st.booleans(), min_size=m, max_size=m))


@given(integer_rows())
def test_full_rank_matches_elimination(case):
    n, rows, flags = case
    exact = len(echelon(rows)[1]) == n
    # entries up to 9 in at most 6 columns: no nonzero minor reaches the prime
    assert full_rank(rows, n) is exact
    # a row times the prime is zero mod the prime, so the certificate sees
    # only the other rows and may fall short; the exact elimination settles it
    scaled = [[x * _PRIME for x in row] if f else row for row, f in zip(rows, flags)]
    kept = [row for row, f in zip(rows, flags) if not f]
    assert full_rank(scaled, n) is full_rank(kept, n)
    assert (len(echelon(scaled)[1]) == n) is exact
