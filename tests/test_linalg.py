"""The fraction-free elimination against sympy's exact matrices."""

from fractions import Fraction

import sympy
from hypothesis import given, strategies as st

from weylzeta._linalg import annihilator, echelon

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
