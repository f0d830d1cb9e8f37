"""The fraction-free elimination against sympy's exact matrices, and the
sparse modular rank certificate against the elimination and against the
dense certificate it replaced."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from weylzeta._linalg import _PRIME, annihilator, echelon, full_rank
from weylzeta.rootsys import all_types, build

import oracles

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


def _counted(rows, taken: list):
    """The rows, one at a time, each appended to taken as it is handed out."""
    for row in rows:
        taken.append(row)
        yield row


@st.composite
def sparse_rows(draw):
    """Up to 36 columns, mostly zeros.  Nonzeros crowd the first columns, so
    rows share pivots with different supports and reducing them fills in
    entries.  Some rows are a combination of two earlier ones: dependent, so
    the fill-in must cancel exactly."""
    n = draw(st.integers(1, 36))
    column = st.one_of(st.integers(0, min(n, 6) - 1), st.integers(0, n - 1))
    entry = st.integers(-9, 9).filter(bool)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if len(rows) >= 2 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2))
            a, b = draw(entry), draw(entry)
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        else:
            support = draw(st.sets(column, max_size=4))
            rows.append([draw(entry) if c in support else 0 for c in range(n)])
    return n, rows


@given(sparse_rows())
def test_sparse_full_rank_matches_elimination_and_dense_oracle(case):
    n, rows = case
    ranks = [len(echelon(rows[:m])[1]) for m in range(1, len(rows) + 1)]
    for k in range(1, n + 1):
        taken, dense_taken = [], []
        result = full_rank(_counted(rows, taken), k)
        assert result is oracles.full_rank(_counted(rows, dense_taken), k)
        # the rank mod the prime falls short of the exact rank only if the
        # prime divides every k x k minor, a chance of about 2^-61
        assert result is (ranks[-1] >= k)
        # it stops at the k-th independent row, the first prefix of rank k
        assert len(taken) == len(dense_taken) == (
            ranks.index(k) + 1 if result else len(rows))


def _quadratic_rows(system):
    n = system.rank
    unknowns = [(i, j) for i in range(n) for j in range(i, n)]
    return [[c[i] * c[j] * (1 if i == j else 2) for i, j in unknowns]
            for c in system.root_coords], len(unknowns)


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_full_rank_matches_dense_oracle_on_quadratic_rows(fr):
    rows, m = _quadratic_rows(build(fr))
    for k in (m, m + 1):
        taken, dense_taken = [], []
        assert full_rank(_counted(rows, taken), k) is (k == m)
        assert oracles.full_rank(_counted(rows, dense_taken), k) is (k == m)
        assert taken == dense_taken
