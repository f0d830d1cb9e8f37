"""Tests for the equal-spectrum quotient construction."""

import collections
import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from weylzeta.gassmann import (
    DEFAULT_TRACE,
    _spans_dual,
    DEFAULT_TWIST,
    SignHom,
    TraceFunction,
    _gl3_tables,
    build_sign_hom,
    build_trace,
    dirichlet_coeffs,
    fourier_multiplicities,
    group_string,
    perm_equivalent,
    quotient_zeta,
    twist,
    verify_gassmann,
)
from weylzeta.repdegrees import DegreeTable, GroupSpec, class_polynomial, zeta_coefficients
from weylzeta.rootsys import FamilyRank

import oracles

# f(0) = 8 and zero elsewhere: the sign pattern of the regular
# representation; skips build_trace validation (not injective) on purpose.
REGULAR = TraceFunction((8, 0, 0, 0, 0, 0, 0, 0))


def test_build_trace_accepts_default():
    f = build_trace(DEFAULT_TRACE)
    assert f.values == DEFAULT_TRACE
    as_dict = build_trace({x: v for x, v in enumerate(DEFAULT_TRACE)})
    assert as_dict == f


@pytest.mark.parametrize(
    "values",
    [
        (8, 0, 0, 0, 0, 0, 0, 0),  # not injective
        (8, 8, 16, 24, 32, 40, 48, 56),  # not injective either
        (8, 16, 24, 32, 40, 48, 56, 64),  # 8 < 280
        (128, 4, -8, 16, -16, 24, -24, 32),  # 4 is not a multiple of 8
        (128, 8, -8, 16, -16, 24, -24),  # only 7 values
    ],
)
def test_build_trace_rejects(values):
    with pytest.raises(ValueError):
        build_trace(values)


def test_build_trace_rejects_bad_keys():
    with pytest.raises(ValueError):
        build_trace({x: 8 * (x + 1) for x in range(7)})


def test_fourier_flat_spectrum():
    assert fourier_multiplicities(REGULAR) == {y: 1 for y in range(8)}
    scaled = TraceFunction((64, 0, 0, 0, 0, 0, 0, 0))
    assert fourier_multiplicities(scaled) == {y: 8 for y in range(8)}


def test_fourier_default_values():
    m = fourier_multiplicities(build_trace(DEFAULT_TRACE))
    assert m == {0: 20, 1: 0, 2: 16, 3: 20, 4: 16, 5: 24, 6: 16, 7: 16}
    assert sum(m.values()) == 128


def _dot(y, x):
    return (y & x).bit_count() & 1


@pytest.mark.parametrize("values", [DEFAULT_TRACE, (8, 0, 0, 0, 0, 0, 0, 0)])
def test_fourier_inversion_roundtrip(values):
    f = TraceFunction(values)
    m = fourier_multiplicities(f)
    for x in range(8):
        assert f.values[x] == sum(
            m[y] * (1 - 2 * _dot(y, x)) for y in range(8)
        )


def test_sign_hom_regular():
    hom = build_sign_hom(REGULAR)
    assert hom.n == 8
    assert hom.functionals == tuple(range(8))
    assert group_string(hom) == "su2^8/Z[aa,cc,f0]"


def test_sign_hom_default():
    hom = build_sign_hom(build_trace(DEFAULT_TRACE))
    assert hom.n == 128
    assert len(hom.functionals) == 128
    assert hom.functionals == tuple(sorted(hom.functionals))
    for x in range(8):
        assert 128 - 2 * hom.weight(x) == DEFAULT_TRACE[x]
    assert hom.weight(7) == 48
    assert hom.weight(5) == 52


def test_spans_dual_matches_elimination():
    # every support of the multiplicities, with unequal nonzero values
    for support in range(256):
        mult = {y: (support >> y & 1) * (1 + y % 3) for y in range(8)}
        assert _spans_dual(mult) is oracles.spans_dual(mult), support


def test_twist_default():
    f = build_trace(DEFAULT_TRACE)
    g = twist(f, DEFAULT_TWIST)
    assert g.values == (128, 16, -8, 8, -16, 24, -24, 32)


def test_twist_rejects_identity():
    f = build_trace(DEFAULT_TRACE)
    with pytest.raises(ValueError):
        twist(f, {x: x for x in range(1, 8)})


def test_twist_rejects_linear_transposition():
    # swapping the first two basis vectors extends to a linear map
    f = build_trace(DEFAULT_TRACE)
    with pytest.raises(ValueError):
        twist(f, {1: 2, 2: 1, 3: 3, 4: 4, 5: 6, 6: 5, 7: 7})


def test_twist_seven_cycles():
    f = build_trace(DEFAULT_TRACE)
    # multiplication by a generator of the field of order 8 is linear
    with pytest.raises(ValueError):
        twist(f, {1: 2, 2: 4, 4: 3, 3: 6, 6: 7, 7: 5, 5: 1})
    # the shift cycle is not: it moves 3 away from the image forced by 1, 2
    g = twist(f, {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7, 7: 1})
    assert sorted(g.values) == sorted(f.values)


@pytest.mark.parametrize(
    "pi",
    [
        {1: 3, 2: 2, 3: 1, 4: 4, 5: 5, 6: 6},  # missing 7
        {1: 3, 2: 2, 3: 1, 4: 4, 5: 5, 6: 6, 7: 6},  # not injective
        {0: 1, 1: 0, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7},  # moves 0
    ],
)
def test_twist_rejects_malformed(pi):
    with pytest.raises(ValueError):
        twist(build_trace(DEFAULT_TRACE), pi)


# -- Dirichlet coefficients -------------------------------------------------


def test_dirichlet_empty_product():
    coeffs = dirichlet_coeffs(0, 0, 12)
    assert coeffs[1] == 1
    assert all(coeffs[d] == 0 for d in range(2, 13))


def test_dirichlet_single_factor():
    even = dirichlet_coeffs(1, 0, 20)
    odd = dirichlet_coeffs(0, 1, 20)
    for d in range(1, 21):
        assert even[d] == (1 if d % 2 == 0 else 0)
        assert odd[d] == d % 2


def test_dirichlet_pair_at_six():
    # (2, 3) and (6, 1)
    assert dirichlet_coeffs(1, 1, 10)[6] == 2


def _naive_tuples(O, E, d):
    if O:
        return sum(
            _naive_tuples(O - 1, E, d // b)
            for b in range(2, d + 1, 2)
            if d % b == 0
        )
    if E:
        return sum(
            _naive_tuples(O, E - 1, d // c)
            for c in range(1, d + 1, 2)
            if d % c == 0
        )
    return 1 if d == 1 else 0


@pytest.mark.parametrize(
    "O,E", [(0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)]
)
def test_dirichlet_matches_naive_enumeration(O, E):
    coeffs = dirichlet_coeffs(O, E, 60)
    for d in range(1, 61):
        assert coeffs[d] == _naive_tuples(O, E, d)


def test_dirichlet_even_floor():
    # ten even factors multiply to at least 2^10
    assert all(c == 0 for c in dirichlet_coeffs(10, 0, 1023))
    just_enough = dirichlet_coeffs(10, 0, 1024)
    assert just_enough[1024] == 1
    assert sum(just_enough) == 1


def test_dirichlet_rejects_bad_args():
    with pytest.raises(ValueError):
        dirichlet_coeffs(-1, 0, 10)
    with pytest.raises(ValueError):
        dirichlet_coeffs(0, 0, 0)


# -- quotient spectra -------------------------------------------------------


def test_quotient_zeta_regular_leading_term():
    table = quotient_zeta(build_sign_hom(REGULAR), 12)
    assert table.counts[1] == 1
    assert table.variant == "zeta"
    assert table.bound == 12


def test_quotient_zeta_odd_part_is_odd_rotation_table():
    # the all-even character alone gives the degree counts of SO(3)
    so3 = zeta_coefficients(GroupSpec.parse("A1:adjoint"), 60)
    coeffs = dirichlet_coeffs(0, 1, 60)
    for d in range(1, 61):
        assert coeffs[d] == so3.counts.get(d, 0)


def _coset_group(hom: SignHom) -> GroupSpec:
    """The quotient as a cosets group: one vector of halves per image element."""
    vectors = []
    for x in range(8):
        bits = hom.image_bits(x)
        vectors.append(tuple(F(bits >> j & 1, 2) for j in range(hom.n)))
    return GroupSpec((FamilyRank("A", 1),) * hom.n, "cosets", tuple(vectors))


def test_quotient_zeta_matches_coset_spectrum():
    hom = build_sign_hom(REGULAR)
    direct = zeta_coefficients(_coset_group(hom), 40)
    quotient = quotient_zeta(hom, 40)
    assert quotient.counts == direct.counts


@pytest.mark.parametrize("values", [REGULAR.values, DEFAULT_TRACE])
def test_polynomial_matches_coset_group(values):
    # the polynomial read from the characters is the one the engine reads
    # from the same quotient's lattice
    hom = build_sign_hom(TraceFunction(values))
    assert hom.polynomial() == class_polynomial(_coset_group(hom))
    assert sum(hom.polynomial().values()) == 8


def _odd_tuple_count(d: int, n: int) -> int:
    # ordered n-tuples of odd numbers with product d
    total = 1
    e = 0
    x = d
    for p in range(3, d + 1, 2):
        if p * p > x:
            break
        e = 0
        while x % p == 0:
            x //= p
            e += 1
        if e:
            total *= math.comb(e + n - 1, n - 1)
    if x > 1:
        total *= math.comb(1 + n - 1, n - 1)
    return total


def test_quotient_zeta_default_closed_form():
    hom = build_sign_hom(build_trace(DEFAULT_TRACE))
    for bound in (200, 3000):
        table = quotient_zeta(hom, bound)
        for d in range(1, bound + 1):
            expect = _odd_tuple_count(d, 128) if d % 2 else 0
            assert table.counts.get(d, 0) == expect, (bound, d)


@pytest.mark.parametrize("bound", [500, 10**4, 2 * 10**4])
def test_shared_products_match_independent_calls(bound):
    # verify_gassmann's two quotients share a memo of products; shared or
    # not, each table is the same
    f1 = build_trace(DEFAULT_TRACE)
    homs = [build_sign_hom(f1), build_sign_hom(twist(f1, DEFAULT_TWIST))]
    memo = {}
    assert [quotient_zeta(h, bound, memo) for h in homs] == [
        quotient_zeta(h, bound) for h in homs]
    # below 2^48 only odd^128 survives the bound, computed once for both
    assert len(memo) == 1


def test_quotient_zeta_serialization_roundtrip():
    table = quotient_zeta(build_sign_hom(REGULAR), 30)
    text = table.to_text()
    assert text.splitlines()[0] == (
        "# weylzeta v1 group=su2^8/Z[aa,cc,f0] variant=zeta maxdim=30"
    )
    assert DegreeTable.from_text(text) == table


# -- equivalence testing ----------------------------------------------------


def test_perm_equivalent_reflexive():
    hom = build_sign_hom(build_trace(DEFAULT_TRACE))
    assert perm_equivalent(hom, hom)


def test_perm_equivalent_linear_relabel():
    f = build_trace(DEFAULT_TRACE)
    # relabel by the linear swap of the first two basis vectors
    lin = {0: 0, 1: 2, 2: 1, 3: 3, 4: 4, 5: 6, 6: 5, 7: 7}
    g = TraceFunction(tuple(f.values[lin[x]] for x in range(8)))
    assert perm_equivalent(build_sign_hom(f), build_sign_hom(g))


def _hom(functionals) -> SignHom:
    return SignHom(len(functionals), tuple(functionals),
                   {y: functionals.count(y) for y in range(8)})


def _images_permute(h1: SignHom, h2: SignHom) -> bool:
    """Brute force: some coordinate permutation carries h1's image set onto h2's."""
    images, target = ({h.image_bits(x) for x in range(8)} for h in (h1, h2))
    return any({sum((b >> j & 1) << s for j, s in enumerate(sigma)) for b in images} == target
               for sigma in permutations(range(h1.n)))


def test_perm_equivalent_matches_coordinate_permutations():
    # seeded random functionals spanning the dual; half the second homs are
    # the first one's coordinates shuffled and composed with a linear map
    rng = random.Random(3)
    found = set()
    for n in (3, 4, 5):
        for k in range(40):
            h1, h2 = (_hom(fs) for fs in (
                next(fs for fs in iter(lambda: [rng.randrange(8) for _ in range(n)], None)
                     if oracles.spans_dual(collections.Counter(fs)))
                for _ in range(2)))
            if k % 2:
                tab = rng.choice(_gl3_tables())
                h2 = _hom([tab[y] for y in rng.sample(h1.functionals, n)])
            expect = _images_permute(h1, h2)
            assert perm_equivalent(h1, h2) == expect, (h1.functionals, h2.functionals)
            found.add(expect)
    assert found == {True, False}


def test_perm_equivalent_rejects_mismatched_rank():
    with pytest.raises(ValueError):
        perm_equivalent(build_sign_hom(REGULAR), build_sign_hom(build_trace(DEFAULT_TRACE)))


def test_default_pair_shares_trace_multiset():
    f1 = build_trace(DEFAULT_TRACE)
    f2 = twist(f1, DEFAULT_TWIST)
    h1, h2 = build_sign_hom(f1), build_sign_hom(f2)
    t1 = sorted(h1.n - 2 * h1.weight(x) for x in range(8))
    t2 = sorted(h2.n - 2 * h2.weight(x) for x in range(8))
    assert t1 == t2
    assert h1.exponents() == h2.exponents() == sorted((128 - w, w) for w in (
        0, 48, 52, 56, 60, 68, 72, 76))
    assert build_sign_hom(REGULAR).exponents() == [(4, 4)] * 7 + [(8, 0)]


def test_default_pair_not_equivalent():
    f1 = build_trace(DEFAULT_TRACE)
    f2 = twist(f1, DEFAULT_TWIST)
    assert not perm_equivalent(build_sign_hom(f1), build_sign_hom(f2))


def test_verify_gassmann_small_bound():
    report = verify_gassmann(DEFAULT_TRACE, DEFAULT_TWIST, 1)
    assert report.zeta_equal
    assert not report.perm_equivalent
    assert report.n == 128


def test_verify_gassmann_medium_bound():
    report = verify_gassmann(DEFAULT_TRACE, DEFAULT_TWIST, 500)
    assert report.zeta_equal
    assert not report.perm_equivalent


def test_verify_gassmann_propagates_rejection():
    with pytest.raises(ValueError):
        verify_gassmann(DEFAULT_TRACE, {x: x for x in range(1, 8)}, 10)
