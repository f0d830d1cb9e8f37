import collections
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from sympy import factorint, isprime, primefactors, primerange

from weylzeta import repdegrees
from weylzeta.gassmann import DEFAULT_TRACE, build_sign_hom, build_trace, quotient_zeta
from weylzeta.repdegrees import (
    DegreeTable,
    FamilyRank,
    GroupSpec,
    N_of,
    a1_series,
    allowable,
    class_polynomial,
    dim_irrep,
    enumerate_dominant,
    euler_identity_check,
    graded_product,
    in_lattice,
    prime_power_scan,
    zeta_coefficients,
    zeta_star_coefficients,
)
from weylzeta.repdegrees import (
    _allowed_classes,
    _center_steps,
    _chains,
    _dirichlet_mul,
    _dirichlet_pow,
    _factor_spectrum,
    _iroot,
    _sieve,
    _smooth,
    _stripped,
)
from weylzeta.rootsys import all_types, build

import oracles
from oracles import (
    allowable_at,
    as_dict,
    dim_irrep_product,
    recover_factor_sizes,
    root_basis_coords,
    su3_code_group,
    su3_code_words,
    truncated,
)
from oracles import pair_loop as _pair_loop  # the name the squaring tests use

H = Fraction(1, 2)
SO4 = GroupSpec.parse("A1xA1:cosets[0,0;1/2,1/2]")


def test_spec_parse_roundtrip():
    for text in ("A1:sc", "A1:adjoint", "B7:adjoint", "A1xB3:sc",
                 "A1xA1:cosets[0,0;1/2,1/2]"):
        assert GroupSpec.parse(text).canonical() == text
    assert GroupSpec.parse("B7").canonical() == "B7:sc"
    assert SO4.cosets == ((Fraction(0), Fraction(0)), (H, H))


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec.parse("A0:sc")
    with pytest.raises(ValueError):
        GroupSpec.parse("A1:bogus")
    with pytest.raises(ValueError):  # not a weight coset
        GroupSpec.parse("A1xA1:cosets[0,0;1/4,0]")
    with pytest.raises(ValueError):  # missing identity
        GroupSpec.parse("A1xA1:cosets[1/2,1/2]")
    with pytest.raises(ValueError):  # not closed under addition
        GroupSpec.parse("A1xA1:cosets[0,0;1/2,0;0,1/2]")
    with pytest.raises(ValueError):
        GroupSpec((), "sc")


# -- the lattice rule against its definition ---------------------------------

DENOMINATORS = (2, 3, 4, 6, 8)


def _coset_rule_agrees(factors, v) -> bool:
    """GroupSpec refuses the cosets 0 and v by the coset rule, which it checks
    before closure, iff the reference rule says v is no weight coset;
    returns the reference rule."""
    expect = oracles.is_weight_coset(factors, v)
    try:
        GroupSpec(factors, "cosets", [(0,) * len(v), v])
    except ValueError as e:
        refused = str(e).startswith("not a weight-lattice coset: ")
        assert refused or str(e) == "cosets are not closed under addition", e
    else:
        refused = False
    assert refused != expect, v
    return expect


@pytest.mark.parametrize("fr", all_types(3), ids=str)
def test_spec_takes_exactly_the_weight_cosets(fr):
    # every vector of denominator 2, 3, 4, 6 or 8 on a type of rank <= 3
    found = {_coset_rule_agrees((fr,), tuple(Fraction(k, q) for k in nums))
             for q in DENOMINATORS for nums in itertools.product(range(q), repeat=fr.rank)}
    assert found == {True, False}


def _weight_coset(factors, lam):
    """The root-basis coordinates of a weight, factor by factor, mod 1."""
    spec = GroupSpec(factors)
    return tuple(x % 1 for fr, (a, b) in zip(factors, spec.slices())
                 for x in root_basis_coords(build(fr), lam[a:b]))


@pytest.mark.parametrize("text", ["D4", "E6", "E7", "A1xA2"])
def test_spec_takes_sampled_weight_cosets(text):
    # half the samples are the cosets of random weights, half random vectors
    factors = GroupSpec.parse(text).factors
    n = sum(fr.rank for fr in factors)
    rng = random.Random(text)
    found = set()
    for k in range(200):
        q = rng.choice(DENOMINATORS)
        if k % 2:
            v = _weight_coset(factors, [rng.randrange(q) for _ in range(n)])
        else:
            v = tuple(Fraction(rng.randrange(q), q) for _ in range(n))
        found.add(_coset_rule_agrees(factors, v))
    assert found == {True, False}


def _generated(vectors):
    """The least set of vectors mod 1 closed under addition that holds them."""
    out = {tuple(x % 1 for x in v) for v in vectors}
    while grown := {tuple((x + y) % 1 for x, y in zip(a, b)) for a in out for b in out} - out:
        out |= grown
    return out


@pytest.mark.parametrize("text", ["A1xA1xA1", "A1xA3", "A2xA2", "D4", "A3xB2", "E6xA1"])
def test_spec_closure_matches_fraction_closure(text):
    # random subsets of the weight cosets, half of them closed by generation
    factors = GroupSpec.parse(text).factors
    blocks = [{_weight_coset((fr,), lam)
               for lam in itertools.product(range(build(fr).cartan_det), repeat=fr.rank)}
              for fr in factors]
    cosets = sorted(tuple(itertools.chain(*parts)) for parts in itertools.product(*blocks))
    zero = cosets[0]
    rng = random.Random(text)
    found = set()
    for k in range(60):
        subset = {zero, *rng.sample(cosets, rng.randint(1, 3))}
        if k % 2:
            subset = _generated(subset)
        expect = oracles.closed_under_addition(subset)
        try:
            spec = GroupSpec(factors, "cosets", sorted(subset))
        except ValueError as e:
            assert (expect, str(e)) == (False, "cosets are not closed under addition")
        else:
            assert expect and set(spec.cosets) == subset
        found.add(expect)
    assert found == {True, False}


def test_su3_code_group_and_its_faults():
    # SU(3)^7 over the 27 words of a ternary [7, 3] code parses; one word
    # dropped leaves a set that is not closed, and 1/2 in an A2 block is no coset
    words = oracles.su3_code_words()
    assert len(GroupSpec.parse(oracles.su3_code_group(words)).cosets) == 27
    with pytest.raises(ValueError, match="^cosets are not closed under addition$"):
        GroupSpec.parse(oracles.su3_code_group(words[:5] + words[6:]))
    bad = words[5].replace("1/3,2/3", "1/2,1/2", 1)
    v = tuple(Fraction(c) for c in bad.split(","))
    with pytest.raises(ValueError) as err:
        GroupSpec.parse(oracles.su3_code_group(words[:5] + [bad] + words[6:]))
    assert str(err.value) == f"not a weight-lattice coset: {v}"


DIM_CASES = [
    ("A1", (0,), 1),
    ("A1", (4,), 5),
    ("A2", (1, 0), 3),
    ("A2", (1, 1), 8),
    ("A3", (0, 1, 0), 6),
    ("A3", (1, 0, 1), 15),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("B3", (1, 0, 0), 7),
    ("B3", (0, 1, 0), 21),
    ("B3", (0, 0, 1), 8),
    ("C3", (1, 0, 0), 6),
    ("C3", (0, 1, 0), 14),
    ("C3", (0, 0, 1), 14),
    ("D4", (1, 0, 0, 0), 8),
    ("D4", (0, 1, 0, 0), 28),
    ("D4", (0, 0, 1, 0), 8),
    ("D4", (0, 0, 0, 1), 8),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("F4", (0, 0, 0, 1), 26),
    ("F4", (1, 0, 0, 0), 52),
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E6", (0, 1, 0, 0, 0, 0), 78),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
    ("E7", (1, 0, 0, 0, 0, 0, 0), 133),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248),
    ("E8", (1, 0, 0, 0, 0, 0, 0, 0), 3875),
    ("E8", (0, 0, 0, 0, 0, 0, 1, 1), 4096000),
]


@pytest.mark.parametrize("name,lam,expect", DIM_CASES)
def test_dim_irrep(name, lam, expect):
    assert dim_irrep(build(name), lam) == expect


@pytest.mark.parametrize("fr", all_types(4), ids=str)
def test_dim_irrep_matches_weyl_formula(fr):
    system = build(fr)
    for lam in itertools.product(range(3), repeat=system.rank):
        assert dim_irrep(system, lam) == oracles.dim_weyl(system, lam)


def _seeded_weights(fr, count=40):
    """The zero weight, then coordinates mixing 0, small values and values up to 10^6."""
    rng = random.Random(str(fr))
    draw = (lambda: 0, lambda: rng.randint(1, 3), lambda: rng.randint(0, 10**6))
    return [(0,) * fr.rank] + [tuple(rng.choice(draw)() for _ in range(fr.rank))
                               for _ in range(count - 1)]


@pytest.mark.parametrize("fr", all_types(16), ids=str)
def test_dim_irrep_matches_pairing_oracle(fr):
    system = build(fr)
    for lam in _seeded_weights(fr):
        assert dim_irrep(system, lam) == oracles.dim_by_pairings(system, lam)


@pytest.mark.parametrize("name,lam,expect", [c for c in DIM_CASES if c[0][0] == "E"])
def test_dim_irrep_matches_weyl_formula_on_e_series(name, lam, expect):
    assert dim_irrep(build(name), lam) == oracles.dim_weyl(build(name), lam) == expect


def test_dim_irrep_rejects_non_dominant():
    with pytest.raises(ValueError):
        dim_irrep(build("A1"), (-1,))
    with pytest.raises(ValueError):
        dim_irrep(build("A2"), (1,))


def test_dim_vector_rep_of_all_families():
    for fr in all_types(8):
        if fr.family == "A":
            lam = (1,) + (0,) * (fr.rank - 1)
            assert dim_irrep(build(fr), lam) == fr.rank + 1


@pytest.mark.parametrize("fr", all_types(4), ids=str)
def test_scaling_identity(fr):
    system = build(fr)
    n = system.rank
    npos = system.num_positive
    weights = [(0,) * n, (1,) * n, (2,) * n]
    weights += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    for p in (2, 3, 5, 7):
        for lam in weights:
            scaled = tuple(p * c + p - 1 for c in lam)
            assert dim_irrep(system, scaled) == p**npos * dim_irrep(system, lam)


@pytest.mark.parametrize("fr", all_types(4), ids=str)
def test_rho_specialization(fr):
    system = build(fr)
    for p in (2, 3, 5):
        lam = (p - 1,) * system.rank
        assert dim_irrep(system, lam) == p**system.num_positive


@pytest.mark.parametrize("fr", all_types(4), ids=str)
def test_dim_monotonicity(fr):
    system = build(fr)
    n = system.rank
    base = (1, 0) * (n // 2) + (1,) * (n % 2)
    d0 = dim_irrep(system, base)
    for i in range(n):
        bumped = tuple(c + 1 if j == i else c for j, c in enumerate(base))
        assert dim_irrep(system, bumped) > d0


def test_dim_irrep_product():
    spec = GroupSpec.parse("A1xA1:sc")
    for a in range(4):
        for b in range(4):
            assert dim_irrep_product(spec, (a, b)) == (a + 1) * (b + 1)
    mixed = GroupSpec.parse("B2xG2:sc")
    assert dim_irrep_product(mixed, (0, 0, 0, 0)) == 1
    assert dim_irrep_product(mixed, (0, 0, 0, 1)) == 14
    with pytest.raises(ValueError):
        dim_irrep_product(mixed, (0, 0, 0))


def test_in_lattice():
    so3 = GroupSpec.parse("A1:adjoint")
    assert not in_lattice(so3, (1,))
    assert in_lattice(so3, (2,))
    assert in_lattice(GroupSpec.parse("A1:sc"), (1,))
    assert in_lattice(SO4, (1, 1))
    assert not in_lattice(SO4, (1, 0))
    assert in_lattice(SO4, (2, 0))
    e6 = GroupSpec.parse("E6:adjoint")
    assert not in_lattice(e6, (1, 0, 0, 0, 0, 0))
    assert in_lattice(e6, (0, 1, 0, 0, 0, 0))


def test_enumerate_dominant_rank_one():
    assert enumerate_dominant(GroupSpec.parse("A1:sc"), 5) == [
        ((0,), 1), ((1,), 2), ((2,), 3), ((3,), 4), ((4,), 5),
    ]
    assert enumerate_dominant(GroupSpec.parse("A1:adjoint"), 5) == [
        ((0,), 1), ((2,), 3), ((4,), 5),
    ]


def test_enumerate_dominant_e8():
    got = enumerate_dominant(GroupSpec.parse("E8:adjoint"), 250)
    assert got == [((0,) * 8, 1), ((0, 0, 0, 0, 0, 0, 0, 1), 248)]


def test_enumerate_dominant_deterministic():
    spec = GroupSpec.parse("A2xA1:sc")
    assert enumerate_dominant(spec, 40) == enumerate_dominant(spec, 40)


def test_zeta_divisor_counts():
    table = zeta_coefficients(GroupSpec.parse("A1xA1:sc"), 12)
    for d in range(1, 13):
        ndiv = sum(1 for k in range(1, d + 1) if d % k == 0)
        assert table.counts.get(d, 0) == ndiv


def test_zeta_so3_parity():
    table = zeta_coefficients(GroupSpec.parse("A1:adjoint"), 10)
    assert table.counts == {1: 1, 3: 1, 5: 1, 7: 1, 9: 1}


def test_zeta_table_fields():
    table = zeta_coefficients(GroupSpec.parse("A1:sc"), 10)
    assert table.group == "A1:sc" and table.variant == "zeta" and table.bound == 10
    assert table.counts[1] == 1


def test_n_of():
    assert N_of(GroupSpec.parse("A1:sc")) == 2
    assert N_of(GroupSpec.parse("A2:sc")) == 720
    assert N_of(GroupSpec.parse("G2:sc")) == 479001600
    assert N_of(GroupSpec.parse("A1xA1:sc")) == 24


def test_allowable_at():
    assert allowable_at(build("A2"), (0, 0), 7)
    assert not allowable_at(build("A1"), (4,), 5)
    assert not allowable_at(build("A2"), (2, 5), 3)
    assert allowable_at(build("A2"), (2, 4), 3)


def test_allowable():
    su2 = GroupSpec.parse("A1:sc")
    assert allowable(su2, (0,))
    assert not allowable(su2, (2,))
    assert allowable(su2, (3,))
    assert allowable(su2, (7,))
    assert not allowable(su2, (5,))


def test_zeta_star_powers_of_two():
    table = zeta_star_coefficients(GroupSpec.parse("A1:sc"), 64)
    assert table.counts == {1: 1, 2: 1, 4: 1, 8: 1, 16: 1, 32: 1, 64: 1}
    assert table.variant == "zeta_star"


def test_zeta_star_at_every_small_bound():
    # the strip sieve starts once a factor's gcd bound D ** (1/|Phi+|) passes
    # N; for A1 (N = 2) the first strippable gcd is 3 = N + 1
    su2 = GroupSpec.parse("A1:sc")
    for D in range(1, 70):
        counts = zeta_star_coefficients(su2, D).counts
        assert counts == {2**k: 1 for k in range(7) if 2**k <= D}, D


def test_zeta_star_so3():
    table = zeta_star_coefficients(GroupSpec.parse("A1:adjoint"), 100)
    assert table.counts == {1: 1}


@pytest.mark.parametrize(
    "text", ["A1:sc", "A1:adjoint", "A1xA1:sc", "A1xA1:cosets[0,0;1/2,1/2]"]
)
def test_euler_identity(text):
    assert euler_identity_check(GroupSpec.parse(text), 512)


def test_prime_power_scan_su2():
    got = prime_power_scan(GroupSpec.parse("A1:sc"), 10)
    assert got == [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (8, 1), (9, 1)]


def test_recover_factor_sizes():
    assert recover_factor_sizes([1, 0, 0, 1, 0, 0, 1, 0, 0, 1]) == [3]
    assert recover_factor_sizes([1, 1, 1, 2, 2, 2, 3, 3, 3, 4]) == [1, 3]
    assert recover_factor_sizes({0: 1, 49: 2, 98: 3}) == [49, 49]
    with pytest.raises(ValueError):
        recover_factor_sizes([1, 1, 0])
    with pytest.raises(ValueError):
        recover_factor_sizes([2, 0])


def test_recover_factor_sizes_from_spectrum():
    # SU(2)^2 degree counts along powers of two follow the two-factor series
    table = zeta_coefficients(GroupSpec.parse("A1xA1:sc"), 64)
    coeffs = [table.counts[2**k] for k in range(7)]
    assert coeffs == [1, 2, 3, 4, 5, 6, 7]
    assert recover_factor_sizes(coeffs) == [1, 1]


def test_degree_table_roundtrip():
    table = zeta_coefficients(GroupSpec.parse("A1:adjoint"), 9)
    text = table.to_text()
    assert text.splitlines()[0] == "# weylzeta v1 group=A1:adjoint variant=zeta maxdim=9"
    back = DegreeTable.from_text(text)
    assert back == table
    with pytest.raises(ValueError):
        DegreeTable.from_text("# wrong header\n1\t1\n")
    trunc = truncated(table, 5)
    assert trunc.counts == {1: 1, 3: 1, 5: 1} and trunc.bound == 5
    with pytest.raises(ValueError):
        truncated(table, 100)


# -- the center-graded engine against enumeration ---------------------------

ENGINE_CASES = [
    ("A1:sc", 400),
    ("A1:adjoint", 400),
    ("A2:adjoint", 3000),
    ("B3:adjoint", 20000),
    ("A1xA1:cosets[0,0;1/2,1/2]", 600),
    ("A1xA1xA1:sc", 400),
    ("A1xA1xA1:cosets[0,0,0;1/2,1/2,0;1/2,0,1/2;0,1/2,1/2]", 400),
    ("A1xA1xA1xA1:sc", 150),
    ("A1xA1xA1xA1:adjoint", 300),
    ("A1xA1xA1xA1:cosets[0,0,0,0;1/2,1/2,1/2,1/2]", 300),
    ("A2xA2:cosets[0,0,0,0;1/3,2/3,2/3,1/3;2/3,1/3,1/3,2/3]", 800),
    ("D4:cosets[0,0,0,0;0,0,1/2,1/2]", 50000),
    ("G2xA2:sc", 3000),
    ("G2xA2:adjoint", 3000),
    ("A1xA3:cosets[0,0,0,0;1/2,1/2,0,1/2]", 1500),
    ("A1xB2xA1:cosets[0,0,0,0;1/2,1/2,0,0;0,1/2,0,1/2;1/2,0,0,1/2]", 600),
]


@pytest.mark.parametrize("variant", ["zeta", "zeta_star"])
@pytest.mark.parametrize("text,bound", ENGINE_CASES)
def test_engine_matches_enumeration(text, bound, variant):
    # the slow definition: every dominant weight in the lattice, counted
    spec = GroupSpec.parse(text)
    expect: dict[int, int] = {}
    for lam, d in enumerate_dominant(spec, bound):
        if variant == "zeta" or allowable(spec, lam):
            expect[d] = expect.get(d, 0) + 1
    fn = zeta_coefficients if variant == "zeta" else zeta_star_coefficients
    assert fn(spec, bound).counts == expect


def _in_lattice_by_definition(spec, lam):
    coords = []
    for fr, (a, b) in zip(spec.factors, spec.slices()):
        coords += root_basis_coords(build(fr), lam[a:b])
    if spec.kind == "adjoint":
        return all(c.denominator == 1 for c in coords)
    return spec.kind == "sc" or tuple(c % 1 for c in coords) in spec.cosets


def _allowable_by_definition(spec, lam):
    N = N_of(spec)
    return all(
        allowable_at(build(fr), lam[a:b], p)
        for fr, (a, b) in zip(spec.factors, spec.slices())
        for p in primefactors(math.gcd(*(c + 1 for c in lam[a:b])))
        if p % N == 1
    )


@pytest.mark.parametrize("text,bound", ENGINE_CASES)
def test_lattice_and_allowability_match_definitions(text, bound):
    # the engine and the reference above share these two rules; check them
    # on the weights of the simply connected cover against their definitions
    spec = GroupSpec.parse(text)
    for lam, _ in enumerate_dominant(GroupSpec(spec.factors), bound // 3):
        assert in_lattice(spec, lam) == _in_lattice_by_definition(spec, lam), lam
        assert allowable(spec, lam) == _allowable_by_definition(spec, lam), lam


def test_engine_zeta_star_strips_products():
    # N = 4! for A1xA1, and the prime 73 = 1 mod 24 strips any factor
    # whose dimension it divides, so the star variant loses 73 and 146
    spec = GroupSpec.parse("A1xA1:sc")
    full = zeta_coefficients(spec, 400).counts
    star = zeta_star_coefficients(spec, 400).counts
    assert (full[73], full[146]) == (2, 4)
    assert 73 not in star and 146 not in star
    assert star[72] == full[72]


# -- A1 factors in closed form against the walk -------------------------------

A1 = FamilyRank("A", 1)


@pytest.mark.parametrize("N", [None, 2, 24])
@pytest.mark.parametrize("kind", ["sc", "adjoint", "cosets"])
def test_a1_series_matches_walk(kind, N):
    # the walk's counts by class, keeping the weights whose coordinate gcd
    # the sieve flags, as _zeta_series does for factors of rank >= 2
    rng = random.Random(f"{kind}{N}")
    classes = _center_steps(A1, kind)[0]
    for bound in [0, 1, 2, 3] + [rng.randint(4, 5000) for _ in range(8)]:
        keep = _sieve(bound, N) if N else None
        expect = [{} for _ in classes]
        for d, c, shifted in _factor_spectrum(A1, bound, kind):
            if keep is None or keep[math.gcd(*shifted)]:
                expect[c][d] = expect[c].get(d, 0) + 1
        assert [as_dict(s) for s in a1_series(bound, len(classes), keep)] == expect, bound


A1_ENGINE_CASES = [
    ("A1xA1:sc", 800),  # N = 24: the primes 73, 97, 193, ... strip
    ("A1xA2:sc", 3000),
    ("A1xG2:adjoint", 5000),
    ("A1xA1xA1:cosets[0,0,0;1/2,1/2,1/2]", 600),
    ("A1xA1xA1:cosets[0,0,0;1/2,1/2,0;1/2,0,1/2;0,1/2,1/2]", 600),
]


@pytest.mark.parametrize("variant", ["zeta", "zeta_star"])
@pytest.mark.parametrize("text,bound", A1_ENGINE_CASES)
def test_engine_with_a1_factors_matches_enumeration(text, bound, variant):
    spec = GroupSpec.parse(text)
    expect: dict[int, int] = {}
    for lam, d in enumerate_dominant(spec, bound):
        if variant == "zeta" or allowable(spec, lam):
            expect[d] = expect.get(d, 0) + 1
    fn = zeta_coefficients if variant == "zeta" else zeta_star_coefficients
    assert fn(spec, bound).counts == expect


def _sum_over_tuples(factors, graded, tuples, bound):
    """The definition of graded_product: every tuple multiplied out factor
    by factor, the products summed, zero counts dropped."""
    expect: dict[int, int] = {}
    for classes in tuples:
        product = {1: 1}
        for key, c in zip(factors, classes):
            product = _pair_loop(product, graded[key][c], bound)
        for d, v in product.items():
            expect[d] = expect.get(d, 0) + v
    return {d: v for d, v in expect.items() if v}


def _tuple_polynomial(factors, tuples):
    """The polynomial of class tuples as they stand, no class merged with
    its dual: each tuple's multiset of (factor, class) pairs, counted."""
    return collections.Counter(frozenset(collections.Counter(zip(factors, t)).items())
                               for t in tuples)


@pytest.mark.parametrize("bound", [1, 2, 60, 500])
def test_graded_product_matches_sum_over_tuples(bound):
    # repeated (factor, class) pairs are raised to a power and empty or
    # too-large tuples are skipped; the definition multiplies out every
    # tuple factor by factor
    rng = random.Random(bound)
    graded = {key: {c: _random_series(rng, bound, 0.3) or {1: 1} for c in range(3)}
              for key in "ab"}
    factors = ("a", "a", "b", "a")
    tuples = set(itertools.product(range(3), repeat=4))
    for _ in range(5):
        chosen = rng.sample(sorted(tuples), 12)
        chosen += [(1, 0, 2, 1), (1, 1, 2, 0), (0, 1, 2, 1)]
        expect = _sum_over_tuples(factors, graded, set(chosen), bound)
        got = graded_product(_tuple_polynomial(factors, set(chosen)), graded, bound)
        assert as_dict(got) == expect


# Tuples over the factors (a, a, b, a): the first two differ only in b's
# class, the third and fourth only in the exponents of a0 and a1, and the
# fifth has the fourth's multiset of (factor, class) pairs.
NEAR_TUPLES = [(0, 0, 1, 0), (0, 0, 2, 0), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1)]


@pytest.mark.parametrize("bound", [60, 500])
def test_graded_product_memo_matches_definition(bound):
    # equal multisets share one product within a call, and a memo carries
    # products across calls; a key that dropped the class or the exponent
    # would merge neighbours in NEAR_TUPLES and fail against the definition
    rng = random.Random(bound + 7)
    graded = {key: {c: {**_random_series(rng, bound, 0.3), 1: rng.randint(1, 3)}
                    for c in range(3)} for key in "ab"}
    factors = ("a", "a", "b", "a")
    tuples = sorted(itertools.product(range(3), repeat=4))
    memo: dict = {}
    rounds = [set(NEAR_TUPLES)] + [{t, *rng.sample(tuples, 8)} for t in NEAR_TUPLES]
    for chosen in rounds:
        expect = _sum_over_tuples(factors, graded, chosen, bound)
        poly = _tuple_polynomial(factors, chosen)
        assert as_dict(graded_product(poly, graded, bound)) == expect
        assert as_dict(graded_product(poly, graded, bound, memo)) == expect
    # one entry per multiset of ((factor, class), exponent); every tuple fits
    # the bound, since each series has a degree-1 term
    assert set(memo) == {frozenset(collections.Counter(zip(factors, t)).items())
                         for chosen in rounds for t in chosen}


# -- class polynomials: equal merged polynomials, equal tables ---------------


def _unmerged(spec):
    """The class polynomial before each class is merged with its dual."""
    return _tuple_polynomial(spec.factors, _allowed_classes(spec))


# Each A2 factor of one group is the other's conjugate: X and X' differ by
# c -> -c on the first factor, so only the dual merge makes them agree
CONJUGATE_A2 = ("A2xA2:cosets[0,0,0,0;2/3,1/3,2/3,1/3;1/3,2/3,1/3,2/3]",
                "A2xA2:cosets[0,0,0,0;1/3,2/3,2/3,1/3;2/3,1/3,1/3,2/3]")


def test_conjugate_a2_pair_shares_its_merged_polynomial():
    a, b = map(GroupSpec.parse, CONJUGATE_A2)
    assert _unmerged(a) != _unmerged(b)
    assert class_polynomial(a) == class_polynomial(b)
    assert zeta_coefficients(a, 20000).counts == zeta_coefficients(b, 20000).counts
    assert zeta_star_coefficients(a, 20000).counts == zeta_star_coefficients(b, 20000).counts


# SU(3)^7 by ternary codes of length 7, as column multisets over F_3: the
# codes of P and of Q are inequivalent with equal weight enumerators
SU3_PAIRS = {
    "P": (["001"] * 3 + ["010", "011", "100", "112"],
          ["001"] * 2 + ["010"] * 2 + ["011"] + ["100"] * 2),
    "Q": (["001"] * 2 + ["010", "011", "100", "101", "111"],
          ["001"] * 2 + ["010", "011", "100", "110", "120"]),
}


def _su3_code(columns) -> GroupSpec:
    return GroupSpec.parse(su3_code_group(su3_code_words(columns)))


@pytest.mark.parametrize("name", sorted(SU3_PAIRS))
def test_su3_code_pair_shares_its_merged_polynomial(name):
    a, b = map(_su3_code, SU3_PAIRS[name])
    assert class_polynomial(a) == class_polynomial(b)
    assert _unmerged(a) != _unmerged(b)
    assert zeta_coefficients(a, 10**4).counts == zeta_coefficients(b, 10**4).counts


def test_su3_control_pair_differs_at_nine():
    # P's first code against Q's first: the polynomials differ, and so do
    # the tables, first at degree 9
    a, b = (_su3_code(SU3_PAIRS[name][0]) for name in "PQ")
    assert class_polynomial(a) != class_polynomial(b)
    ta, tb = zeta_coefficients(a, 9).counts, zeta_coefficients(b, 9).counts
    assert [d for d in range(1, 10) if ta.get(d, 0) != tb.get(d, 0)] == [9]


def _cosets_group(factors, gens) -> GroupSpec:
    """The cosets group whose lattice holds the class tuples the generators
    span, each class c of a factor written as the coset vector c / det C."""
    frs = [FamilyRank.parse(f) for f in factors]
    dets = [build(fr).cartan_det for fr in frs]
    zero = tuple((0,) * fr.rank for fr in frs)
    span, frontier = {zero}, [zero]
    while frontier:
        t = frontier.pop()
        for g in gens:
            s = tuple(tuple((x + y) % d for x, y in zip(p, q)) for p, q, d in zip(t, g, dets))
            if s not in span:
                span.add(s)
                frontier.append(s)
    return GroupSpec(frs, "cosets", [tuple(Fraction(x, d) for c, d in zip(t, dets) for x in c)
                                     for t in span])


CENSUS_FACTORS = [("A2",) * 3, ("A1",) * 3, ("A3", "A1"), ("A3", "A3"), ("A2", "A1", "A2")]


def test_equal_merged_polynomials_give_equal_tables():
    # random lattices of each product, each beside its conjugate on the
    # first factor; every two groups with one merged polynomial share a table
    rng = random.Random(2003)
    by_poly = collections.defaultdict(set)
    for factors in CENSUS_FACTORS:
        classes = [_center_steps(FamilyRank.parse(f), "cosets")[0] for f in factors]
        dets = [build(FamilyRank.parse(f)).cartan_det for f in factors]
        for _ in range(5):
            gens = [tuple(map(rng.choice, classes)) for _ in range(rng.randint(1, 2))]
            duals = [(tuple(-x % dets[0] for x in g[0]), *g[1:]) for g in gens]
            for spec in (_cosets_group(factors, gens), _cosets_group(factors, duals)):
                by_poly[frozenset(class_polynomial(spec).items())].add(spec)
    shared = [sorted(specs) for specs in by_poly.values() if len(specs) > 1]
    merged_only = 0
    for first, *rest in shared:
        table = zeta_coefficients(first, 10**4).counts
        for spec in rest:
            assert zeta_coefficients(spec, 10**4).counts == table, (first, spec)
            merged_only += _unmerged(spec) != _unmerged(first)
    assert len(shared) >= 5 and merged_only >= 3


# -- the factor walk and the sieve against their definitions -----------------

# A5 and A7 have centers of order 6 and 8; at these bounds a chain of each
# runs past one period of classes
WALK_CASES = [(fr, 3000) for fr in all_types(4)] + [
    (FamilyRank("B", 7), 20000), (FamilyRank("E", 6), 20000),
    (FamilyRank("A", 5), 3000), (FamilyRank("A", 7), 10000)]


def _weight_box(system, bound):
    # dim grows in every coordinate, so a weight of dim <= bound has each
    # coordinate at most the largest t with dim(t * omega_i) <= bound
    n = system.rank
    sides = []
    for i in range(n):
        t = 0
        while dim_irrep(system, tuple(t + 1 if j == i else 0 for j in range(n))) <= bound:
            t += 1
        sides.append(range(t + 1))
    return itertools.product(*sides)


@pytest.mark.parametrize("fr,bound", WALK_CASES, ids=lambda x: str(x))
def test_walk_matches_brute_force(fr, bound):
    system = build(fr)
    expect = sorted((d, lam) for lam in _weight_box(system, bound)
                    if (d := dim_irrep(system, lam)) <= bound)
    classes = _center_steps(fr, "adjoint")[0]
    got = []
    for d, c, shifted in _factor_spectrum(fr, bound, "adjoint"):
        lam = tuple(x - 1 for x in shifted)
        assert classes[c] == system.center_class(lam), lam
        got.append((d, lam))
    assert sorted(got) == expect
    sc = [(d, c, tuple(s)) for d, c, s in _factor_spectrum(fr, bound, "sc")]
    assert [(d, tuple(x - 1 for x in s)) for d, _, s in sc] == got
    assert {c for _, c, _ in sc} == {0} and _center_steps(fr, "sc")[0] == ((),)


def test_walk_respects_tiny_bounds():
    for fr in (FamilyRank("A", 1), FamilyRank("E", 8)):
        assert list(_factor_spectrum(fr, 0, "sc")) == []
        assert [(d, list(s)) for d, _, s in _factor_spectrum(fr, 1, "sc")] == [
            (1, [1] * fr.rank)]


def _check_chains(fr, bound):
    # for each kind and each class set (all classes, then each alone), the
    # chains expanded to weights are the brute-force weights of those classes
    system = build(fr)
    box = [(lam, d) for lam in _weight_box(system, bound)
           if (d := dim_irrep(system, lam)) <= bound]
    simple = [system.coroots.index(tuple(int(i == j) for j in range(fr.rank)))
              for i in range(fr.rank - 1)]
    for kind in ("sc", "adjoint", "cosets"):
        classes = _center_steps(fr, kind)[0]
        index = {lam: classes.index(() if kind == "sc" else system.center_class(lam))
                 for lam, _ in box}
        for wanted in [range(len(classes))] + [{c} for c in range(len(classes))]:
            got = []
            for v, c, t, per, dims in _chains(fr, bound, kind, wanted):
                stem = tuple(v[j] - 1 for j in simple)
                got += [((*stem, t + k * per), d, c) for k, d in enumerate(dims)]
            expect = [(lam, d, index[lam]) for lam, d in box if index[lam] in wanted]
            assert sorted(got) == sorted(expect), (kind, wanted)


@pytest.mark.parametrize("fr,bound", WALK_CASES, ids=lambda x: str(x))
def test_chains_match_brute_force(fr, bound):
    _check_chains(fr, bound)


def test_chain_tails_meet_the_head(monkeypatch):
    # a chain is a product of counts in C, cut where it passes the bound;
    # on A3 to 3000 those cuts keep 0, 1, 2 and 3 weights, among others, and
    # every chain still matches the brute force
    lengths = collections.Counter()
    takewhile = repdegrees.takewhile

    def counted(pred, it):
        n = 0
        for x in takewhile(pred, it):
            n += 1
            yield x
        lengths[n] += 1

    monkeypatch.setattr(repdegrees, "takewhile", counted)
    _check_chains(FamilyRank("A", 3), 3000)
    assert {0, 1, 2, 3} <= set(lengths)


@pytest.mark.parametrize("N", [2, 6])
@pytest.mark.parametrize("text", ["A2:sc", "A2:adjoint", "B2:sc", "A1xA2:sc"])
def test_strip_filter_on_walked_factors(monkeypatch, text, N):
    # with the true N no prime = 1 mod N is small enough to strip a walked
    # factor at these bounds; a patched N, which allowable reads too, makes
    # the walk drop stripped weights of its chains, heads and tails alike
    monkeypatch.setattr(repdegrees, "N_of", lambda spec: N)
    spec = GroupSpec.parse(text)
    expect = collections.Counter(d for lam, d in enumerate_dominant(spec, 5000)
                                 if allowable(spec, lam))
    assert expect != collections.Counter(d for _, d in enumerate_dominant(spec, 5000))
    assert zeta_star_coefficients(spec, 5000).counts == expect


def _prime_factors(n):
    # trial division
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


@pytest.mark.parametrize("N", [2, 24, 720])
def test_sieve_matches_definitions(N):
    limit = 5000
    keep = _sieve(limit, N)
    assert len(keep) == limit + 1
    for g in [N, N + 1, *range(1, limit + 1)]:
        assert (not keep[g]) == _stripped((g - 1,), N), g
        primes = _prime_factors(g)
        assert (not keep[g]) == any(p % N == 1 for p in primes), g


def test_sieve_small_limits():
    for limit in range(4):
        keep = _sieve(limit, 2)
        assert len(keep) == limit + 1
        assert list(keep[1:]) == [1, 1, 0][:limit]


@pytest.mark.parametrize("N,k", [(2, 3), (6, 7), (24, 73), (720, 2161)])
def test_sieve_around_the_first_square(N, k):
    # k is the least prime = 1 mod N: it is past isqrt(limit) at k^2 - 1 and
    # no longer at k^2; the sieve clears exactly the multiples of such primes
    assert isprime(k) and k % N == 1
    assert not any(isprime(q) for q in range(N + 1, k, N))
    for limit in (k * k - 1, k * k, k * k + 1):
        expect = bytearray([1]) * (limit + 1)
        expect[0] = 0
        for p in range(N + 1, limit + 1, N):
            if isprime(p):
                expect[p::p] = bytes(limit // p)
        assert _sieve(limit, N) == expect, limit


def test_sieve_holds_no_copy_of_big():
    # keep (limit + 1 bytes) and big (limit / N bytes) are all the sieve needs;
    # a copy of big's slice for the first m would add another limit / N
    limit, N = 2 * 10**6, 2
    tracemalloc.start()
    try:
        keep = _sieve(limit, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    big = (limit - 1) // N + 1
    assert peak < len(keep) + 1.6 * big, peak


def test_a1_series_holds_one_class_slice():
    # each class's slice of keep (limit / m bytes) is dropped before the next
    # one is taken; holding two at once would need about len(keep)
    limit = 5 * 10**5
    keep = _sieve(limit, 2)
    tracemalloc.start()
    try:
        series = a1_series(limit, 2, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [as_dict(s) for s in series] == [{1: 1}, {2**k: 1 for k in range(1, 19)}]
    assert peak < 0.6 * len(keep), peak


def test_a1_series_reads_one_class_from_keep_itself():
    # with one class keep flags every t itself (keep[0] is 0); the slice
    # keep[1:] would add a copy of len(keep) bytes
    limit = 10**7
    keep = _sieve(limit, 2)
    tracemalloc.start()
    try:
        (series,) = a1_series(limit, 1, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert as_dict(series) == {2**k: 1 for k in range(24)}
    assert peak < 0.01 * len(keep), peak


@pytest.mark.parametrize("N", [2, 4, 24, 720])
def test_a1_series_one_class_matches_the_slice(N):
    # the series built from keep[1:] over t = 1..bound, as a list when
    # dense and a dict otherwise, is what reading keep itself gives
    for bound in (0, 1, 2, 3, 64, 65, 1000, 5000, 20000):
        keep = _sieve(bound, N)
        flags = keep[1:]
        if flags.count(1) * 64 >= bound:
            expect = [0] * (bound + 1)
            expect[1:] = flags
        else:
            expect = dict.fromkeys(itertools.compress(range(1, bound + 1), flags), 1)
        assert a1_series(bound, 1, keep) == [expect], bound


@pytest.mark.parametrize("N", [2, 6, 24, 720])
def test_smooth_numbers(N):
    # the Euler check's n all of whose primes are = 1 mod N, by trial division
    for top in (0, 1, 2, 3, 100, 3000):
        expect = [n for n in range(1, top + 1) if all(p % N == 1 for p in _prime_factors(n))]
        assert sorted(_smooth(top, N)) == expect, top


def test_iroot():
    for k in range(1, 6):
        for x in range(0, 3000):
            r = _iroot(x, k)
            assert r**k <= x < (r + 1) ** k
    assert _iroot(10**400 - 1, 4) == 10**100 - 1
    assert _iroot(-5, 2) == 0


# -- Dirichlet squaring ------------------------------------------------------


def _random_series(rng, top, density):
    return {d: rng.randint(-3, 5) or 1 for d in range(1, top + 1) if rng.random() < density}


@pytest.mark.parametrize("bound", [1, 2, 3, 10, 97, 400])
@pytest.mark.parametrize("density", [0.02, 0.3, 1.0])
def test_dirichlet_square_matches_pair_loop(bound, density):
    rng = random.Random(bound * 1000 + int(density * 100))
    for _ in range(5):
        a = _random_series(rng, max(1, bound + rng.randint(-1, 3)), density)
        if not a:
            continue
        square = _dirichlet_mul(a, a, bound)
        assert as_dict(square) == as_dict(_dirichlet_mul(a, dict(a), bound)) == _pair_loop(a, a, bound)
        assert list(as_dict(square)) == sorted(as_dict(square))
        assert as_dict(_dirichlet_pow(a, 3, bound)) == _pair_loop(_pair_loop(a, a, bound), a, bound)


# -- series by density: both forms, both product paths -------------------------

FORMS = {"dict": lambda s, bound: dict(s), "list": repdegrees.as_list}

# each product path with the operand forms it takes: the pair loop two dicts,
# the sliced product a list as b; the rule (_dirichlet_mul) every pair of forms
PATHS = {
    "dict": (lambda x, y, bound: repdegrees._pair_loop(x, y, bound, x is y),
             [("dict", "dict")]),
    "list": (lambda x, y, bound: repdegrees._sliced_mul([0] * (bound + 1), x, y, bound, x is y),
             [("dict", "list"), ("list", "list")]),
    "rule": (_dirichlet_mul, list(itertools.product(FORMS, repeat=2))),
}


@pytest.mark.parametrize("path", ["dict", "list", "rule"])
@pytest.mark.parametrize("bound", [1, 2, 3, 30, 400])
def test_dirichlet_mul_forms_and_paths_match_pair_loop(path, bound):
    # sparse and dense, signed counts, dict keys past the bound, each pair of
    # forms the path takes and the square of each form; a product is a list
    # iff an operand is one
    mul, form_pairs = PATHS[path]
    rng = random.Random(f"{path}{bound}")
    for density in (0.02, 0.3, 1.0):
        for _ in range(3):
            a, b = (_random_series(rng, bound + 3, density) for _ in range(2))
            for fa, fb in form_pairs:
                x, y = FORMS[fa](a, bound), FORMS[fb](b, bound)
                product = mul(x, y, bound)
                assert as_dict(product) == _pair_loop(a, b, bound), (fa, fb)
                assert isinstance(product, list) == ("list" in (fa, fb))
            for form in {fb for _, fb in form_pairs}:
                x = FORMS[form](a, bound)
                assert as_dict(mul(x, x, bound)) == _pair_loop(a, a, bound)
                if path == "rule":
                    assert as_dict(_dirichlet_pow(x, 3, bound)) == oracles.dirichlet_pow(a, 3, bound)


def test_pair_count_stops_past_the_cap(monkeypatch):
    # the pairs i * j <= bound of two dicts, exact up to MAX_ENTRIES; past it
    # the count stops within one row of b's degrees
    rng = random.Random(64)
    for bound in (1, 2, 50, 600):
        for density in (0.02, 0.3, 1.0):
            a, b = (_random_series(rng, bound + 3, density) for _ in range(2))
            pairs = sum(i * j <= bound for i in a for j in b)
            for cap in (0, 1, 5, max(pairs - 1, 0), pairs, 10**9):
                monkeypatch.setattr(repdegrees, "MAX_ENTRIES", cap)
                count = repdegrees._pairs(a, b, bound)
                if pairs <= cap:
                    assert count == pairs
                else:
                    assert cap < count <= min(pairs, cap + len(b))


def test_product_form_rule(monkeypatch):
    # a product is a list when either operand is one, a dict when both are
    seen = []
    real = repdegrees._dirichlet_mul

    def spy(a, b, bound):
        out = real(a, b, bound)
        seen.append((a is b, type(out).__name__))
        return out

    monkeypatch.setattr(repdegrees, "_dirichlet_mul", spy)
    diagonal = "A1xE7:cosets[0,0,0,0,0,0,0,0;1/2,0,1/2,0,0,1/2,0,1/2]"
    for text, bound, want in [("G2xA2:sc", 10**5, [(False, "dict")]),
                              ("E8xE8:sc", 10**7, [(True, "dict")]),
                              ("G2xG2xG2:sc", 10**7, [(True, "dict"), (False, "dict")]),
                              ("A2xA2:sc", 10**5, [(True, "dict")]),
                              ("A1xA1:sc", 7000, [(True, "list")]),
                              (diagonal, 10**4, [(False, "list"), (False, "list")])]:
        seen.clear()
        zeta_coefficients(GroupSpec.parse(text), bound)
        assert seen == want, text


def test_counts_read_like_a_dict():
    # a list-backed and a dict-backed table read alike, and equal each other
    dense = zeta_coefficients(GroupSpec.parse("A1:adjoint"), 9).counts
    sparse = zeta_coefficients(GroupSpec.parse("E8xE8:sc"), 10**4).counts
    assert isinstance(dense.series, list) and isinstance(sparse.series, dict)
    assert dense == {1: 1, 3: 1, 5: 1, 7: 1, 9: 1} == repdegrees.Counts(dict(dense))
    assert list(dense) == [1, 3, 5, 7, 9] and len(dense) == 5
    assert (3 in dense, 4 in dense, 10 in dense, 0 in dense) == (True, False, False, False)
    assert dense[9] == 1 and dense.get(4, 0) == 0 and dense != {1: 1}
    assert list(sparse) == sorted(sparse) and sparse[1] == 1 and 248 in sparse


# -- rendering and comparing tables ----------------------------------------

ROWS = [0, 1, 4095, 4096, 4097, 8193]  # either side of to_text's 4096-row blocks


def _same_text(got, want):
    """got == want, failing on the first line that differs: pytest's own
    diff of two long strings would take minutes."""
    a, b = got.splitlines(True), want.splitlines(True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    assert (i, len(a), a[i:i + 1]) == (i, len(b), b[i:i + 1])


def _rendered_alike(series, bound=None):
    table = DegreeTable("A1:sc", "zeta", bound or 1, series)
    text = table.to_text()
    _same_text(text, oracles.to_text(table))
    return text


@pytest.mark.parametrize("rows", ROWS)
def test_to_text_matches_row_by_row(rows):
    # a list with zeros between its counts, and a dict of the same terms
    rng = random.Random(rows)
    dims = sorted(rng.sample(range(1, 3 * rows + 2), rows))
    counts = [rng.choice([1, 2, 7, 10**6, 2**63, 3**90]) for _ in dims]
    dense = [0] * (dims[-1] + 1 if dims else 5)
    for d, c in zip(dims, counts):
        dense[d] = c
    text = _rendered_alike(dense, len(dense) - 1)
    assert text.count("\n") == rows + 1
    _same_text(_rendered_alike(dict(zip(dims, counts)), len(dense) - 1), text)


def test_to_text_of_dicts_drops_zeros_and_sorts():
    rng = random.Random(5)
    for rows in ROWS:
        dims = rng.sample(range(1, 10 * rows + 2), rows)  # unsorted
        raw = {d: rng.choice([0, 0, 1, 3, 2**64 + 1]) for d in dims}
        text = _rendered_alike(raw)
        rows_of = "".join(f"{d}\t{c}\n" for d, c in sorted(raw.items()) if c)
        _same_text(text.split("\n", 1)[1], rows_of)


def test_to_text_of_counts_past_2_63():
    # tau_128 (the default quotient, a list) and tau_1024 (an odd A1 power)
    table = quotient_zeta(build_sign_hom(build_trace(DEFAULT_TRACE)), 3 * 10**5)
    assert isinstance(table.counts.series, list) and len(table.counts) > 8193
    assert max(table.counts.values()) >= 2**55
    _same_text(table.to_text(), oracles.to_text(table))
    power = _dirichlet_pow(a1_series(20000, 2)[0], 1024, 20000)
    assert sum(c >= 2**63 for c in power) > 5
    _rendered_alike(power, 20000)
    _rendered_alike(as_dict(power), 20000)


def test_to_text_refuses_a_misaligned_series():
    # one dimension more than counts: an error, not shifted rows

    class OneMore(repdegrees.Counts):
        __slots__ = ()

        def __iter__(self):
            return itertools.chain(super().__iter__(), [10**9])

    for n in (1, 4095, 4096, 4097):
        with pytest.raises(ValueError):
            DegreeTable("A1:sc", "zeta", 1, OneMore(dict.fromkeys(range(1, n + 1), 1))).to_text()


@given(st.one_of(
    st.lists(st.integers(0, 2**70), max_size=300),
    st.dictionaries(st.integers(1, 10**12), st.integers(0, 2**70), max_size=300)))
def test_to_text_matches_row_by_row_random(series):
    _rendered_alike(series)


def _equal_by_terms(a, b):
    """Counts.__eq__ by its definition: equal nonzero terms in order."""
    theirs = (repdegrees._terms(b.series) if isinstance(b, repdegrees.Counts)
              else sorted(b.items()))
    return list(repdegrees._terms(a.series)) == list(theirs)


def test_counts_equality_matches_terms():
    Counts = repdegrees.Counts
    short = [0, 1, 0, 2]
    cases = [
        (short, short + [0, 0]),           # unequal lengths, zero tail
        (short + [0, 0], short),
        (short, short + [0, 3]),           # a nonzero slot past the shorter end
        (short + [0, 3], short),
        (short, [0, 1, 0, 5]),
        ([4] + short[1:], short),          # slot 0 counts too
        ([], [0, 0]),
        ([], [0, 1]),
        (short, {3: 2, 1: 1}),             # a list against a dict
        (short, {3: 2, 1: 1, 7: 0}),
        (short, {3: 2}),
        ({1: 1, 3: 2}, short + [0]),
    ]
    for a, b in cases:
        got = Counts(a) == Counts(b)
        assert got == _equal_by_terms(Counts(a), Counts(b)) == (as_dict(a) == as_dict(b)), (a, b)
        assert (Counts(a) != Counts(b)) is not got
    same = Counts(short * 5000)
    assert same == same and same == Counts(same.series)
    # a plain Mapping: its items as given, zeros included
    for other in ({1: 1, 3: 2}, {3: 2, 1: 1}, {1: 1, 3: 2, 4: 0}, {1: 1}, {}):
        assert (Counts(short) == other) == _equal_by_terms(Counts(short), other), other
    assert Counts(short) == collections.OrderedDict([(3, 2), (1, 1)])
    assert Counts(short) != [0, 1, 0, 2] and Counts(short).__eq__(5) is NotImplemented


@given(st.lists(st.integers(0, 3), max_size=40), st.lists(st.integers(0, 3), max_size=40),
       st.booleans())
def test_counts_equality_matches_terms_random(a, b, as_mapping):
    Counts = repdegrees.Counts
    for x, y in ((a, b), (a, a + [0] * len(b)), (a + b, a)):
        other = Counts(as_dict(y) if as_mapping else y)
        assert (Counts(x) == other) == _equal_by_terms(Counts(x), other)


def test_counts_of_a_dict_is_sorted_without_zeros():
    rng = random.Random(3)
    for size in (0, 1, 10, 5000):
        raw = {rng.randrange(1, 10**6): rng.choice([0, 1, 2, 2**70]) for _ in range(size)}
        s = repdegrees.Counts(raw).series
        assert list(s.items()) == sorted((d, c) for d, c in raw.items() if c)
    inner = repdegrees.Counts({5: 1, 2: 0, 1: 3})
    assert repdegrees.Counts(inner).series == {1: 3, 5: 1}


# -- Dirichlet powers: prime by prime and square-and-multiply ---------------

POWERS = [1, 2, 3, 4, 7, 8, 9, 16, 31, 128]


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("one", [1, 2, -3, None])
def test_dirichlet_pow_matches_definition(k, one):
    # random bases are rarely multiplicative, so a dense one with f(1) = 1
    # at k >= 3 tries the prime-by-prime path and mostly falls back; the
    # rest square and multiply; a base may hold keys just past the bound
    rng = random.Random(k * 10 + (one or 0))
    for bound, density in ((1, 1.0), (2, 1.0), (150, 1.0), (150, 0.4), (2000, 0.005)):
        for signed in (False, True):
            base = {d: (rng.randint(-3, 5) or 1) if signed else rng.randint(1, 3)
                    for d in range(2, bound + 4) if rng.random() < density}
            if one is not None:
                base = {1: one, **base}
            if not base:
                continue
            got = _dirichlet_pow(base, k, bound)
            assert as_dict(got) == oracles.dirichlet_pow(base, k, bound), (bound, density, signed)
            assert list(as_dict(got)) == sorted(as_dict(got))


def _multiplicative_base(rng, bound, values):
    """A multiplicative series up to bound + 3 from random values at the powers
    of 2, 3 and one more random prime, and 0 at every other prime."""
    primes = {2, 3, rng.choice(list(primerange(2, bound + 4)))}
    local = {p**e: rng.choice(values) for p in primes
             for e in range(1, (bound + 3).bit_length()) if p**e <= bound + 3}
    base = {n: math.prod(local.get(p**e, 0) for p, e in factorint(n).items())
            for n in range(1, bound + 4)}
    return {n: c for n, c in base.items() if c}


def _spy_multiplicative(monkeypatch):
    """Record (k, bound, whether the prime-by-prime path returned a power) per call."""
    calls = []
    real = repdegrees._multiplicative_pow

    def spy(base, k, bound):
        power = real(base, k, bound)
        calls.append((k, bound, power is not None))
        return power

    monkeypatch.setattr(repdegrees, "_multiplicative_pow", spy)
    return calls


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("bound", [1, 2, 150, 2000])
def test_multiplicative_pow_matches_definition(k, bound):
    # values 0 and negative included; the key past the bound breaks
    # multiplicativity there, which the prime-by-prime path must not read
    rng = random.Random(k * 10007 + bound)
    for _ in range(3):
        base = _multiplicative_base(rng, bound, (-3, -1, 0, 1, 2, 5))
        base[bound + 1] = base.get(bound + 1, 0) + 1
        want = oracles.dirichlet_pow(base, k, bound)
        assert as_dict(_dirichlet_pow(base, k, bound)) == want
        # at k = 1 the definition returns the base itself, keys past the bound too
        assert as_dict(repdegrees._multiplicative_pow(base, k, bound)) == {
            d: c for d, c in want.items() if d <= bound}


def _largest_with_two_primes(bound):
    return next(n for n in range(bound, 5, -1) if len(factorint(n)) >= 2)


@pytest.mark.parametrize("bound", [150, 2000])
@pytest.mark.parametrize("where", ["two primes", "prime power"])
def test_dirichlet_pow_falls_back_off_multiplicative(monkeypatch, bound, where):
    # multiplicative except at one n: the largest n <= bound with two
    # distinct primes, or 4, whose multiple 12 then breaks the rule
    calls = _spy_multiplicative(monkeypatch)
    rng = random.Random(bound)
    base = _multiplicative_base(rng, bound, (-2, 1, 3))
    n = _largest_with_two_primes(bound) if where == "two primes" else 4
    base[n] = base.get(n, 0) + 1
    got = _dirichlet_pow(base, 7, bound)
    assert as_dict(got) == oracles.dirichlet_pow(base, 7, bound)
    assert calls == [(7, bound, False)]


def test_dirichlet_pow_path_rule(monkeypatch):
    # only dense bases with f(1) = 1, raised to a power k >= 3, try the
    # prime-by-prime path; multiplicative ones take it, others fall back
    calls = _spy_multiplicative(monkeypatch)
    odd, even = a1_series(2000, 2)
    for k in (1, 2):
        _dirichlet_pow(odd, k, 2000)
    assert calls == []
    for k in (3, 4, 5, 6, 7, 8, 9, 16, 128):
        _dirichlet_pow(odd, k, 2000)
    assert calls == [(k, 2000, True) for k in (3, 4, 5, 6, 7, 8, 9, 16, 128)]
    calls.clear()
    _dirichlet_pow(even, 128, 2000)
    _dirichlet_pow({1: 1, 7: 1, 14: 1, 27: 1, 64: 2, 77: 1}, 128, 10**5)
    zeta_coefficients(GroupSpec.parse("x".join(["G2"] * 8) + ":sc"), 10**5)
    assert calls == []
    # the A1 series of the values a strip sieve flags stays multiplicative
    (kept,) = a1_series(2000, 1, _sieve(2000, 4))
    assert 2000 > len(as_dict(kept)) >= 2000 / 64
    _dirichlet_pow(kept, 5, 2000)
    # A2's class-0 series is dense at 2000 but 10 = 2 * 5 has two weights
    dense = as_dict(zeta_coefficients(GroupSpec.parse("A2:adjoint"), 2000).counts)
    assert len(dense) * 64 >= 2000 and dense[10] == 2
    _dirichlet_pow(dense, 7, 2000)
    assert calls == [(5, 2000, True), (7, 2000, False)]
