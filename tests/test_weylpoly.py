import math
from fractions import Fraction

import pytest

from weylzeta.repdegrees import dim_irrep
from weylzeta.rootsys import (
    all_types,
    build,
    classify_subsystem,
    orthogonal_subsystem,
    weyl_orbit_equal,
)
from weylzeta.weylpoly import (
    degree,
    evaluate,
    explicit_pair,
    explicit_polynomial,
    ord_at_zero,
    pair_complement_claim,
    weyl_polynomial,
)

import oracles
from oracles import in_root_lattice

F = Fraction


def test_trivial_polynomials():
    one = weyl_polynomial(build("A2"), (0, 0), (0, 0))
    assert one.coefficients == (F(1),)
    assert degree(one) == 0 and ord_at_zero(one) == 0
    x = weyl_polynomial(build("A1"), (1,), (-1,))
    assert x.coefficients == (F(0), F(1))
    assert evaluate(x, 7) == 7


def test_zero_polynomial_errors():
    zero = weyl_polynomial(build("A1"), (0,), (-1,))
    assert zero.coefficients == (F(0),)
    with pytest.raises(ValueError):
        degree(zero)
    with pytest.raises(ValueError):
        ord_at_zero(zero)


@pytest.mark.parametrize("call", [
    lambda: weyl_polynomial(build("A2"), (1, 0, 5), (0, 0, 7)),
    lambda: weyl_polynomial(build("A2"), (1, 0), (0,)),
    lambda: orthogonal_subsystem(build("B2"), (0,)),
    lambda: weyl_orbit_equal(build("A2"), (1, 0), (1, 0, 0)),
], ids=["polynomial_long", "polynomial_short", "orthogonal", "orbit"])
def test_weight_of_the_wrong_length_is_refused(call):
    # a weight whose length is not the rank is an error, never a wrong answer
    with pytest.raises(ValueError, match="coordinates"):
        call()


def test_frozen_coefficients():
    assert explicit_polynomial(build("A2").id).coefficients == (0, F(1, 2), F(1, 2))
    assert explicit_polynomial(build("A3").id).coefficients == (
        0, 0, 0, F(1, 6), F(1, 2), F(1, 3),
    )
    assert explicit_polynomial(build("G2").id).coefficients == (
        0, F(-1, 60), F(-1, 24), 0, F(1, 24), F(1, 60),
    )


@pytest.mark.parametrize("fr", all_types(16), ids=str)
def test_evaluate_matches_fraction_horner(fr):
    P = explicit_polynomial(fr)
    for x in (-3, 0, 1, 2, 5, F(-7, 3)):
        got = evaluate(P, x)
        assert type(got) is Fraction and got == oracles.evaluate(P, x)


def test_b3_closed_form():
    P = explicit_polynomial(build("B3").id)
    for x in range(1, 6):
        expect = F(x**4 * (x + 1) * (3 * x + 2) * (2 * x + 1) * (3 * x + 1), 120)
        assert evaluate(P, x) == expect


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_explicit_pair_conditions(fr):
    p = explicit_pair(fr)
    system = build(fr)
    for i in range(system.num_positive):  # mu >= 0, and nu >= 0 wherever mu vanishes
        a = system.pair(i, p.mu)
        assert a > 0 or a == 0 and system.pair(i, p.nu) >= 0
    assert in_root_lattice(system, tuple(m + v for m, v in zip(p.mu, p.nu)))
    assert any(v + 1 for v in p.nu)  # nu + rho nonzero


UNIT_VALUES = [
    ("A1", 1, 1), ("A4", 1, 1), ("B2", 1, 1), ("B4", 1, 1),
    ("C3", 1, 1), ("C5", 1, 1), ("D4", 1, 1), ("D6", 1, 1), ("G2", 2, 1),
]


@pytest.mark.parametrize("name,x,expect", UNIT_VALUES)
def test_unit_values(name, x, expect):
    P = explicit_polynomial(build(name).id)
    assert evaluate(P, x) == expect


FROZEN_VALUES = [
    ("F4", {2: 52, 3: 340119}),
    ("E6", {2: 1728, 3: 3171108447, 4: 71292900343808}),
    ("E7", {2: 573440, 3: 33940969546604175}),
    ("E8", {2: 4096000, 3: 2665014302693985712862760000}),
]


@pytest.mark.parametrize("name,values", FROZEN_VALUES)
def test_exceptional_values(name, values):
    P = explicit_polynomial(build(name).id)
    for x, expect in values.items():
        assert evaluate(P, x) == expect


def test_exceptional_gcds():
    vals = {name: [int(evaluate(explicit_polynomial(build(name).id), x)) for x in xs]
            for name, xs in [("F4", (2, 3)), ("E6", (2, 3, 4)),
                             ("E7", (2, 3)), ("E8", (2, 3))]}
    assert math.gcd(*vals["F4"]) == 13  # the often-quoted 1 is an arithmetic slip
    assert math.gcd(*vals["E6"]) == 1
    assert math.gcd(*vals["E7"]) == 5
    assert math.gcd(*vals["E8"]) == 8000


CONSISTENCY_TYPES = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
    "D4", "D5", "E6", "E7", "E8", "F4", "G2",
]


@pytest.mark.parametrize("name", CONSISTENCY_TYPES)
def test_matches_dimension_formula(name):
    system = build(name)
    p = explicit_pair(system.id)
    P = weyl_polynomial(system, p.mu, p.nu)
    for n in (2, 3, 4, 5):
        lam = tuple(n * m + v for m, v in zip(p.mu, p.nu))
        if any(c < 0 for c in lam):
            continue
        assert evaluate(P, n) == dim_irrep(system, lam)


ORD_DEG = {
    "A1": (0, 0), "A2": (1, 2), "A3": (3, 5), "A5": (10, 14),
    "B2": (1, 3), "B3": (4, 8), "B4": (9, 15),
    "C3": (4, 8), "C4": (9, 15),
    "D4": (6, 10), "D5": (12, 18),
    "E6": (20, 34), "E7": (36, 60), "E8": (63, 117),
    "F4": (9, 21), "G2": (1, 5),
}


@pytest.mark.parametrize("name", sorted(ORD_DEG))
def test_order_and_degree(name):
    P = explicit_polynomial(build(name).id)
    o, d = ORD_DEG[name]
    assert ord_at_zero(P) == o
    assert degree(P) == d


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_complement_claims(fr):
    system = build(fr)
    p = explicit_pair(fr)
    shifted = tuple(v + 1 for v in p.nu)
    k, types = pair_complement_claim(fr)
    target = tuple(1 if i == k - 1 else 0 for i in range(system.rank))
    assert weyl_orbit_equal(system, shifted, target)
    assert classify_subsystem(orthogonal_subsystem(system, shifted)) == types


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4", "E6"])
def test_padic_order(name):
    system = build(name)
    p_pair = explicit_pair(system.id)
    P = weyl_polynomial(system, p_pair.mu, p_pair.nu)
    for prime in (101, 103):
        lam = tuple(prime * m + v for m, v in zip(p_pair.mu, p_pair.nu))
        val = dim_irrep(system, lam)
        assert val == evaluate(P, prime)
        order = 0
        while val % prime == 0:
            val //= prime
            order += 1
        assert order == ord_at_zero(P)
