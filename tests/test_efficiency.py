"""Tests for efficiency and level computations."""

from fractions import Fraction as F

import pytest

from weylzeta.efficiency import (
    _bits,
    _full_subsystem_masks,
    compare,
    coxeter_bound,
    eff_bruteforce,
    eff_formula,
    enumerate_closed_subsystems,
)
from weylzeta.rootsys import (
    Subsystem,
    all_types,
    build,
    classify_subsystem,
    orthogonal_subsystem,
)

import oracles


FORMULA_TABLE = [
    ("A1", F(1, 3), 0),
    ("A2", F(1, 2), 1),
    ("A3", F(3, 5), 3),
    ("A8", F(4, 5), 28),
    ("B2", F(1, 3), 1),
    ("B5", F(2, 3), 16),
    ("C3", F(1, 2), 4),
    ("D4", F(3, 5), 6),
    ("D7", F(3, 4), 30),
    ("E6", F(10, 17), 20),
    ("E7", F(3, 5), 36),
    ("E8", F(7, 13), 63),
    ("F4", F(3, 7), 9),
    ("G2", F(1, 5), 1),
]


@pytest.mark.parametrize("name,eff,lev", FORMULA_TABLE)
def test_formula_table(name, eff, lev):
    res = eff_formula(name)
    assert res.eff == eff
    assert res.lev == lev
    assert res.witness is None


def test_formula_e8_unreduced_form():
    assert eff_formula("E8").eff == F(63, 117)


def test_formula_range():
    for fr in all_types(8):
        res = eff_formula(fr)
        assert 0 < res.eff < 1


def test_formula_bc_duality():
    for n in range(3, 9):
        assert eff_formula(f"B{n}") == eff_formula(f"C{n}")


def test_formula_rejects_garbage():
    with pytest.raises(ValueError):
        eff_formula("H3")


# -- closed subsystem enumeration ------------------------------------------


def test_enumerate_a1():
    subs = enumerate_closed_subsystems("A1")
    assert [s.num_positive for s in subs] == [0, 1]


def test_enumerate_a2():
    subs = enumerate_closed_subsystems("A2")
    assert [s.num_positive for s in subs] == [0, 1, 1, 1, 3]


def test_enumerate_g2():
    subs = enumerate_closed_subsystems("G2")
    assert len(subs) == 12
    sizes = sorted(s.num_positive for s in subs)
    assert sizes == [0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 6]


def _naive_closed_count(system) -> int:
    count = 0
    for mask in range(1 << system.num_positive):
        idx = frozenset(
            i for i in range(system.num_positive) if mask >> i & 1
        )
        if oracles.is_closed(Subsystem(system, idx)):
            count += 1
    return count


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4"])
def test_enumerate_matches_naive_scan(name):
    system = build(name)
    assert len(enumerate_closed_subsystems(system)) == _naive_closed_count(system)


def test_enumerate_results_are_closed():
    for name in ("B2", "A3", "G2"):
        for sub in enumerate_closed_subsystems(name):
            assert oracles.is_closed(sub)


def test_enumerate_size_guard():
    with pytest.raises(ValueError):
        enumerate_closed_subsystems("B5")


# -- brute force vs the formula table --------------------------------------

# expected type of R' in the minimal witness; F4 admits both middle types
BRUTE_WITNESS = {
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

# past F4 the search admits systems up to E7; each runs once
WIDE_WITNESS = {
    "A7": [["A6"]],
    "B5": [["B4"]],
    "D5": [["D4"]],
    "E6": [["D5"]],
    "E7": [["E6"]],
}


@pytest.mark.parametrize("name,count", [
    ("G2", 8), ("B3", 24), ("A4", 52), ("D4", 72), ("C4", 116), ("B4", 116), ("F4", 268),
    ("A5", 203), ("D5", 403), ("B5", 648), ("A6", 877), ("E6", 4598), ("E7", 90408),
])
def test_full_subsystem_counts(name, count):
    assert len(_full_subsystem_masks(build(name))) == count


@pytest.mark.parametrize("name", sorted(BRUTE_WITNESS) + ["A5", "D5"])
def test_full_subsystem_masks_match_subspace_search(name):
    system = build(name)
    assert _full_subsystem_masks(system) == oracles._full_subsystem_masks(system)


@pytest.mark.parametrize("name", sorted(BRUTE_WITNESS | WIDE_WITNESS))
def test_bruteforce_matches_formula(name):
    res = eff_bruteforce(name)
    expected = eff_formula(name)
    assert res.eff == expected.eff
    assert res.lev == expected.lev
    prime, second = res.witness
    assert not prime.pos_indices & second.pos_indices
    assert prime.is_closed() and second.is_closed()
    assert prime.num_positive == res.lev
    total = build(name).num_roots
    assert F(2 * prime.num_positive, total - 2 * second.num_positive) == res.eff
    types = [str(t) for t in classify_subsystem(prime)]
    assert types in (BRUTE_WITNESS | WIDE_WITNESS)[name]


def _oracle_pair_search(system):
    """The pair search with one Fraction key per disjoint pair.

    R' ranges over every nonempty proper full subsystem, not only the
    standard parabolic ones the package searches.
    """
    masks = _full_subsystem_masks(system)
    full = (1 << system.num_positive) - 1
    best_key = None
    for m1 in masks:
        if not m1 or m1 == full:
            continue
        for m2 in masks:
            if m1 & m2:
                continue
            eff = F(2 * m1.bit_count(), system.num_roots - 2 * m2.bit_count())
            key = (-eff, m1.bit_count(), _bits(m1), _bits(m2))
            if best_key is None or key < best_key:
                best_key = key
    neg_eff, lev, bits1, bits2 = best_key
    return -neg_eff, lev, frozenset(bits1), frozenset(bits2)


@pytest.mark.parametrize("name", sorted(BRUTE_WITNESS) + ["A5", "D5"])
def test_bruteforce_matches_fraction_oracle(name):
    res = eff_bruteforce(name)
    prime, second = res.witness
    assert (res.eff, res.lev, prime.pos_indices, second.pos_indices) == (
        _oracle_pair_search(build(name))
    )


def test_bruteforce_g2_secondary_size():
    res = eff_bruteforce("G2")
    assert 2 * res.witness[1].num_positive == 2


def test_bruteforce_a1_has_no_proper_subsystem():
    with pytest.raises(ValueError):
        eff_bruteforce("A1")


def test_bruteforce_size_guard():
    with pytest.raises(ValueError):
        eff_bruteforce("E8")


def test_bruteforce_flat_guard():
    # A10 has 55 positive roots but 678,570 full subsystems: the listing
    # stops past 200,000, before the pair search starts
    with pytest.raises(ValueError, match="more than 200000 full subsystems"):
        eff_bruteforce("A10")


# -- ordering ---------------------------------------------------------------


def test_compare_pairs():
    assert compare("B5", "C5") == "equivalent"
    assert compare("A3", "A2") == "greater"
    assert compare("E8", "E7") == "less"
    assert compare("D4", "D4") == "equivalent"
    assert compare("G2", "F4") == "less"


def test_compare_breaks_eff_ties_by_level():
    # A3, D4 and E7 share eff 3/5; smaller level dominates
    assert compare("A3", "E7") == "greater"
    assert compare("E7", "A3") == "less"
    assert compare("A3", "D4") == "greater"
    assert compare("D4", "E7") == "greater"


# -- hyperplane ratio bound -------------------------------------------------


def test_coxeter_bound_anchors():
    e8 = build("E8")
    sub = orthogonal_subsystem(e8, (0, 0, 0, 0, 0, 0, 0, 1))
    assert classify_subsystem(sub) == [build("E7").id]
    assert coxeter_bound(e8, sub) == 3

    e7 = build("E7")
    sub = orthogonal_subsystem(e7, (0, 0, 0, 0, 0, 0, 1))
    assert classify_subsystem(sub) == [build("E6").id]
    assert coxeter_bound(e7, sub) == 2

    e6 = build("E6")
    sub = orthogonal_subsystem(e6, (0, 1, 0, 0, 0, 0))
    assert classify_subsystem(sub) == [build("A5").id]
    assert coxeter_bound(e6, sub) == 3


def test_coxeter_bound_b2_by_hand():
    b2 = build("B2")
    long_root = oracles.positive_roots(b2).index((F(1), F(-1)))
    short_root = oracles.positive_roots(b2).index((F(0), F(1)))
    assert coxeter_bound(b2, Subsystem(b2, frozenset({long_root}))) == 3
    assert coxeter_bound(b2, Subsystem(b2, frozenset({short_root}))) == 2


def test_coxeter_bound_rejects_wrong_rank():
    # a span of rank 1 and one of rank 3 leave two forms and none, not one
    a3 = build("A3")
    for sub in (orthogonal_subsystem(a3, (1, 1, 0)), Subsystem(a3, frozenset(range(6)))):
        with pytest.raises(ValueError, match="^subsystem must span a hyperplane"):
            coxeter_bound(a3, sub)
    with pytest.raises(ValueError, match="^subsystem does not belong"):
        coxeter_bound(a3, Subsystem(build("A4"), frozenset({0, 1})))
