import hashlib
import random
from fractions import Fraction

import pytest

from weylzeta import rootsys
from weylzeta._linalg import echelon
from weylzeta.rootsys import (
    FamilyRank,
    Subsystem,
    all_types,
    build,
    classify_subsystem,
    orthogonal_subsystem,
    quadratic_nullspace_dim,
    reflection_orbits,
    simple_reflections,
    spanning_check,
    weyl_orbit_equal,
)

import oracles
from oracles import in_root_lattice


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _oracle_roots(simples):
    """Positive roots and simple-root coordinates by the root-string test on
    ambient Fraction vectors, sorted by height, then coordinates."""
    n = len(simples)
    norms = [_dot(s, s) for s in simples]
    known = {}
    level = []
    for i, s in enumerate(simples):
        coords = tuple(1 if j == i else 0 for j in range(n))
        known[s] = coords
        level.append((s, coords))
    out = list(level)
    while level:
        nxt = {}
        for beta, coords in level:
            for i, alpha in enumerate(simples):
                p = 0
                v = tuple(x - y for x, y in zip(beta, alpha))
                while v in known:
                    p += 1
                    v = tuple(x - y for x, y in zip(v, alpha))
                if p - 2 * _dot(beta, alpha) / norms[i] >= 1:
                    new = tuple(x + y for x, y in zip(beta, alpha))
                    if new not in known and new not in nxt:
                        nxt[new] = tuple(c + (j == i) for j, c in enumerate(coords))
        known.update(nxt)
        level = sorted(nxt.items())
        out.extend(level)
    out.sort(key=lambda rc: (sum(rc[1]), rc[1]))
    return out


def _oracle_system(simples):
    """Everything the root-system build derives, computed on Fractions."""
    n = len(simples)
    generated = _oracle_roots(simples)
    roots = tuple(v for v, _ in generated)
    coords = tuple(c for _, c in generated)
    snorms = [_dot(s, s) for s in simples]
    cartan = tuple(
        tuple(int(2 * _dot(a, b) / snorms[j]) for j, b in enumerate(simples))
        for a in simples
    )
    coroots = tuple(
        tuple(int(c * s / _dot(v, v)) for c, s in zip(cs, snorms))
        for v, cs in zip(roots, coords)
    )
    reduced, _ = echelon([
        [cartan[k][j] for k in range(n)] + [int(i == j) for i in range(n)]
        for j in range(n)
    ])
    d = reduced[0][0]
    weights = tuple(
        tuple(
            sum((reduced[k][n + i] * simples[k][r] for k in range(n)), Fraction(0)) / d
            for r in range(len(simples[0]))
        )
        for i in range(n)
    )
    return roots, coords, coroots, cartan, d, weights


def _count_formula(fr):
    n = fr.rank
    if fr.family == "A":
        return n * (n + 1) // 2
    if fr.family in ("B", "C"):
        return n * n
    if fr.family == "D":
        return n * (n - 1)
    if fr.family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return 24 if fr.family == "F" else 6


def test_type_validation():
    with pytest.raises(ValueError):
        FamilyRank("B", 1)
    with pytest.raises(ValueError):
        FamilyRank("D", 3)
    with pytest.raises(ValueError):
        FamilyRank("E", 9)
    with pytest.raises(ValueError):
        FamilyRank("H", 3)
    assert str(FamilyRank.parse(" E7 ")) == "E7"
    with pytest.raises(ValueError):
        FamilyRank.parse("X2")


def test_all_types_order_and_refusals():
    assert [str(t) for t in all_types(4)] == [
        "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"
    ]
    assert [str(t) for t in all_types(8) if t.family == "E"] == ["E6", "E7", "E8"]
    assert all_types(0) == []
    for fam, n in [("H", 3), ("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5),
                   ("E", 9), ("F", 3), ("G", 3), ("A", -1)]:
        with pytest.raises(ValueError, match=f"^invalid root system type: {fam}{n}$"):
            FamilyRank(fam, n)


def test_all_types_count():
    assert len(all_types(8)) == 31
    assert len(all_types(2)) == 4  # A1 A2 B2 G2


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_positive_root_counts(fr):
    assert build(fr).num_positive == _count_formula(fr)


@pytest.mark.parametrize(
    "fr", all_types(8) + [FamilyRank("B", 16), FamilyRank("D", 16)], ids=str
)
def test_integer_generation_matches_fraction_oracle(fr):
    system = build(fr)
    assert (
        oracles.positive_roots(system),
        system.root_coords,
        system.coroots,
        system.cartan_matrix,
        system.cartan_det,
        oracles.fundamental_weights(system),
    ) == _oracle_system(oracles.simple_roots(system))


@pytest.mark.parametrize("fr", all_types(6), ids=str)
def test_reflection_closure(fr):
    system = build(fr)
    roots = list(oracles.positive_roots(system)) + [
        tuple(-x for x in v) for v in oracles.positive_roots(system)
    ]
    for alpha in oracles.positive_roots(system):
        nn = _dot(alpha, alpha)
        for beta in roots:
            c = 2 * _dot(alpha, beta) / nn
            image = tuple(b - c * a for a, b in zip(alpha, beta))
            assert oracles.is_root(system, image)


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_pairing_range(fr):
    system = build(fr)
    for i in range(system.num_positive):
        for j in range(system.num_positive):
            val = system.pair(i, system.root_weights[j])
            if i == j:
                assert val == 2
            else:
                assert val in (-3, -2, -1, 0, 1, 2, 3)


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_root_fundamental_is_the_cartan_transform(fr):
    system = build(fr)
    cartan, n = system.cartan_matrix, system.rank
    for b, x in enumerate(system.root_coords):
        expect = tuple(sum(cartan[j][i] * x[j] for j in range(n)) for i in range(n))
        assert system.root_weights[b] == expect


@pytest.mark.parametrize("fr", all_types(16), ids=str)
def test_root_weights_and_coroots_match_definitions(fr):
    system = build(fr)
    weights = tuple(oracles.root_fundamental(system, b) for b in range(system.num_positive))
    assert system.root_weights == weights
    assert system.coroots == oracles.coroots(system)


# sha256 of the build tables of every type up to rank 16, recorded before the
# root weights were kept at build time
TABLES_SHA256 = "efbfa5b37daed754d95e95973bd8833c0bf3ca92b008e4f6b085598996a1cd34"


def test_tables_pinned_to_rank_16():
    digest = hashlib.sha256()
    types = all_types(16)
    for fr in types:
        s = build(fr)
        digest.update(repr((str(fr), s.cartan_matrix, s.root_coords, s.coroots,
                            s.cartan_det, s._inv_cartan_t_num)).encode())
    assert (len(types), digest.hexdigest()) == (63, TABLES_SHA256)


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_coroot_vectors(fr):
    system = build(fr)
    simples = oracles.simple_roots(system)
    snorms = [_dot(s, s) for s in simples]
    for i, v in enumerate(oracles.positive_roots(system)):
        nn = _dot(v, v)
        expect = tuple(2 * x / nn for x in v)
        got = [Fraction(0)] * len(simples[0])
        for j, c in enumerate(system.coroots[i]):
            for r in range(len(simples[0])):
                got[r] += c * 2 * simples[j][r] / snorms[j]
        assert tuple(got) == expect


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_rho_pairings(fr):
    system = build(fr)
    for i in range(system.num_positive):
        h = system.pair(i, (1,) * system.rank)
        assert h == sum(system.coroots[i]) >= 1
        assert (h == 1) == (oracles.positive_roots(system)[i] in oracles.simple_roots(system))


def test_cartan_matrices():
    assert build("G2").cartan_matrix == ((2, -1), (-3, 2))
    assert build("A2").cartan_matrix == ((2, -1), (-1, 2))
    assert build("B2").cartan_matrix == ((2, -2), (-1, 2))
    assert build("C3").cartan_matrix == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert build("F4").cartan_matrix == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_fundamental_weights_dual_to_coroots(fr):
    system = build(fr)
    simple_idx = [oracles.positive_roots(system).index(s) for s in oracles.simple_roots(system)]
    for k, w in enumerate(oracles.fundamental_weights(system)):
        lam = tuple(1 if m == k else 0 for m in range(system.rank))
        assert oracles.weight_to_ambient(system, lam) == w
        for j, i in enumerate(simple_idx):
            assert system.pair(i, lam) == (1 if j == k else 0)


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_root_basis_coords_invert_cartan(fr):
    system = build(fr)
    for i, coords in enumerate(system.root_coords):
        assert oracles.root_basis_coords(system, system.root_weights[i]) == coords
        assert in_root_lattice(system, system.root_weights[i])


def test_highest_root_is_last():
    # ordering is by height, so the final positive root is the highest one
    assert build("G2").root_coords[-1] == (3, 2)
    assert build("E8").root_coords[-1] == (2, 3, 4, 6, 5, 4, 3, 2)
    assert build("F4").root_coords[-1] == (2, 3, 4, 2)
    assert build("E6").root_weights[35] == (0, 1, 0, 0, 0, 0)


def test_weyl_orbit_equal():
    a2 = build("A2")
    assert weyl_orbit_equal(a2, (1, 0), (-1, 1))
    assert not weyl_orbit_equal(a2, (1, 0), (0, 1))
    c3 = build("C3")
    # third minus second fundamental weight lands in the orbit of the first
    assert weyl_orbit_equal(c3, (0, -1, 1), (1, 0, 0))
    assert weyl_orbit_equal(build("A1"), (-2,), (2,))


def test_in_root_lattice():
    a1 = build("A1")
    assert not in_root_lattice(a1, (1,))
    assert in_root_lattice(a1, (2,))
    a2 = build("A2")
    assert not in_root_lattice(a2, (1, 0))
    assert in_root_lattice(a2, (1, 1))
    b3 = build("B3")
    assert not in_root_lattice(b3, (0, 0, 1))
    assert in_root_lattice(b3, (0, 0, 2))
    assert in_root_lattice(b3, (1, 0, 0))
    e8 = build("E8")
    assert in_root_lattice(e8, (1, 0, 0, 0, 0, 0, 0, 0))


ORTHOGONAL_CASES = [
    ("A3", 1, ["A1", "A1"]),
    ("A4", 2, ["A1", "A2"]),
    ("B3", 0, ["B2"]),
    ("B3", 2, ["A2"]),
    ("C3", 0, ["B2"]),
    ("D4", 0, ["A3"]),
    ("D4", 1, ["A1", "A1", "A1"]),
    ("E6", 0, ["D5"]),
    ("E6", 1, ["A5"]),
    ("E7", 6, ["E6"]),
    ("E8", 7, ["E7"]),
    ("F4", 3, ["B3"]),
    ("F4", 0, ["C3"]),
    ("G2", 0, ["A1"]),
    ("G2", 1, ["A1"]),
]


@pytest.mark.parametrize("name,node,expected", ORTHOGONAL_CASES)
def test_orthogonal_complement_types(name, node, expected):
    system = build(name)
    lam = tuple(1 if i == node else 0 for i in range(system.rank))
    sub = orthogonal_subsystem(system, lam)
    assert classify_subsystem(sub) == [FamilyRank.parse(t) for t in expected]


def test_classify_rejects_non_closed():
    a2 = build("A2")
    sub = Subsystem(a2, frozenset({0, 2}))  # a simple root and the highest root
    assert not sub.is_closed()
    with pytest.raises(ValueError):
        classify_subsystem(sub)


CLOSURE_SUBSETS = {"A1", "A2", "B2", "G2", "A3", "B3", "C3"}


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_is_closed_matches_fraction_oracle(fr):
    """Pair test against the Fraction pair loop: every subset of the
    positive roots on the small types; the orthogonal subsystem of each
    0/1 weight up to rank 5, and of eight seeded random ones past it, with
    one variant that has the last root index toggled; and on every type
    seeded random subsets, twenty of at most three roots, which are often
    closed, and ten of any size."""
    system = build(fr)
    m = system.num_positive
    rng = random.Random(str(fr))
    cases = []
    if str(fr) in CLOSURE_SUBSETS:
        cases += [frozenset(i for i in range(m) if mask >> i & 1) for mask in range(1 << m)]
    masks = range(1 << system.rank)
    for mask in masks if system.rank <= 5 else rng.sample(masks, 8):
        lam = tuple(mask >> i & 1 for i in range(system.rank))
        idx = orthogonal_subsystem(system, lam).pos_indices
        cases += [idx, idx ^ {m - 1}]
    cases += [frozenset(rng.sample(range(m), rng.randint(1, min(3, m)))) for _ in range(20)]
    cases += [frozenset(rng.sample(range(m), rng.randint(1, m))) for _ in range(10)]
    for idx in cases:
        sub = Subsystem(system, idx)
        assert sub.is_closed() is oracles.is_closed(sub), sorted(idx)


def test_classify_full_system():
    for name in ("A2", "B2", "G2", "D4"):
        system = build(name)
        sub = Subsystem(system, frozenset(range(system.num_positive)))
        assert classify_subsystem(sub) == [system.id]


def test_lemma_checks_smoke():
    for name in ("A2", "B3", "G2", "F4"):
        system = build(name)
        assert quadratic_nullspace_dim(system) == 0
        assert spanning_check(system)


class _A1xA1:
    """Two orthogonal roots: a reducible system, so neither check holds."""

    rank = 2
    num_positive = 2
    root_coords = ((1, 0), (0, 1))
    coroots = ((1, 0), (0, 1))
    cartan_matrix = ((2, 0), (0, 2))
    root_weights = ((2, 0), (0, 2))
    reflections = property(simple_reflections)

    def __str__(self):
        # A stable test id; the default repr carries a memory address.
        return "A1xA1"


def test_lemma_checks_fail_on_reducible_input():
    system = _A1xA1()
    assert quadratic_nullspace_dim(system) == 1  # the cross term x1 x2
    assert spanning_check(system) is False


def _no_fallback(rows):
    raise AssertionError("the modular certificate fell back to echelon")


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_rigidity_is_certified_without_fallback(fr, monkeypatch):
    system = build(fr)  # built before the patch, so only the checks meet it
    monkeypatch.setattr(rootsys, "echelon", _no_fallback)
    assert quadratic_nullspace_dim(system) == 0
    assert spanning_check(system)


def test_rank_deficit_takes_the_fallback(monkeypatch):
    monkeypatch.setattr(rootsys, "echelon", _no_fallback)
    with pytest.raises(AssertionError, match="fell back"):
        quadratic_nullspace_dim(_A1xA1())
    with pytest.raises(AssertionError, match="fell back"):
        spanning_check(_A1xA1())


@pytest.mark.parametrize("system", [build(fr) for fr in all_types(8)] + [_A1xA1()], ids=str)
def test_spanning_check_matches_per_root_oracle(system):
    assert spanning_check(system) is oracles.spanning_check(system)


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_simple_reflections_are_the_reflections(fr):
    system = build(fr)
    roots = oracles.positive_roots(system)
    perms = simple_reflections(system)
    assert len(perms) == system.rank
    for alpha, perm in zip(oracles.simple_roots(system), perms):
        assert sorted(perm) == list(range(system.num_positive))
        assert all(perm[perm[b]] == b for b in range(system.num_positive))
        for beta, b in zip(roots, perm):
            pairing = 2 * _dot(beta, alpha) / _dot(alpha, alpha)
            image = tuple(x - pairing * y for x, y in zip(beta, alpha))
            assert roots[b] in (image, tuple(-x for x in image))


@pytest.mark.parametrize("fr", all_types(8), ids=str)
def test_reflection_orbits_by_root_length(fr):
    system = build(fr)
    orbits = reflection_orbits(simple_reflections(system), system.num_positive)
    assert len(orbits) == (1 if fr.family in "ADE" else 2)
    assert sorted(b for orbit in orbits for b in orbit) == list(range(system.num_positive))
    lengths = [{system.inner(system.root_coords[b], system.root_coords[b]) for b in orbit}
               for orbit in orbits]
    assert all(len(ls) == 1 for ls in lengths)


def test_reflections_of_reducible_input():
    system = _A1xA1()
    assert simple_reflections(system) == [(0, 1), (0, 1)]
    assert reflection_orbits(simple_reflections(system), 2) == [[0], [1]]
