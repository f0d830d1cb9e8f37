"""Efficiency and level invariants of irreducible root systems.

The efficiency of a root system R is the largest value of
|R'| / (|R| - |R''|) over pairs of disjoint proper subsystems with R'
nonempty, and the level of R is the smallest positive-root count of R'
among maximizing pairs.  eff_formula returns the closed-form values for
the irreducible families; eff_bruteforce recomputes them by exhaustive
search on systems with at most 63 positive roots and 200,000 flats, E7 and
smaller.

The search ranges over full subsystems, those of the form R intersected
with a subspace.  By Bourbaki (Lie Groups VI, 1.7, Prop. 24) these are
exactly the W-conjugates of the standard parabolic subsystems, so
_full_subsystem_masks lists them as orbits under the simple reflections.
W permutes the roots, so it keeps disjointness and both sizes of a pair,
and R' need range over the standard parabolic subsystems only; R''
ranges over every full subsystem.
The larger class of closed subsystems (enumerate_closed_subsystems, every
symmetric subset closed under root addition, re-closed by rootsys.closure)
would admit pairs like the long A2 inside G2 whose ratio exceeds the
tabulated efficiency.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import getitem

from ._linalg import annihilator, echelon
from .rootsys import FamilyRank, RootSystem, Subsystem, build, closure

# The pair search admits systems no larger than E7; listing closed
# subsystems, which is exponential, stops at F4.  The flats of A_n number
# B(n + 1), a Bell number, so past E7's 90,408 the search stops by flat count
# too: D8 has 137,528 and A10, refused, 678,570.
_BRUTE_LIMIT = 63
_CLOSED_LIMIT = 24
_FLAT_LIMIT = 200_000


class EffResult(namedtuple("EffResult", "eff lev witness", defaults=(None,))):
    """Efficiency, level and, from the search, a witness pair of subsystems."""

    __slots__ = ()


def eff_formula(ident) -> EffResult:
    """Tabulated efficiency and level for an irreducible type."""
    fr = FamilyRank.parse(ident) if isinstance(ident, str) else ident
    n = fr.rank
    if fr.family == "A":
        return EffResult(Fraction(n, n + 2), n * (n - 1) // 2)
    if fr.family in "BCD":
        return EffResult(Fraction(n - 1, n + 1), (n - 1) * (n - 2 if fr.family == "D" else n - 1))
    num, den, lev = {"E6": (10, 17, 20), "E7": (3, 5, 36), "E8": (7, 13, 63),
                     "F4": (3, 7, 9), "G2": (1, 5, 1)}[str(fr)]
    return EffResult(Fraction(num, den), lev)


def _as_system(arg) -> RootSystem:
    return arg if isinstance(arg, RootSystem) else build(arg)


def _check_size(system: RootSystem, limit: int) -> None:
    if system.num_positive > limit:
        raise ValueError(
            f"{system.id} has {system.num_positive} positive roots; "
            f"exhaustive search is limited to {limit}"
        )


def enumerate_closed_subsystems(system) -> list[Subsystem]:
    """All symmetric closed subsets of the roots, empty set and R included.

    DFS over positive-root index order: each known closed set is extended
    by one generator and re-closed by rootsys.closure, deduplicating by
    bitmask.
    """
    system = _as_system(system)
    _check_size(system, _CLOSED_LIMIT)
    m = system.num_positive
    seen = {0}
    stack = [0]
    while stack:
        mask = stack.pop()
        for i in range(m):
            if mask >> i & 1:
                continue
            ext = closure(system, mask | 1 << i)
            if ext not in seen:
                seen.add(ext)
                stack.append(ext)
    out = [Subsystem(system, frozenset(_bits(mask))) for mask in seen]
    out.sort(key=lambda s: (s.num_positive, sorted(s.pos_indices)))
    return out


def _standard_masks(system: RootSystem) -> list[int]:
    """Bitmask of the roots supported on J, for each subset J of the simple roots, by J."""
    supports = [sum(1 << i for i, x in enumerate(c) if x) for c in system.root_coords]
    return [sum(1 << b for b, sup in enumerate(supports) if not sup & ~J)
            for J in range(1 << system.rank)]


def _byte_images(images) -> list[int]:
    """Image of each byte value when bit i goes to bit images[i], built by doubling."""
    table = [0]
    for b in images:
        table += [x | 1 << b for x in table]
    return table


def _full_subsystem_masks(system: RootSystem) -> list[int]:
    """Bitmasks of subsystems of the form R intersected with a subspace.

    Every such subsystem is W-conjugate to a standard parabolic one
    (Bourbaki, Lie Groups VI, 1.7, Prop. 24): the roots supported on a
    subset J of the simple roots.  Conversely w maps R intersected with V
    onto R intersected with w(V).  So the masks are the orbit of the
    2^rank standard masks under the simple reflections.  A reflection
    permutes the positive-root indices; it maps a mask byte by byte, each
    byte's 256 images tabulated by doubling, and the images of the bytes
    are disjoint, so they add.  More than _FLAT_LIMIT masks are refused.
    """
    nbytes = (system.num_positive + 7) // 8
    tables = [[_byte_images(perm[k:k + 8]) for k in range(0, len(perm), 8)]
              for perm in system.reflections]
    found = set(_standard_masks(system))
    stack = list(found)
    while stack:
        if len(found) > _FLAT_LIMIT:
            raise ValueError(f"{system.id} has more than {_FLAT_LIMIT} full subsystems; "
                             f"exhaustive search is limited to {_FLAT_LIMIT}")
        data = stack.pop().to_bytes(nbytes, "little")
        for per_byte in tables:
            image = sum(map(getitem, per_byte, data))
            if image not in found:
                found.add(image)
                stack.append(image)
    return sorted(found)


def eff_bruteforce(system) -> EffResult:
    """Exhaustive efficiency over pairs of disjoint full subsystems.

    R' ranges over the 2^rank - 2 nonempty proper standard parabolic
    subsystems, R'' over full subsystems disjoint from R'; a W-conjugate
    of a pair has the same ratio.  Systems with more than 63 positive
    roots (E8, and the larger classical types) or more than 200,000 full
    subsystems (A10) are refused.  Among
    maximizing pairs the witness has the fewest positive roots in R',
    ties broken by index order: of two equal-sized masks, the one owning
    the lowest bit where they differ comes first, so the bit-reversed
    mask orders them.  For a given R' the best R'' is the first disjoint
    one in the order of decreasing size, then index order; ratios compare
    in integers.
    """
    system = _as_system(system)
    _check_size(system, _BRUTE_LIMIT)
    if system.rank == 1:
        raise ValueError(f"{system.id} has no nonempty proper subsystem")
    npos = system.num_positive
    width = f"0{npos}b"

    def order(mask: int) -> tuple[int, int]:
        return mask.bit_count(), int(format(mask, width)[::-1], 2)

    secondaries = sorted(_full_subsystem_masks(system), key=order, reverse=True)
    # |R'| / (|R| - |R''|) counted in positive roots, then fewer roots in
    # R', then index order; R'' is the first disjoint secondary
    eff, neg_lev, _, m1, m2 = max(
        [(Fraction(m1.bit_count(), npos - m2.bit_count()), -m1.bit_count(), order(m1)[1], m1, m2)
         for m1 in _standard_masks(system)[1:-1]
         for m2 in [next(mk for mk in secondaries if not m1 & mk)]])
    witness = (
        Subsystem(system, frozenset(_bits(m1))),
        Subsystem(system, frozenset(_bits(m2))),
    )
    return EffResult(eff, -neg_lev, witness)


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def compare(first, second) -> str:
    """Order two irreducible types by efficiency, then by level.

    S dominates T when eff(S) > eff(T), or the efficiencies tie and
    lev(S) <= lev(T).  Domination both ways is "equivalent" and happens
    only for B_n versus C_n (and S = T).  The efficiencies are totally
    ordered rationals, so one of the two directions always holds.
    """
    a = eff_formula(first)
    b = eff_formula(second)
    forward = a.eff > b.eff or (a.eff == b.eff and a.lev <= b.lev)
    backward = b.eff > a.eff or (b.eff == a.eff and b.lev <= a.lev)
    if forward and backward:
        return "equivalent"
    return "greater" if forward else "less"


def coxeter_bound(system: RootSystem, sub: Subsystem) -> Fraction:
    """1 + max/min of the positive values of a form vanishing on Span(sub).

    sub must span a hyperplane of the root space.  The linear form is
    then unique there up to scale, and negating it permutes the roots'
    value set, so the ratio is well defined.
    """
    if sub.parent is not system:
        raise ValueError("subsystem does not belong to this root system")
    rows = [system.root_coords[i] for i in sorted(sub.pos_indices)]
    if len(echelon(rows)[1]) != system.rank - 1:
        raise ValueError("subsystem must span a hyperplane of the root space")
    (form,) = annihilator(rows, system.rank)
    values = [
        abs(sum(f * x for f, x in zip(form, coords)))
        for i, coords in enumerate(system.root_coords)
        if i not in sub.pos_indices
    ]
    values = [x for x in values if x]
    return 1 + Fraction(max(values), min(values))
