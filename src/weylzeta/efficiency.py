"""Efficiency and level invariants of irreducible root systems.

The efficiency of a root system R is the largest value of
|R'| / (|R| - |R''|) over pairs of disjoint proper subsystems with R'
nonempty, and the level of R is the smallest positive-root count of R'
among maximizing pairs.  eff_formula returns the closed-form values for
the irreducible families; eff_bruteforce recomputes them by exhaustive
search on systems with at most 24 positive roots.

The search ranges over full subsystems, those of the form R intersected
with a subspace.  By Bourbaki (Lie Groups VI, 1.7, Prop. 24) these are
exactly the W-conjugates of the standard parabolic subsystems, so
_full_subsystem_masks lists them as orbits under the simple reflections.
The larger class of closed subsystems (enumerate_closed_subsystems, every
symmetric subset closed under root addition, re-closed by rootsys.closure)
would admit pairs like the long A2 inside G2 whose ratio exceeds the
tabulated efficiency.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from ._linalg import annihilator, echelon
from .rootsys import FamilyRank, RootSystem, Subsystem, build, closure

# Exhaustive search is limited to systems no larger than F4.
_BRUTE_LIMIT = 24


class EffResult(namedtuple("EffResult", "eff lev witness", defaults=(None,))):
    """Efficiency, level and, from the search, a witness pair of subsystems."""

    __slots__ = ()


def eff_formula(ident) -> EffResult:
    """Tabulated efficiency and level for an irreducible type."""
    fr = FamilyRank.parse(ident) if isinstance(ident, str) else ident
    n = fr.rank
    if fr.family == "A":
        return EffResult(Fraction(n, n + 2), n * (n - 1) // 2)
    if fr.family in ("B", "C"):
        return EffResult(Fraction(n - 1, n + 1), (n - 1) ** 2)
    if fr.family == "D":
        return EffResult(Fraction(n - 1, n + 1), (n - 1) * (n - 2))
    table = {
        ("E", 6): (Fraction(10, 17), 20),
        ("E", 7): (Fraction(3, 5), 36),
        ("E", 8): (Fraction(7, 13), 63),
        ("F", 4): (Fraction(3, 7), 9),
        ("G", 2): (Fraction(1, 5), 1),
    }
    eff, lev = table[(fr.family, fr.rank)]
    return EffResult(eff, lev)


def _as_system(arg) -> RootSystem:
    return arg if isinstance(arg, RootSystem) else build(arg)


def _check_size(system: RootSystem) -> None:
    if system.num_positive > _BRUTE_LIMIT:
        raise ValueError(
            f"{system.id} has {system.num_positive} positive roots; "
            f"exhaustive search is limited to {_BRUTE_LIMIT}"
        )


def enumerate_closed_subsystems(system) -> list[Subsystem]:
    """All symmetric closed subsets of the roots, empty set and R included.

    DFS over positive-root index order: each known closed set is extended
    by one generator and re-closed by rootsys.closure, deduplicating by
    bitmask.
    """
    system = _as_system(system)
    _check_size(system)
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
    out = [
        Subsystem(system, frozenset(i for i in range(m) if mask >> i & 1))
        for mask in seen
    ]
    out.sort(key=lambda s: (s.num_positive, sorted(s.pos_indices)))
    return out


def _full_subsystem_masks(system: RootSystem) -> list[int]:
    """Bitmasks of subsystems of the form R intersected with a subspace.

    Every such subsystem is W-conjugate to a standard parabolic one
    (Bourbaki, Lie Groups VI, 1.7, Prop. 24): the roots supported on a
    subset J of the simple roots.  Conversely w maps R intersected with V
    onto R intersected with w(V).  So the masks are the orbit of the
    2^rank standard masks under the simple reflections, applied bit by bit
    as permutations of the positive-root indices.
    """
    perms = system.reflections
    found = {
        sum(1 << b for b, c in enumerate(system.root_coords)
            if all(x == 0 or J >> i & 1 for i, x in enumerate(c)))
        for J in range(1 << system.rank)
    }
    stack = list(found)
    while stack:
        bits = _bits(stack.pop())
        for perm in perms:
            image = sum(1 << perm[b] for b in bits)
            if image not in found:
                found.add(image)
                stack.append(image)
    return sorted(found)


def eff_bruteforce(system) -> EffResult:
    """Exhaustive efficiency over pairs of disjoint full subsystems.

    R' ranges over nonempty proper full subsystems, R'' over full
    subsystems disjoint from R'.  Among maximizing pairs the witness has
    the fewest positive roots in R', ties broken by index order.  For a
    given R' the best R'' is the first disjoint one in the order of
    decreasing size, then index order; ratios compare in integers.
    """
    system = _as_system(system)
    _check_size(system)
    masks = _full_subsystem_masks(system)
    npos = system.num_positive
    full = (1 << npos) - 1
    primaries = [mk for mk in masks if mk and mk != full]
    if not primaries:
        raise ValueError(f"{system.id} has no nonempty proper subsystem")
    secondaries = sorted(masks, key=lambda mk: (-mk.bit_count(), _bits(mk)))
    best = None
    for m1 in primaries:
        m2 = next(mk for mk in secondaries if not m1 & mk)
        # |R'| / (|R| - |R''|) = num / den, counted in positive roots
        num, den = m1.bit_count(), npos - m2.bit_count()
        if best is not None:
            best_num, best_den, best_m1, _ = best
            ahead = num * best_den - best_num * den
            if ahead < 0 or ahead == 0 and (num, _bits(m1)) >= (best_num, _bits(best_m1)):
                continue
        best = (num, den, m1, m2)
    num, den, m1, m2 = best
    witness = (
        Subsystem(system, frozenset(_bits(m1))),
        Subsystem(system, frozenset(_bits(m2))),
    )
    return EffResult(Fraction(num, den), num, witness)


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
