"""Faults planted in the spectrum engine that the ledger must catch.

Each case patches one piece of engine code in a fresh interpreter, never a
check or its expected values, runs every check, and compares the titles
that FAIL with the expected ones.  The first two faults hit the two sides of
a comparison alike: the equal-spectrum pair's two tables share their
products, and the Euler identity's two sides come from one engine.  So only
the closed form of a binary code's quotient of SU(2)^n, at fixed degrees,
catches them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import json
from weylzeta import repdegrees
from weylzeta.verify import run_checks

real = repdegrees.{target}
{patch}
repdegrees.{target} = patched
print(json.dumps([r.title for r in run_checks() if not r.passed]))
"""

PAIR = "equal-spectrum quotient pair"
EULER = "restricted counts generate the spectrum"

# target: (the patch, the titles that must FAIL)
FAULTS = {
    # a prime-by-prime power one too large at degree 3
    "_multiplicative_pow": ("""
def patched(base, k, bound):
    power = real(base, k, bound)
    if power is not None and len(power) > 3:
        power[3] += 1
    return power
""", [PAIR]),
    # the combiner loses the monomial of zero classes when it has others
    "graded_product": ("""
def patched(poly, graded, bound, memo=None):
    if len(poly) > 1:
        poly = {m: k for m, k in poly.items() if any(any(c) for (_, c), _ in m)}
    return real(poly, graded, bound, memo)
""", [PAIR]),
    # a product's last nonzero entry set to zero
    "_dirichlet_mul": ("""
def patched(a, b, bound):
    out = real(a, b, bound)
    terms = enumerate(out) if isinstance(out, list) else out.items()
    if (last := max((d for d, c in terms if c), default=None)) is not None:
        out[last] = 0
    return out
""", [EULER, PAIR]),
    # a strip sieve that strips nothing
    "_sieve": ("""
def patched(limit, N):
    return bytearray(1) + bytearray([1]) * limit
""", [EULER]),
    # SU(2) without its degree 9
    "a1_series": ("""
def patched(bound, m, j, keep=None):
    s = real(bound, m, j, keep)
    if isinstance(s, dict):
        s.pop(9, None)
    elif len(s) > 9:
        s[9] = 0
    return s
""", [EULER, PAIR]),
    # the walk drops every dimension divisible by 7
    "_chains": ("""
def patched(fr, bound, kind, wanted):
    for v, c, t, per, dims in real(fr, bound, kind, wanted):
        if dims := [d for d in dims if d % 7]:
            yield v, c, t, per, dims
""", ["smallest divisible dimensions"]),
    # odd-k squaring off the prime-by-prime path that stops at base^(k-1)
    "_dirichlet_pow": ("""
def patched(base, k, bound):
    if k % 2 and k > 1 and (not isinstance(base, list)
                            or repdegrees._multiplicative_pow(base, k, bound) is None):
        k -= 1
    return real(base, k, bound)
""", [PAIR]),
    # a product into a list without its second half: the terms of a list a
    # past isqrt(bound)
    "_sliced_mul": ("""
import math
def patched(out, a, b, bound, square):
    if isinstance(a, list) and not square:
        a = {i: c for i, c in enumerate(a[:math.isqrt(bound) + 1]) if c}
    return real(out, a, b, bound, square)
""", [PAIR]),
    # a product of two dicts one too large at its least degree
    "_pair_loop": ("""
def patched(a, b, bound, square):
    out = real(a, b, bound, square)
    if out:
        out[min(out)] += 1
    return out
""", [EULER]),
}


@pytest.mark.parametrize("target", sorted(FAULTS))
def test_ledger_catches_engine_fault(target):
    patch, failed = FAULTS[target]
    program = PROGRAM.format(target=target, patch=patch)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == failed
