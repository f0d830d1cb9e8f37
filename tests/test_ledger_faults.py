"""Faults planted in the spectrum engine that the ledger must catch.

Each case patches one piece of engine code in a fresh interpreter, never a
check or its expected values, runs every check, and compares the titles
that FAIL with the expected ones.  Both faults here hit the two sides of a
comparison alike: the equal-spectrum pair's two tables share their
products, and the Euler identity's two sides come from one engine.  So only
the pair's closed form, tau_128 at fixed degrees, catches them.
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

FAULTS = {
    # a prime-by-prime power one too large at degree 3
    "_multiplicative_pow": """
def patched(base, k, bound):
    power = real(base, k, bound)
    if power is not None and len(power) > 3:
        power[3] += 1
    return power
""",
    # the combiner loses the monomial of zero classes when it has others
    "graded_product": """
def patched(poly, graded, bound, memo=None):
    if len(poly) > 1:
        poly = {m: k for m, k in poly.items() if any(any(c) for (_, c), _ in m)}
    return real(poly, graded, bound, memo)
""",
}


@pytest.mark.parametrize("target", sorted(FAULTS))
def test_ledger_catches_engine_fault(target):
    program = PROGRAM.format(target=target, patch=FAULTS[target])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == ["equal-spectrum quotient pair"]
