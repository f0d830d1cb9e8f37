"""The ledger checks its values under python -O too."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Run the fast ledger with the tabulated G2 efficiency set to a wrong value.
PROGRAM = """
import dataclasses, sys
from fractions import Fraction
from weylzeta import verify

real = verify.eff_formula

def wrong(name):
    res = real(name)
    return dataclasses.replace(res, eff=Fraction(1, 4)) if str(name) == "G2" else res

verify.eff_formula = wrong
print("optimize", sys.flags.optimize)
for result in verify.run_checks(fast=True):
    print("PASS" if result.passed else "FAIL", result.title, result.detail)
"""


def test_ledger_fails_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", PROGRAM], env=env,
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert ("FAIL efficiency search agrees with the closed forms "
            "AssertionError: G2 eff 1/5") in lines
