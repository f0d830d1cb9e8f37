"""The ledger checks its values under python -O too, and times each check."""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from weylzeta import rootsys, verify

SRC = Path(__file__).resolve().parents[1] / "src"

# Run the fast ledger with the tabulated G2 efficiency set to a wrong value.
PROGRAM = """
import sys
from fractions import Fraction
from weylzeta import verify

real = verify.eff_formula

def wrong(name):
    res = real(name)
    return res._replace(eff=Fraction(1, 4)) if str(name) == "G2" else res

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


def test_every_check_reports_its_seconds(monkeypatch):
    def broken():
        raise ValueError("broken on purpose")

    monkeypatch.setattr(verify, "check_prime_power_scan", broken)
    results = verify.run_checks()
    assert len(results) == 10
    assert all(r.seconds >= 0 for r in results)
    failed = [r for r in results if not r.passed]
    assert [(r.title, r.detail) for r in failed] == [
        ("rank-7 adjoint prime-power scan", "ValueError: broken on purpose")]


# wrong maps a field of eff_formula's result to a wrong value.  From F4 4/9 on, the
# asymptotic assertions pass (or do not cover the type): only the ord_0(P) ones fail.
@pytest.mark.parametrize("name,wrong", [
    ("G2", {"eff": Fraction(1, 4)}), ("G2", {"eff": Fraction(1, 6)}),
    ("F4", {"eff": Fraction(2, 5)}), ("F4", {"eff": Fraction(1, 2)}),
    ("F4", {"eff": Fraction(4, 9)}), ("F4", {"eff": Fraction(5, 11)}),
    ("G2", {"eff": Fraction(2, 9)}), ("G2", {"eff": Fraction(3, 14)}),
    ("E7", {"eff": Fraction(4, 7)}), ("E8", {"eff": Fraction(8, 15)}), ("E6", {"lev": 21}),
])
def test_prime_order_limit_fails_on_a_wrong_efficiency(name, wrong, monkeypatch):
    real = verify.eff_formula
    monkeypatch.setattr(verify, "eff_formula", lambda n: (
        real(n)._replace(**wrong) if str(n) == name else real(n)))
    with pytest.raises(AssertionError, match=name):
        verify.check_prime_order_limit()


def test_reflections_built_once_per_system(monkeypatch):
    # fresh root systems, so every system the ledger reads is built in this
    # run; the rigidity check reads the reflections of all 31 types of rank
    # <= 8, and the efficiency search reads them again for the types it walks
    monkeypatch.setattr(rootsys, "_build", lru_cache(maxsize=None)(rootsys._build.__wrapped__))
    built = []
    real = rootsys.simple_reflections

    def counting(system):
        built.append(system.id)
        return real(system)

    monkeypatch.setattr(rootsys, "simple_reflections", counting)
    assert all(r.passed for r in verify.run_checks())
    assert len(built) == len(set(built)) == 31
