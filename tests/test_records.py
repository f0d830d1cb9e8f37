"""The record types: repr, equality, hashing, immutability and order.

They are namedtuples, so importing the command line loads neither
dataclasses (with inspect) nor typing; nor does it load argparse, which a
well-formed command line does not need either.  The guards start an
interpreter without site, which would preload modules of its own.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weylzeta.efficiency import EffResult
from weylzeta.gassmann import GassmannReport, SignHom, TraceFunction
from weylzeta.repdegrees import DegreeTable, GroupSpec
from weylzeta.rootsys import FamilyRank, Subsystem, all_types, build
from weylzeta.verify import CheckResult
from weylzeta.weylpoly import ExplicitPair, WeylPolynomial

SRC = Path(__file__).resolve().parents[1] / "src"


def _pair():
    A2 = build("A2")
    return Subsystem(A2, frozenset({0})), Subsystem(A2, frozenset())


# (factory, a field to assign, the pinned repr: Name(field=value, ...))
RECORDS = [
    (lambda: FamilyRank("B", 7), "rank", "FamilyRank(family='B', rank=7)"),
    (lambda: Subsystem(build("A2"), frozenset({0, 2})), "pos_indices",
     "Subsystem(parent=RootSystem(A2), pos_indices=frozenset({0, 2}))"),
    (lambda: GroupSpec.parse("A1xA1:cosets[1/2,1/2;0,0]"), "cosets",
     "GroupSpec(factors=(FamilyRank(family='A', rank=1), FamilyRank(family='A', rank=1)), "
     "kind='cosets', cosets=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 2), Fraction(1, 2))))"),
    (lambda: GroupSpec((FamilyRank("A", 1),)), "kind",
     "GroupSpec(factors=(FamilyRank(family='A', rank=1),), kind='sc', cosets=())"),
    (lambda: DegreeTable("A1:sc", "zeta", 3, {1: 1, 2: 1, 3: 1}), "counts",
     "DegreeTable(group='A1:sc', variant='zeta', bound=3, counts={1: 1, 2: 1, 3: 1})"),
    (lambda: TraceFunction((128, 8, -8, 16, -16, 24, -24, 32)), "values",
     "TraceFunction(values=(128, 8, -8, 16, -16, 24, -24, 32))"),
    (lambda: SignHom(2, (1, 2), {1: 1, 2: 1}), "n",
     "SignHom(n=2, functionals=(1, 2), multiplicities={1: 1, 2: 1})"),
    (lambda: GassmannReport(True, False, 128), "zeta_equal",
     "GassmannReport(zeta_equal=True, perm_equivalent=False, n=128)"),
    (lambda: EffResult(Fraction(1, 5), 1), "eff",
     "EffResult(eff=Fraction(1, 5), lev=1, witness=None)"),
    (lambda: EffResult(Fraction(1, 3), 0, _pair()), "witness",
     "EffResult(eff=Fraction(1, 3), lev=0, witness=(Subsystem(parent=RootSystem(A2), "
     "pos_indices=frozenset({0})), Subsystem(parent=RootSystem(A2), pos_indices=frozenset())))"),
    (lambda: CheckResult("t", True), "passed",
     "CheckResult(title='t', passed=True, detail='', seconds=0.0)"),
    (lambda: CheckResult("t", False, "AssertionError: x", 0.5), "seconds",
     "CheckResult(title='t', passed=False, detail='AssertionError: x', seconds=0.5)"),
    (lambda: WeylPolynomial((Fraction(1), Fraction(1, 2))), "coefficients",
     "WeylPolynomial(coefficients=(Fraction(1, 1), Fraction(1, 2)))"),
    (lambda: ExplicitPair(FamilyRank("A", 2), (1, 0), (0, 1)), "mu",
     "ExplicitPair(id=FamilyRank(family='A', rank=2), mu=(1, 0), nu=(0, 1))"),
]
# a dict field makes these two unhashable
UNHASHABLE = (DegreeTable, SignHom)


@pytest.mark.parametrize("make,field,text", RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
def test_record_repr_equality_and_immutability(make, field, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b
    if isinstance(a, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b


def test_record_types_are_all_covered():
    assert {type(make()) for make, _, _ in RECORDS} == {
        FamilyRank, Subsystem, GroupSpec, DegreeTable, TraceFunction, SignHom,
        GassmannReport, EffResult, CheckResult, WeylPolynomial, ExplicitPair}


def test_family_rank_order_and_validation():
    types = all_types(8)
    assert len(types) == 31
    assert sorted(reversed(types)) == types
    assert FamilyRank("A", 1) < FamilyRank("A", 2) < FamilyRank("B", 2) < FamilyRank("G", 2)
    with pytest.raises(ValueError, match="invalid root system type: A0"):
        FamilyRank("A", 0)


def test_cli_import_loads_neither_dataclasses_nor_typing():
    program = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import weylzeta.cli; "
               "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", program],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_well_formed_command_line_loads_no_argparse():
    # argparse (with gettext) is imported for help and errors only
    program = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import weylzeta.cli as cli\n"
               "def held():\n"
               "    return sorted({'argparse', 'gettext'} & set(sys.modules))\n"
               "seen = [held()]\n"
               "seen.append((cli.main(['zeta', '--group', 'A1:sc', '--max-dim', '5']), held()))\n"
               "seen.append((cli.main(['zeta', '-h']), held()))\n"
               "print(seen, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", program],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[[], (0, []), (0, ['argparse', 'gettext'])]\n"
    table, usage, _ = proc.stdout.partition("usage: weylzeta zeta ")
    assert table == "# weylzeta v1 group=A1:sc variant=zeta maxdim=5\n" + "".join(
        f"{d}\t1\n" for d in range(1, 6))
    assert usage
