"""The package computes in integers and Fractions: no float() and no logarithms.

An AST scan of every module, so the claim in the package docstring ("no
floats touch a result") is enforced by the suite, plain and under -O.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "weylzeta"


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: float(...)")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr.startswith("log")):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {a.name}"
                      for a in node.names if a.name.startswith("log") or a.name == "*"]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_no_floats(path):
    assert _float_uses(ast.parse(path.read_text(), str(path))) == []


def test_scan_sees_each_float_use():
    program = "import math\nfrom math import log2\nx = float(1)\ny = math.log(2)\nz = math.log10(3)\n"
    assert sorted(_float_uses(ast.parse(program))) == [
        "line 2: from math import log2", "line 3: float(...)",
        "line 4: math.log", "line 5: math.log10",
    ]
