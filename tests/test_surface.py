"""Every definition in the package is reached by the program, not only by tests.

An AST scan: each top-level function and class of src/weylzeta, and each
non-dunder method, must be referenced (as a name or an attribute) from a
module of the package other than __init__.py, or from a demo.  The
exceptions are the functions perfbench/spans.py traces (it looks each one up
by name), the table parser and renderer it wraps, and an allowlist.
References match by bare name, so a same-named attribute elsewhere counts
as a use.
"""

import ast
from pathlib import Path

import weylzeta

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weylzeta"

# ROADMAP item 2 moves these into the ledger's complement check; until then
# only tests/test_weylpoly.py::test_complement_claims calls them
ALLOWED = {("weylpoly", "pair_complement_claim"), ("rootsys", "weyl_orbit_equal")}
# perfbench/spans.py install wraps these two methods by name
WRAPPED = {("repdegrees", "DegreeTable.from_text"), ("repdegrees", "DegreeTable.to_text")}


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level def and class, and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def _names(tree: ast.AST) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _references(path: Path) -> set[str]:
    return _names(ast.parse(path.read_text(), str(path)))


def _traced() -> set[tuple[str, str]]:
    """(module, function) pairs in the TARGETS table of perfbench/spans.py, read as text."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    return {(module.removeprefix("weylzeta."), name)
            for module, pairs in ast.literal_eval(value).items() for name, _ in pairs}


def test_every_definition_is_reached():
    sources = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_references, sources + sorted((ROOT / "demos").glob("*.py"))))
    exempt = ALLOWED | WRAPPED | _traced()
    unreached = [
        f"{path.stem}.{qualified}"
        for path in sorted(SRC.glob("*.py"))
        for qualified, name in _definitions(ast.parse(path.read_text(), str(path)))
        if name not in used and (path.stem, qualified) not in exempt
    ]
    assert unreached == []


def test_scan_lists_functions_classes_and_methods():
    program = "def f(): pass\nclass C:\n    def __init__(self): pass\n    def m(self): pass\n"
    assert list(_definitions(ast.parse(program))) == [("f", "f"), ("C", "C"), ("C.m", "m")]


def test_public_names_resolve():
    assert [name for name in weylzeta.__all__ if not hasattr(weylzeta, name)] == []


# The per-weight definitions the spectrum engine is tested against, and the
# engine's pieces: a fault in one must not reach the other
DEFINITIONS = ["enumerate_dominant", "in_lattice", "allowable"]
ENGINE = {"_chains", "_columns", "_center_steps", "class_polynomial", "_zeta_series",
          "a1_series", "_sieve", "_strips", "graded_product", "_dirichlet_mul",
          "_dirichlet_pow", "_multiplicative_pow", "_sliced_mul", "_pair_loop"}


def test_definitions_share_no_code_with_the_engine():
    # the bodies of the definitions, and of every function of repdegrees
    # they call in turn, name none of the engine's pieces
    tree = ast.parse((SRC / "repdegrees.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert ENGINE <= functions.keys()  # a deleted piece leaves no stale name behind
    todo, seen, named = list(DEFINITIONS), set(), set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            names = set().union(*map(_names, functions[name].body))
            named |= names
            todo += sorted(names & functions.keys())
    assert sorted(named & ENGINE) == []
    assert {"dim_irrep", "_stripped", "_prime_divisors"} <= seen
