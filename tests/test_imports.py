"""Every name a package module or test module imports is used in that module,
every private module-level name of the package is referred to, and
norm_real's tolerance floor is written once.

A stdlib-only stand-in for a linter's unused-import rule.  The package's
``__init__.py`` is skipped there because its imports are the public
re-exports.  The second check keeps helpers that no code calls any more
from staying behind.  The third keeps the floor from forking again.
"""

import ast
from pathlib import Path

import pytest

import markovnorm
from markovnorm.norm import _TOL_MIN

PACKAGE = sorted(p for p in Path(markovnorm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import math\nimport sys\nsys.exit()\n") == ["math (line 1)"]
    assert unused_imports("from typing import Iterator as It\nx: It\n") == []


def _defines(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _refers(stmt) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """module.name for each module-level _name that no other statement of
    its module refers to and no other module imports, of the modules in
    sources (module name -> source)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {(node.module, alias.name) for tree in trees.values()
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            elsewhere = set().union(*(_refers(s) for s in tree.body if s is not stmt))
            found += [f"{module}.{name}" for name in _defines(stmt)
                      if name.startswith("_") and not name.startswith("__")
                      and name not in elsewhere and (module, name) not in imported]
    return found


def test_checker_flags_an_unreferenced_helper():
    sources = {"a": "def _f(n):\n    return _f(n - 1)\n_G = 1\n_H = 2\nprint(_G)\n",
               "b": "from .a import _H\n"}
    assert unreferenced_helpers(sources) == ["a._f"]


def test_package_refers_to_every_helper():
    package = Path(markovnorm.__file__).parent.glob("*.py")
    assert unreferenced_helpers({p.stem: p.read_text(encoding="utf-8")
                                 for p in package}) == []


def floor_literals(source: str) -> list[tuple[int, bool]]:
    """(line, whether it is the value of an assignment to _TOL_MIN) for each
    float literal 1e-12 in source."""
    tree = ast.parse(source)
    defining = {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Assign)
                and [ast.unparse(t) for t in stmt.targets] == ["_TOL_MIN"]
                for node in ast.walk(stmt.value)}
    return [(node.lineno, id(node) in defining) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and node.value == 1e-12]


def test_checker_finds_every_floor_literal():
    source = "_TOL_MIN = 1e-12\nx = 1e-12\ny = 1.0E-12\nz = '1e-12'\nw = 1e-9\n"
    assert floor_literals(source) == [(1, True), (2, False), (3, False)]


def test_tol_floor_is_written_once():
    # norm._TOL_MIN is norm_real's floor on tol: norm_real, the refinement
    # in conjectures and the CLI's --tol rule all read it from there.
    assert _TOL_MIN == 1e-12
    package = sorted(Path(markovnorm.__file__).parent.glob("*.py"))
    assert [(p.name, defines) for p in package
            for _, defines in floor_literals(p.read_text(encoding="utf-8"))] == [
        ("norm.py", True)]


@pytest.mark.parametrize("path", PACKAGE + TESTS, ids=lambda p: (
    p.name if p in PACKAGE else f"tests/{p.name}"))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
