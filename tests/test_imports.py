"""Every name a package module or test module imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule.  The package's
``__init__.py`` is skipped because its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import markovnorm

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


@pytest.mark.parametrize("path", PACKAGE + TESTS, ids=lambda p: (
    p.name if p in PACKAGE else f"tests/{p.name}"))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
