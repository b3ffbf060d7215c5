"""Every name a package module or test module imports is used in that module,
every private module-level name of the package is referred to, every
defaulted parameter of a package function is passed by some package call,
norm_real's tolerance floor is written once, every precondition message
of conjectures is formatted only when it is raised, and only the cone map
words the zero-direction error.

A stdlib-only stand-in for a linter's unused-import rule.  The package's
``__init__.py`` is skipped there because its imports are the public
re-exports.  The second check keeps helpers that no code calls any more
from staying behind, the third options that only tests set.  The fourth
keeps the floor from forking again, the fifth keeps passing checks from
paying for the text of their failure, and the sixth keeps a second cone
map, with a message of its own, from coming back.
"""

import ast
import re
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


def options_without_caller(sources: dict[str, str]) -> list[str]:
    """module.function(parameter) for each defaulted parameter of a
    module-level function that no call in sources (module name -> source)
    passes, by keyword or by position; calls are matched by name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    found = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            options = [(k, arg.arg) for k, arg in enumerate(positional) if k >= first]
            options += [(None, arg.arg) for arg, default in
                        zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                        if default is not None]
            mine = [c for c in calls if fn.name == getattr(c.func, "id",
                                                           getattr(c.func, "attr", None))]
            found += [f"{module}.{fn.name}({name})" for k, name in options
                      if not any(name in {kw.arg for kw in c.keywords}
                                 or k is not None and len(c.args) > k for c in mine)]
    return found


def test_checker_flags_an_option_without_a_caller():
    sources = {"a": "def f(x, y=1, z=2, *, w=3):\n    return x\n",
               "b": "from .a import f\nf(0, 5)\nb.f(0, w=4)\n"}
    assert options_without_caller(sources) == ["a.f(z)"]


def test_every_option_has_a_package_caller():
    package = Path(markovnorm.__file__).parent.glob("*.py")
    found = options_without_caller({p.stem: p.read_text(encoding="utf-8")
                                    for p in package})
    # main is the entry point: tests and the benchmark pass argv, the
    # package's own entry calls it with none.
    assert [name for name in found if name != "cli.main(argv)"] == []


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


def zero_vector_messages(source: str) -> list[str]:
    """The innermost function around each error message in source that
    speaks of a zero vector, with the word "zero" or "nonzero".  An error
    message is the text of a call to _require or to a name ending in Error."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = ast.unparse(child.func).split(".")[-1]
                texts = [n.value for n in ast.walk(child)
                         if isinstance(n, ast.Constant) and isinstance(n.value, str)]
                if (name == "_require" or name.endswith("Error")) and any(
                        re.search(r"\b(non)?zero\b", t, re.IGNORECASE) for t in texts):
                    found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_flags_a_zero_vector_message():
    source = ('def f(v):\n    raise ValueError("cannot map the zero vector")\n'
              'def g(v):\n    _require(v != (0, 0), "v must be nonzero, got %r", v)\n'
              'def h(v):\n    def inner():\n        return errors.Error(f"{v} is Zero")\n'
              '    raise inner()\n'
              'def k(v):\n    print("zero")\n    raise ValueError("v must be positive")\n'
              'E = OutOfRangeError("a zeroth row")\n')
    assert zero_vector_messages(source) == ["f", "g", "inner"]


def test_only_reduced_words_the_zero_direction_error():
    # _reduced is the one cone map, so every norm path words the zero
    # direction the same.  The CLI's message names its flag.
    package = sorted(Path(markovnorm.__file__).parent.glob("*.py"))
    assert [(p.name, where) for p in package
            for where in zero_vector_messages(p.read_text(encoding="utf-8"))] == [
        ("cli.py", "cmd_ball"), ("norm.py", "_reduced")]


def preformatted_requires(source: str) -> list[int]:
    """Lines of the _require calls in source whose message is not a plain
    string literal whose placeholders take exactly the arguments passed
    after it: an f-string, text formatted before the call, or a mismatch
    that would surface only when the check fails."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "_require"):
            continue
        message = node.args[1] if len(node.args) > 1 else None
        try:
            message.value % ((0,) * (len(node.args) - 2))
        except (AttributeError, TypeError, ValueError):
            found.append(node.lineno)
    return found


def test_checker_flags_a_preformatted_message():
    source = ('_require(ok, f"got {x}")\n_require(ok, "got %r" % x)\n'
              '_require(ok, "got {}".format(x))\n_require(ok, "got %s")\n'
              '_require(ok, "got %s", x, y)\n_require(ok)\n'
              '_require(ok, "got %s or %r", x, y)\n_require(ok, "plain")\n')
    assert preformatted_requires(source) == [1, 2, 3, 4, 5, 6]


def test_require_messages_are_formatted_when_raised():
    package = sorted(Path(markovnorm.__file__).parent.glob("*.py"))
    assert [(p.name, line) for p in package
            for line in preformatted_requires(p.read_text(encoding="utf-8"))] == []


@pytest.mark.parametrize("path", PACKAGE + TESTS, ids=lambda p: (
    p.name if p in PACKAGE else f"tests/{p.name}"))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
