"""Every module-level import in the package is used, every import is at
module level, and every public name is read.

No linter is installed, so this walks each module's syntax tree: a name
bound by a top-level import must be read somewhere in the module.
``__init__.py`` is skipped there because its imports are the public API; each
name it exports must be read by the package itself, the benchmark or the
acceptance suite, so nothing is exported only for its own tests, and so
must every public method and property of the classes it exports and every
public function, class and constant a module defines at its top level.
Every private function, class, constant and method must be read by the
package itself, so no helper outlives its last caller.  No module imports
inside a function or class: the package has no import cycle for such an
import to break.

numpy is the only declared dependency, and pytest and hypothesis the only
test dependencies, so the package imports nothing but the standard library
and numpy, and the tests nothing more than those and pytest and hypothesis.
scipy is installed in some environments, so nothing else would catch a
test that imports it.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ewgame"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = (MODULES + sorted((ROOT / "ewbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == ["os", "field"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def exported_names(source: str) -> list[str]:
    return [a.asname or a.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def read_names(source: str) -> set[str]:
    """Names loaded, bare or as an attribute; binding a name is no read."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_read_names_sees_names_and_attributes():
    source = "def f(x):\n    return ew.g(x) + h\nclass C:\n    pass\nK = 1\n"
    assert read_names(source) == {"ew", "g", "x", "h"}


def test_public_names_are_read():
    read = set().union(*(read_names(p.read_text()) for p in READERS))
    exported = exported_names((PACKAGE / "__init__.py").read_text())
    assert exported and [name for name in exported if name not in read] == []


def top_level_names(source: str) -> list[str]:
    """Functions, classes and constants bound at the top level of source."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def defined_names(source: str) -> list[str]:
    """Public functions, classes and constants bound at the top level of
    source."""
    return [name for name in top_level_names(source) if not name.startswith("_")]


def private_names(source: str) -> list[str]:
    """Private functions, classes and constants bound at the top level of
    source, and the private methods of its classes; dunder names, which
    Python calls, are left out."""
    methods = [item.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [name for name in top_level_names(source) + methods
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def test_private_names_flag_the_unread_helper():
    source = ("__version__ = '1'\n_LIMIT = 2\n_cache: dict = {}\n"
              "def _read():\n    return _LIMIT + len(_cache)\n"
              "def _unread():\n    return _read()\n"
              "class _Box:\n    def __init__(self):\n        self._n = 0\n"
              "    def _size(self):\n        return self._n\n"
              "def public():\n    return _Box()._size()\n")
    private = private_names(source)
    assert private == ["_LIMIT", "_cache", "_read", "_unread", "_Box", "_size"]
    assert [name for name in private if name not in read_names(source)] == ["_unread"]


def test_private_names_are_read_by_the_package():
    # tests and the benchmark do not count: a helper only they call is dead
    modules = sorted(PACKAGE.glob("*.py"))
    read = set().union(*(read_names(p.read_text()) for p in modules))
    private = [f"{p.stem}.{name}" for p in modules for name in private_names(p.read_text())]
    assert private and [name for name in private if name.split(".")[1] not in read] == []


def test_defined_names_flag_the_unread_function():
    source = ("LIMIT = 2\n_cache = {}\nA, B = 1, 2\nSIZE: int = 3\n"
              "def read():\n    return LIMIT + A + B + SIZE\n"
              "def unread():\n    return read()\nclass Used:\n    pass\nUsed()\n")
    defined = defined_names(source)
    assert defined == ["LIMIT", "A", "B", "SIZE", "read", "unread", "Used"]
    assert [name for name in defined if name not in read_names(source)] == ["unread"]


def test_module_names_are_read():
    # a module-level name only tests read is test-only API as well; the
    # module's own reads count, so a helper its functions call is read
    read = set().union(*(read_names(p.read_text()) for p in READERS))
    defined = [f"{p.stem}.{name}" for p in MODULES for name in defined_names(p.read_text())]
    assert defined and [name for name in defined if name.split(".")[1] not in read] == []


def public_members(source: str, classes) -> list[str]:
    """Public methods and properties, as class.name, of the named classes
    defined at the top level of source."""
    return [f"{node.name}.{item.name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and node.name in classes
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def read_attributes(source: str) -> set[str]:
    """Names read as an attribute (x.name); a bare name does not count, so
    a local variable cannot stand in for a read of a member."""
    return {n.attr for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)}


def test_members_and_attributes_are_told_apart():
    source = ("class C:\n    @property\n    def p(self):\n        return self._q()\n"
              "    def _q(self):\n        labels = 1\n        return labels\n"
              "    @classmethod\n    def make(cls):\n        return cls()\n"
              "class D:\n    def r(self):\n        return ew.C.make().p\n")
    assert public_members(source, {"C"}) == ["C.p", "C.make"]
    assert read_attributes(source) == {"_q", "C", "make", "p"}


def test_public_members_are_read():
    # a member only tests read is test-only API, like a name only tests import;
    # members are matched by name, so one read covers every class that has it
    exported = set(exported_names((PACKAGE / "__init__.py").read_text()))
    members = [m for p in MODULES for m in public_members(p.read_text(), exported)]
    read = set().union(*(read_attributes(p.read_text()) for p in READERS))
    assert members and [m for m in members if m.split(".")[1] not in read] == []


def nested_imports(source: str) -> list[int]:
    """Line numbers of the imports made inside a function or class."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted({node.lineno for scope in ast.walk(ast.parse(source))
                   if isinstance(scope, scopes) for node in ast.walk(scope)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_checker_finds_imports_in_functions_and_classes():
    source = ("import os\ndef f():\n    import json\n    def g():\n"
              "        from re import match\nclass C:\n    import math\n"
              "async def h():\n    import sys\n")
    assert nested_imports(source) == [3, 5, 7, 9]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    assert nested_imports(path.read_text()) == []


# ---------------------------------------------------------------------------
# Declared dependencies only
# ---------------------------------------------------------------------------

STDLIB = frozenset(sys.stdlib_module_names)
PACKAGE_ALLOWED = STDLIB | {"numpy"}
TEST_ALLOWED = PACKAGE_ALLOWED | {"pytest", "hypothesis", "ewgame"} | {p.stem for p in TESTS}


def imported_roots(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in source; relative
    imports (``from . import x``) stay inside the package and are left out."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_checker_sees_every_absolute_import():
    source = ("import os.path\nfrom . import qcore\nfrom .game import run_game\n"
              "def f():\n    import scipy.linalg\n    from numpy import linalg\n")
    assert imported_roots(source) == {"os", "scipy", "numpy"}
    assert imported_roots(source) - PACKAGE_ALLOWED == {"scipy"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    assert sorted(imported_roots(path.read_text()) - PACKAGE_ALLOWED) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_tests_import_only_declared_dependencies(path):
    assert sorted(imported_roots(path.read_text()) - TEST_ALLOWED) == []
