"""Static checks on the imports and definitions of every module of the
package.

An imported name that nothing uses is dead code, and so is a function,
method or class whose name nothing outside the tests refers to.  A function that imports a
module of the package hides a dependency that belongs at the top of the
module (there is no import cycle to break).
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ctower"
MODULES = sorted(PACKAGE.glob("*.py"))
# where a definition of the package may be used: the package itself, the
# demos and the benchmark harness.  A definition that only tests call is
# dead program code; an oracle belongs in tests/ (zpk_reference.py,
# carlitz_reference.py)
USERS = [path for folder in (PACKAGE, ROOT / "demos", ROOT / "perfbench")
         for path in sorted(folder.glob("*.py"))]
DOTTED_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _is_package_import(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "ctower"
    return any(alias.name.split(".")[0] == "ctower" for alias in node.names)


def _bound_names(node):
    for alias in node.names:
        if alias.name == "*":
            continue
        yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imported_names_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            unused.extend(f"{name} (line {node.lineno})"
                          for name in _bound_names(node) if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_package_imports_in_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local.extend(f"{fn.name} (line {node.lineno})" for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))
                         and _is_package_import(node))
    assert not local, f"{path.name}: package imports inside functions {local}"


def _referenced_names(tree):
    """Every name the tree reads: identifiers, attributes, and the parts of
    string constants that are dotted names (perfbench/tracer.py names the
    functions it wraps as ("module", "Class.method") strings)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED_NAME.fullmatch(node.value):
            names.update(node.value.split("."))
    return names


def test_every_definition_is_referenced():
    used = set()
    for path in USERS:
        used |= _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    dead = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and \
                    not (node.name.startswith("__") and node.name.endswith("__")) and \
                    node.name not in used:
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, f"definitions nothing refers to: {dead}"
