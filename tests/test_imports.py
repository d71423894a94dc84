"""Static checks on the imports of every module of the package.

An imported name that nothing uses is dead code, and a function that imports
a module of the package hides a dependency that belongs at the top of the
module (there is no import cycle to break).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ctower"
MODULES = sorted(PACKAGE.glob("*.py"))


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
