"""Static checks on the imports and definitions of every module of the
package.

An imported name that nothing uses is dead code, and so is a definition
nothing outside the tests reaches: a module-level function, class or
constant that its module does not use and that no other module imports or
reads from it, or a method whose name nothing reads.  A function that
imports a module of the package hides a dependency that belongs at the top
of the module (there is no import cycle to break).
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


def _module_level_definitions(tree):
    """(name, line, top-level statement) for each function, class and
    constant the module defines at its top level, dunder names aside."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, stmt.lineno, stmt


def _imported_by_name(tree, path):
    """(module, name) for each name the file imports from a module of the
    package (from .mod import name, or from ctower.mod import name) or reads
    as an attribute of a module of the package it imports (mod.name after
    from . import mod, or from ctower import mod)."""
    modules = {}  # local name -> module of the package
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 1 and path.parent == PACKAGE:
                parts = ["ctower"] + [part for part in parts if part]
            elif node.level or parts[0] != "ctower":
                continue
            for alias in node.names:
                if len(parts) == 1:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    yield parts[1], alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            yield modules[node.value.id], node.attr


def _traced_attributes():
    """(module, attribute) for each pair perfbench/tracer.py names as two
    strings."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) == 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
            yield tuple(e.value for e in node.elts)


def test_every_definition_is_referenced():
    """A module-level function, class or constant is used in another
    top-level statement of its own module, imported by name from that module
    or read as its attribute (mod.name), or named as (module, attribute) in
    perfbench/tracer.py; a bare name elsewhere does not count.  A method's
    name must be read somewhere."""
    used = set()
    reached = set(_traced_attributes())
    for path in USERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= _referenced_names(tree)
        reached.update(_imported_by_name(tree, path))
    dead = []
    for path in MODULES:
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, lineno, stmt in _module_level_definitions(tree):
            in_module = any(isinstance(node, ast.Name) and node.id == name
                            and isinstance(node.ctx, ast.Load)
                            for other in tree.body if other is not stmt
                            for node in ast.walk(other))
            if not in_module and (module, name) not in reached:
                dead.append(f"{path.name}:{lineno} {name}")
        # methods and nested definitions: a bare name read anywhere counts
        dead.extend(f"{path.name}:{node.lineno} {node.name}" for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node not in tree.body
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in used)
    assert not dead, f"definitions nothing refers to: {dead}"
