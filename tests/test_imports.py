"""Static checks on the imports and definitions of every module of the
package.

An imported name that nothing uses is dead code, and so is a definition
nothing outside the tests reaches: a module-level function, class or
constant that its module does not use and that no other module imports or
reads from it, a method that no attribute read can reach, a function
nested in a function that does not call it, or a dataclass field that no
attribute read loads.  A function that
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


def _package_classes():
    """Class name -> its family among the classes of the package: itself,
    its ancestors (whose methods it inherits) and its descendants (whose
    overrides an object of its type may run)."""
    bases = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}

    def ancestors(name):
        out = {name}
        for b in bases.get(name, ()):
            out |= ancestors(b)
        return out

    lines = {name: ancestors(name) & bases.keys() for name in bases}
    return {name: lines[name] | {d for d in bases if name in lines[d]} for name in bases}


class _MethodReads(ast.NodeVisitor):
    """The (receiver class or None, attribute, enclosing (class, method))
    of every attribute read of a tree, and (class, method) for every
    "Class.method" string.  The receiver is known when it is self or cls
    in a class, a class of the package, a call of one or of super(), or a
    name the enclosing function binds once, by a parameter annotated with a
    class of the package or by an assignment of a call of one; any other
    receiver is None."""

    def __init__(self, classes):
        self.classes = classes
        self.reads = []
        self.cls = None
        self.method = None
        self.types = {}

    def _class_of(self, expr):
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value if expr.value in self.classes else None
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls"):
                return self.cls
            if expr.id in self.classes:
                return expr.id
            return self.types.get(expr.id)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id == "super":
                return self.cls
            return expr.func.id if expr.func.id in self.classes else None
        return None

    def visit_ClassDef(self, node):
        outer = self.cls, self.method
        self.cls, self.method = node.name, None
        self.generic_visit(node)
        self.cls, self.method = outer

    def visit_FunctionDef(self, node):
        outer = self.method, self.types
        if self.method is None:
            self.method = (self.cls, node.name)
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        bound = {}
        for a in args:
            bound.setdefault(a.arg, []).append(self._class_of(a.annotation))
        for sub in ast.walk(node):
            targets = sub.targets if isinstance(sub, ast.Assign) else \
                [sub.target] if isinstance(sub, (ast.AnnAssign, ast.AugAssign, ast.For,
                                                 ast.comprehension, ast.NamedExpr)) else \
                [sub.optional_vars] if isinstance(sub, ast.withitem) and sub.optional_vars else []
            for t in targets:
                for name in ast.walk(t):
                    if isinstance(name, ast.Name):
                        bound.setdefault(name.id, []).append(
                            self._class_of(sub.value) if isinstance(sub, ast.Assign)
                            and t is name else None)
        # a name this function binds shadows the enclosing function's
        self.types = {**{k: v for k, v in self.types.items() if k not in bound},
                      **{name: kinds[0] for name, kinds in bound.items()
                         if len(kinds) == 1 and kinds[0] is not None}}
        self.generic_visit(node)
        self.method, self.types = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        self.reads.append((self._class_of(node.value), node.attr, self.method))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and DOTTED_NAME.fullmatch(node.value):
            parts = node.value.split(".")
            if len(parts) == 2 and parts[0] in self.classes:
                self.reads.append((parts[0], parts[1], None))


def _dead_methods(family):
    """path:line Class.method for each method of a class of the package
    that no read reaches: a read reaches C.m when its attribute is m, its
    receiver is unknown or of the family of C, and it lies outside C.m
    itself."""
    reads = {}  # attribute -> [(receiver class or None, enclosing method)]
    for path in USERS:
        visitor = _MethodReads(family)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        for owner, attr, where in visitor.reads:
            reads.setdefault(attr, []).append((owner, where))
    dead = []
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (node.name.startswith("__") and node.name.endswith("__")) \
                        and not any(where != (cls.name, node.name)
                                    and (owner is None or cls.name in family[owner])
                                    for owner, where in reads.get(node.name, ())):
                    dead.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}")
    return dead


def _dead_nested_definitions(tree, path):
    """path:line name for each function or class defined inside a function
    whose name that function does not read outside the definition."""
    dead = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(fn):
            if inner is fn or not isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            inside = set(ast.walk(inner))
            if not any(isinstance(n, ast.Name) and n.id == inner.name
                       and isinstance(n.ctx, ast.Load) and n not in inside
                       for n in ast.walk(fn)):
                dead.append(f"{path.name}:{inner.lineno} {inner.name}")
    return dead


def test_every_definition_is_referenced():
    """A module-level function, class or constant is used in another
    top-level statement of its own module, imported by name from that module
    or read as its attribute (mod.name), or named as (module, attribute) in
    perfbench/tracer.py; a bare name elsewhere does not count.  A method
    C.m is read as an attribute m of an object that may be of the family
    of C (receivers are resolved as _MethodReads states), or named as
    "C.m"; a bare name m does not count.  A function nested in a function
    is read by name in that function."""
    reached = set(_traced_attributes())
    for path in USERS:
        reached.update(_imported_by_name(ast.parse(path.read_text(), filename=str(path)), path))
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
        dead.extend(_dead_nested_definitions(tree, path))
    dead.extend(_dead_methods(_package_classes()))
    assert not dead, f"definitions nothing refers to: {dead}"


def _defaulted_parameters(tree):
    """(name, line, {parameter: positional index or None}) for each
    function and method of a tree with defaulted parameters; a method's
    index does not count self or cls, and a keyword-only parameter has
    None.  __init__ and __new__ are named after their class, since a call
    of the class reaches them."""
    for owner in ast.walk(tree):
        body = owner.body if isinstance(owner, (ast.Module, ast.ClassDef)) else []
        for fn in body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = 1 if isinstance(owner, ast.ClassDef) and not static else 0
            params = {a.arg: i - skip for i, a in enumerate(positional)
                      if i >= len(positional) - len(fn.args.defaults)}
            params.update((a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                                        fn.args.kw_defaults) if d is not None)
            name = owner.name if fn.name in ("__init__", "__new__") else fn.name
            if params:
                yield name, fn.lineno, params


def _calls(paths):
    """Callee name -> [(positional count, keyword names, unpacks)] for each
    call in the files, the callee named by its bare name or attribute;
    unpacks is whether the call passes *args or **kwargs."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, unpacks))
    return calls


def test_every_default_is_passed_by_program_code():
    """A defaulted parameter of a function or method of the package is
    passed, by position or keyword, by at least one call in the package,
    the demos or the benchmark harness: a default that only tests override
    is a knob nothing uses.  Calls are matched by bare name, and a call
    that unpacks *args or **kwargs passes every parameter; a function that
    no such call reaches is left to test_every_definition_is_referenced."""
    calls = _calls(USERS)
    unpassed = []
    for path in MODULES:
        for name, lineno, params in _defaulted_parameters(ast.parse(path.read_text())):
            sites = calls.get(name, [])
            unpassed.extend(
                f"{path.name}:{lineno} {name}({param})" for param, index in params.items()
                if sites and not any(unpacks or param in keywords
                                     or (index is not None and count > index)
                                     for count, keywords, unpacks in sites))
    assert not unpassed, f"defaults no program call overrides: {unpassed}"


def _dataclass_fields(tree):
    """(class, field, line) for each annotated field of each class of a tree
    decorated with @dataclass or @dataclass(...)."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield cls.name, stmt.target.id, stmt.lineno


def test_every_dataclass_field_is_read():
    """Each field of a dataclass of the package is read as an attribute
    (.field, loaded) somewhere in the package, the demos or the benchmark
    harness: a field that only tests read is stored for nothing.  Reads are
    matched by attribute name alone."""
    read = {node.attr for path in USERS
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{line} {cls}.{name}" for path in MODULES
              for cls, name, line in _dataclass_fields(ast.parse(path.read_text()))
              if name not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"
