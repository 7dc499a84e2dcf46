"""Source hygiene of the package, checked on its syntax trees."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import ksw

PACKAGE = Path(ksw.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that no expression of the module reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line) for name, line in bound.items() if name not in read]


def test_unused_imports_are_caught():
    tree = ast.parse("import os\nimport a.b\nfrom m import x as y, z\n\ndef f():\n    return a.b.c + z\n")
    assert _unused_imports(tree) == ["os (line 1)", "y (line 3)"]


def test_no_unused_module_imports():
    # __init__ imports to re-export
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert not unused, unused


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Module-level functions and classes, and the methods of those classes that are not dunders."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    out.append(("%s.%s" % (node.name, item.name), item))
    return out


def _reads(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often each name is read as an ``ast.Name`` and as an ``ast.Attribute`` in tree."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def _dead_definitions(
    modules: dict[str, ast.Module], readers: list[ast.Module], exported: set[str], namespaces: dict[str, dict]
) -> list[str]:
    """Definitions in modules that are not exported and that nothing reads outside their own body.

    A function or class counts as read when its name appears as an
    ``ast.Name`` or ``ast.Attribute`` in modules or readers; a method or
    property only as an ``ast.Attribute``, so a local variable of the same
    name keeps nothing alive, or when it overrides a method of a base of
    its class (looked up in the module's namespace in namespaces).  A
    docstring mention is a string and does not count.
    """
    names, attributes = Counter(), Counter()
    for tree in [*modules.values(), *readers]:
        tree_names, tree_attributes = _reads(tree)
        names += tree_names
        attributes += tree_attributes
    dead = []
    for module, tree in modules.items():
        for name, node in _definitions(tree):
            cls, _, short = name.rpartition(".")
            own_names, own_attributes = _reads(node)
            read = attributes[short] > own_attributes[short] or (not cls and names[short] > own_names[short])
            if cls and not read:
                read = any(short in vars(base) for base in namespaces[module][cls].__mro__[1:])
            if short not in exported and not read:
                dead.append("%s.%s" % (module, name))
    return dead


def test_dead_definitions_are_caught():
    source = (
        "def f():\n    n = 1\n    return n\n\n"  # a local n is no read of C.n
        "def g():\n    return g()\n\n"  # read only inside itself
        "class C:\n"
        "    def m(self):\n        return self.k\n\n"
        "    def k(self):\n        'Calls f and m.'\n\n"  # a docstring is no read
        "    def n(self):\n        return 0\n\n"
        "    def __eq__(self, o):\n        return f()\n\n"
        "class P(dict):\n"
        "    def get(self, key):\n        return 0\n"  # overrides dict.get
    )
    namespace: dict = {}
    exec(source, namespace)
    package, namespaces = {"pkg": ast.parse(source)}, {"pkg": namespace}
    reader = ast.parse("import pkg\n\npkg.C().m()\npkg.P()\n")
    assert _dead_definitions(package, [reader], set(), namespaces) == ["pkg.g", "pkg.C.n"]
    assert _dead_definitions(package, [], {"C", "g", "m", "n", "P"}, namespaces) == []
    assert _dead_definitions(package, [], set(), namespaces) == ["pkg.g", "pkg.C", "pkg.C.m", "pkg.C.n", "pkg.P"]


def test_every_definition_is_exported_or_read():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    namespaces = {stem: vars(importlib.import_module("ksw." + stem)) for stem in modules if stem != "__init__"}
    bench = PACKAGE.parents[1] / "perfbench"
    readers = [ast.parse(path.read_text()) for path in sorted(bench.glob("*.py"))]
    assert readers, "perfbench sources not found next to src/"
    dead = _dead_definitions(modules, readers, set(ksw.__all__), namespaces)
    assert not dead, "not exported and never read: " + ", ".join(dead)
