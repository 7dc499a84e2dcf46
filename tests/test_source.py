"""Source hygiene of the package, checked on its syntax trees."""

import ast
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


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read by an ``ast.Name`` or ``ast.Attribute`` in tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _dead_definitions(modules: dict[str, ast.Module], readers: list[ast.Module], exported: set[str]) -> list[str]:
    """Definitions in modules that are not exported and that nothing reads outside their own body.

    A definition counts as read when its own name appears as an ``ast.Name``
    or ``ast.Attribute`` in modules or readers; a docstring mention is a
    string and does not count.
    """
    reads = sum((_reads(tree) for tree in [*modules.values(), *readers]), Counter())
    dead = []
    for module, tree in modules.items():
        for name, node in _definitions(tree):
            short = name.rpartition(".")[2]
            if short not in exported and reads[short] == _reads(node)[short]:
                dead.append("%s.%s" % (module, name))
    return dead


def test_dead_definitions_are_caught():
    source = (
        "def f():\n    return 1\n\n"
        "def g():\n    return g()\n\n"  # read only inside itself
        "class C:\n"
        "    def m(self):\n        return self.k\n\n"
        "    def k(self):\n        'Calls f and m.'\n\n"  # a docstring is no read
        "    def __eq__(self, o):\n        return f()\n"
    )
    package = {"pkg": ast.parse(source)}
    reader = ast.parse("import pkg\n\npkg.C().m()\n")
    assert _dead_definitions(package, [reader], set()) == ["pkg.g"]
    assert _dead_definitions(package, [], {"C", "g", "m"}) == []
    assert _dead_definitions(package, [], set()) == ["pkg.g", "pkg.C", "pkg.C.m"]


def test_every_definition_is_exported_or_read():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = PACKAGE.parents[1] / "perfbench"
    readers = [ast.parse(path.read_text()) for path in sorted(bench.glob("*.py"))]
    assert readers, "perfbench sources not found next to src/"
    dead = _dead_definitions(modules, readers, set(ksw.__all__))
    assert not dead, "not exported and never read: " + ", ".join(dead)
