"""Source hygiene of the package, checked on its syntax trees."""

import ast
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
