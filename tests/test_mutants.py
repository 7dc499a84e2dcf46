"""The mutation catalog stays in step with the code, without running a mutant."""

import ast
import os

from mutants import CATALOG, ROOT, unmatched


def test_every_old_text_matches_exactly_once():
    assert not unmatched()


def test_every_mutant_changes_its_text_and_names_defined_tests():
    assert len({name for name, *_ in CATALOG}) == len(CATALOG) >= 100
    for name, _, old, new, tests in CATALOG:
        assert old != new and tests, name
        for node_id in tests:
            path, _, function = node_id.partition("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            assert function in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, node_id
