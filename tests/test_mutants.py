"""The entries of ``tests/mutants.py`` stay current: each snippet occurs
exactly once in its file, and each test it names is defined there."""

from __future__ import annotations

import ast

import pytest

from mutants import MUTANTS, ROOT


def _functions(path: str) -> set:
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_entry_names_a_unique_snippet_and_defined_tests(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    for test in mutant.tests:
        path, *names = test.split("::")
        assert names and names[-1].split("[")[0] in _functions(path), test
