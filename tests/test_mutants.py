"""The entries of ``tests/mutants.py`` stay current and sound: each snippet
occurs exactly once in its file, its replacement differs from it and leaves
the file parsing, and each test it names is defined there.  So no entry
counts as killed because its mutated copy raises a ``SyntaxError``."""

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
    assert mutant.replacement != mutant.snippet
    ast.parse(text.replace(mutant.snippet, mutant.replacement))
    for test in mutant.tests:
        path, *names = test.split("::")
        assert names and names[-1].split("[")[0] in _functions(path), test
