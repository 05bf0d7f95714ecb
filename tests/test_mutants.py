"""The mutation catalogue stays applicable: each snippet is there once,
each named test exists. Running the mutants is `python tests/mutants.py`."""

import ast

import pytest

from mutants import MUTANTS, ROOT


def _defines(node_id: str) -> bool:
    """Whether the test file defines the class and function a pytest
    node id names; a parametrize suffix ``[...]`` is not checked."""
    path, *names = node_id.split("::")
    names[-1] = names[-1].split("[")[0]
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next((n for n in body if isinstance(n, (
            ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies(mutant):
    assert mutant.file.startswith("src/")
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests and all(map(_defines, mutant.tests))
