"""The public API takes only what it reads.

The library counterpart of the CLI's unread-flag check: every parameter
of a module-level function named in a module's ``__all__`` must be read
somewhere in that function's body.
"""

import ast
from pathlib import Path

import pytest

import kerrcomb

MODULES = sorted(Path(kerrcomb.__file__).parent.glob("*.py"))


def _public_functions(tree: ast.Module):
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in exported]


def _unread_parameters(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                              a.vararg, a.kwarg) if p is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in params if p not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_public_functions_read_every_parameter(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = {fn.name: _unread_parameters(fn)
              for fn in _public_functions(tree)}
    assert {name: p for name, p in unread.items() if p} == {}


def test_guard_sees_an_unread_parameter():
    fn = ast.parse("def f(a, b, *c, d=1):\n    return a + d\n").body[0]
    assert _unread_parameters(fn) == ["b", "c"]
