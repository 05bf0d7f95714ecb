"""The public API takes only what it reads, and imports only numpy.

The library counterpart of the CLI's unread-flag check: every parameter
of a module-level function named in a module's ``__all__`` must be read
somewhere in that function's body, and the total count of those
parameters is pinned, as the CLI's flag slots are. The package declares
numpy as its one dependency, so importing the CLI loads no other
third-party module.
"""

import ast
import subprocess
import sys
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


def _parameters(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    return [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                            a.vararg, a.kwarg) if p is not None]


def _unread_parameters(fn: ast.FunctionDef) -> list[str]:
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in _parameters(fn) if p not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_public_functions_read_every_parameter(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = {fn.name: _unread_parameters(fn)
              for fn in _public_functions(tree)}
    assert {name: p for name, p in unread.items() if p} == {}


def test_public_parameter_slots():
    # every parameter of every public function, the library's knob count;
    # a parameter added or removed anywhere changes it
    slots = sum(len(_parameters(fn)) for path in MODULES
                for fn in _public_functions(
                    ast.parse(path.read_text(encoding="utf-8"))))
    assert slots == 121


def test_guard_sees_an_unread_parameter():
    fn = ast.parse("def f(a, b, *c, d=1):\n    return a + d\n").body[0]
    assert _unread_parameters(fn) == ["b", "c"]


def test_cli_imports_no_third_party_module_but_numpy():
    probe = ("import sys; before = set(sys.modules); import kerrcomb.cli; "
             "print(*sorted({m.split('.')[0] "
             "for m in set(sys.modules) - before}))")
    src = str(Path(kerrcomb.__file__).parents[1])
    loaded = subprocess.run([sys.executable, "-c", probe], cwd=src,
                            capture_output=True, text=True, check=True,
                            timeout=60).stdout.split()
    third_party = set(loaded) - set(sys.stdlib_module_names) - {"kerrcomb"}
    assert third_party == {"numpy"}
