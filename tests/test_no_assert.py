"""Invariants under `python -O`: the package raises typed errors, never asserts."""

import ast
from pathlib import Path

import gfano

PACKAGE = Path(gfano.__file__).parent


def test_no_assert_statement_in_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under python -O: {found}"
