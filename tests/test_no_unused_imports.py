"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import gfano

PACKAGE = Path(gfano.__file__).parent


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of each imported name that no other node reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom math import gcd, lcm as l\nl(os.sep)\n")
    assert unused_imports(tree) == [(3, "gcd")]


def test_no_unused_import_in_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line} {name}"
        for path in sources
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"imported but never used: {found}"
