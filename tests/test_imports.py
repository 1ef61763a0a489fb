"""Static checks on the package source."""

import ast
from pathlib import Path

import connfp

SRC = Path(connfp.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_unused_import_is_detected():
    assert unused_imports("import os\nfrom a import b as c, d\nfrom __future__ import x\nd()") == [
        "os", "c"
    ]


def test_every_imported_name_is_read():
    # __init__.py imports only to re-export
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text("utf-8")))
    }
    assert unused == {}
