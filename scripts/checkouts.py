"""The source trees that run_memory.py and stage_memory.py measure side by
side, each in child processes that import that tree's connfp.

A tree is the root of a checkout (it holds src/connfp); the default is this
checkout. Not a script of its own: the two scripts import it (scripts/ is the
first entry of sys.path when either runs).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent


def source_trees(parser: argparse.ArgumentParser, trees) -> list[Path]:
    """The resolved roots given by --src, or this checkout; a parser error
    (exit 2) names the first one that holds no package."""
    resolved = [tree.resolve() for tree in trees or [ROOT]]
    for tree in resolved:
        if not (tree / "src" / "connfp" / "__init__.py").is_file():
            parser.error(f"no package at {tree / 'src' / 'connfp'}")
    return resolved


def tree_env(tree: Path) -> dict[str, str]:
    """This process's environment with tree's src first on PYTHONPATH, so
    that a child process imports that tree's connfp."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def child_failed(script: str, child: str, code: int, stderr: str) -> NoReturn:
    """Exit with a message naming the child that failed and the end of its
    stderr."""
    sys.exit(f"{script}: {child} exited {code}: {stderr.strip()[-500:]}")
