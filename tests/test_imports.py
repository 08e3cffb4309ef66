"""Every name a module of src/roadaccess imports is read somewhere in it.

A deletion tends to leave the imports of what it deleted behind; this
catches them. A name counts as read where it is loaded as a name, and also
where it appears in a string annotation, as names imported only under
TYPE_CHECKING do.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "roadaccess"


def _annotation_names(annotation: ast.expr) -> set[str]:
    """The names an annotation reads, those inside quoted parts included."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _annotation_names(ast.parse(node.value, mode="eval").body)
    return names


def unread_imports(source: str) -> list[str]:
    """The names source imports (apart from __future__) but never reads."""
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            read |= _annotation_names(node.returns)
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_unread_imports_finds_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "if TYPE_CHECKING:\n"
        "    from .a import Quoted, Unquoted, Never\n"
        "def f(x: Sequence['Quoted']) -> Unquoted:\n"
        "    return os.sep\n"
    )
    assert unread_imports(source) == ["osp", "Never"]
