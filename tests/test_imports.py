"""Every name a module of src/roadaccess imports is read somewhere in it,
and every function, class and method it defines is read by some module.

A deletion tends to leave the imports of what it deleted behind, and a
caller's deletion the callee; this catches both. A name counts as read
where it is loaded as a name, and also where it appears in a string
annotation, as names imported only under TYPE_CHECKING do; a method or
attribute counts as read where it is loaded as an attribute of anything.
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


def _read_names(tree: ast.Module) -> set[str]:
    """The names tree loads, those in its annotations included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            read |= _annotation_names(node.returns)
    return read


def unread_imports(source: str) -> list[str]:
    """The names source imports (apart from __future__) but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = _read_names(tree)
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_unread_imports_finds_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp, re\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "if TYPE_CHECKING:\n"
        "    from .a import Quoted, Unquoted, Never\n"
        "def f(x: Sequence['Quoted']) -> Unquoted:\n"
        "    return os.sep\n"
        "re = None\n"
    )
    assert unread_imports(source) == ["osp", "re", "Never"]


# Defined in src/roadaccess and read by no module there: an API the README
# documents, and what only the benchmark's traced re-enactment
# (perfbench/traced.py) calls. ROADMAP item 2 deletes the latter once the
# benchmark reads the CLI's own stats, and must shrink this set as it does.
DOCUMENTED_API = {"synth.generate"}
TRACED_ONLY = {
    "geometry.segment_intersects_polygon",
    "metrics.compute_all",
    "metrics.connectors_for",
    "outputs.write_connectors_geojson",
    "projection.project_forward",
    "projection.project_inverse",
    "spatial_index.SegmentIndex.nearest",
    "spatial_index.PolygonIndex.candidates_for_segment",
}


def _definitions(module: str, tree: ast.Module) -> list[str]:
    """module.name of each top-level function and class, and
    module.Class.name of each method whose name is not a dunder."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(f"{module}.{node.name}")
        if isinstance(node, ast.ClassDef):
            names += [
                f"{module}.{node.name}.{m.name}"
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return names


def _read_attributes(tree: ast.Module) -> set[str]:
    """The attribute names tree loads, of any object."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_definitions(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """(every definition, those whose name no module reads) of the modules
    sources maps by name to their text."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*(_read_names(t) | _read_attributes(t) for t in trees.values()))
    defined = [name for module, tree in trees.items() for name in _definitions(module, tree)]
    return defined, [name for name in defined if name.rsplit(".", 1)[1] not in read]


def test_every_definition_is_read_by_some_module():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    defined, unread = unread_definitions(sources)
    exempt = DOCUMENTED_API | TRACED_ONLY
    assert [name for name in unread if name not in exempt] == []
    # a deleted definition leaves its set too
    assert sorted(exempt - set(defined)) == []


def test_unread_definitions_finds_what_nothing_reads():
    sources = {
        "a": (
            "class A:\n"
            "    def used(self): ...\n"
            "    def unused(self): ...\n"
            "    def __len__(self): return 0\n"
            "def f() -> 'A': ...\n"
            "def g(): ...\n"
            "def h(): ...\n"
        ),
        "b": "from .a import f\nf().used()\nh = 1\n",
    }
    defined, unread = unread_definitions(sources)
    assert defined == ["a.A", "a.A.used", "a.A.unused", "a.f", "a.g", "a.h"]
    assert unread == ["a.A.unused", "a.g", "a.h"]
