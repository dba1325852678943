"""Rules for the engine's source code itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "execlab")
                 .glob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_runtime_code(path):
    # asserts vanish under python -O: runtime checks must raise instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def _read_names(path):
    """The names ``path`` reads, as an ``ast.Name`` or an ``ast.Attribute``;
    a top-level function or class does not count as reading its own name."""
    names = set()
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names.discard(own)
    return names


def test_every_export_is_read_by_the_engine_or_the_benchmark():
    # an export that only the tests call is API that no run of the engine
    # reads: delete it, or move it next to its users
    package = SOURCES[0].parent
    init = ast.parse((package / "__init__.py").read_text())
    exports = {alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    readers = [p for p in SOURCES if p.name != "__init__.py"]
    readers += sorted((package.parents[1] / "benchmarks").glob("*.py"))
    read = set().union(*map(_read_names, readers))
    assert exports
    assert sorted(exports - read) == []
