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


def _attributes_read(tree, outside):
    """The attribute names read in ``tree``, except inside the node
    ``outside``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is outside:
            continue
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_method_is_read_by_the_engine_or_the_benchmark():
    # a public method or property that only the tests read is API that no
    # run of the engine reads.  Fields are not checked: names such as t, x,
    # h, times or d_pre are also attributes of other classes, so a read of
    # one would hide an unread other.
    package = SOURCES[0].parent
    readers = SOURCES + sorted((package.parents[1] / "benchmarks").glob("*.py"))
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in readers]
    unread = [f"{cls.name}.{fn.name}"
              for tree in trees[:len(SOURCES)] for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("_")
              and not any(fn.name in _attributes_read(t, fn) for t in trees)]
    assert unread == []
