"""The heap is the only writer of its own tables.

Objects, aliases, object storage and global values live in `Heap`; the
registry holds declarations only. This parses every runtime module and
fails on any store into, or `del` of, an item of an attribute with one
of those table names outside `heap.py`, and on a store of a global's
value anywhere in `heap.py` but `Heap.write_global`. Reading is allowed
anywhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (REPO_ROOT / "src" / "rjs").glob("*.py") if p.name != "heap.py")
HEAP_TABLES = {"globals", "storage", "objects", "aliases"}


def _targets(node: ast.AST) -> list[ast.expr]:
    match node:
        case ast.Assign(targets=targets) | ast.Delete(targets=targets):
            return targets
        case ast.AugAssign(target=target) | ast.AnnAssign(target=target):
            return [target]
    return []


def _unpacked(target: ast.expr) -> list[ast.expr]:
    """The stored-to expressions of a target: `a, *b.c[k]` unpacks, a subscript does not."""
    match target:
        case ast.Tuple(elts=elts) | ast.List(elts=elts):
            return [leaf for elt in elts for leaf in _unpacked(elt)]
        case ast.Starred(value=value):
            return _unpacked(value)
    return [target]


def _stores(tree: ast.AST, tables: set[str]) -> list[ast.Subscript]:
    return [
        leaf
        for node in ast.walk(tree)
        for target in _targets(node)
        for leaf in _unpacked(target)
        if isinstance(leaf, ast.Subscript) and isinstance(leaf.value, ast.Attribute)
        and leaf.value.attr in tables
    ]


def heap_table_stores(source: str, filename: str = "<source>") -> list[str]:
    """`file:line` of each store into or `del` of an item of a heap table."""
    return [f"{filename}:{leaf.lineno}" for leaf in _stores(ast.parse(source, filename), HEAP_TABLES)]


@pytest.mark.parametrize("line", [
    "heap.globals[decl.qualified] = decl.initial",
    "self.heap.objects[1].storage['x'] = v",
    "del heap.aliases[handle]",
    "obj.storage[name] += 1",
    "heap.globals[name]: int = 1",
    "a, *heap.globals[name] = 1, 2",
])
def test_the_lint_sees_each_kind_of_store(line):
    assert heap_table_stores(line) == ["<source>:1"]


@pytest.mark.parametrize("line", [
    "value = heap.globals[name]",
    "node.globals = {}",
    "globals()[name] = 1",
    "heap.globals.get(name)",
    "seen[heap.globals[name]] = True",
])
def test_the_lint_passes_reads_and_other_stores(line):
    assert heap_table_stores(line) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_heap_stores_into_its_tables(path):
    assert heap_table_stores(path.read_text(encoding="utf-8"), path.name) == []


def test_write_global_is_the_one_store_of_a_global_value():
    tree = ast.parse((REPO_ROOT / "src" / "rjs" / "heap.py").read_text(encoding="utf-8"))
    storing = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and _stores(fn, {"globals"})
    }
    assert storing == {"write_global"}
