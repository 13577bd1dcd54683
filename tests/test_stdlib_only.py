"""The runtime imports nothing outside the standard library and itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "rjs").glob("*.py"))


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every absolute import in one file."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add((node.module or "").partition(".")[0])
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"model.py", "registry.py", "bridge.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_rjs_or_standard_library(path):
    outside = {
        name for name in imported_packages(path)
        if name != "rjs" and name not in sys.stdlib_module_names
    }
    assert outside == set()
