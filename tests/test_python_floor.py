"""The runtime parses under the oldest Python that pyproject.toml admits.

`ast.parse(feature_version=...)` rejects grammar newer than that version
(`except*`, for one). It checks syntax only, so the module-level regular
expressions are checked apart: atomic groups and possessive quantifiers
compile only from Python 3.11. Any other newer library feature (a
dataclass option, say) shows only in a run, so when an interpreter of the
oldest version is on PATH, the demo script runs under it and must print
what it prints under the current one.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO_ROOT / "src" / "rjs").glob("*.py"))


def oldest_python() -> tuple[int, int]:
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found is not None, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_floor_is_declared():
    assert oldest_python() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_under_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest_python())


#: regular-expression constructs that Python 3.10's `re` rejects
NEWER_REGEX_OPS = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def regex_ops(parsed) -> set[str]:
    """Names of every opcode in a parsed pattern, nested groups included."""
    found: set[str] = set()
    for item in parsed:
        if isinstance(item, tuple) and len(item) == 2 and hasattr(item[0], "name"):
            found.add(item[0].name)
            item = item[1]
        if isinstance(item, (list, tuple)) or hasattr(item, "data"):
            found |= regex_ops(item.data if hasattr(item, "data") else item)
    return found


def test_regex_ops_sees_nested_constructs():
    parser = pytest.importorskip("re._parser")  # 3.10 fails such patterns at import
    assert regex_ops(parser.parse(r"(?:x|(?>a)b++)")) >= NEWER_REGEX_OPS


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_patterns_compile_under_the_oldest_python(path):
    parser = pytest.importorskip("re._parser")
    module = importlib.import_module(f"rjs.{path.stem}")
    for name, value in vars(module).items():
        if isinstance(value, re.Pattern):
            used = regex_ops(parser.parse(value.pattern, value.flags)) & NEWER_REGEX_OPS
            assert not used, f"{path.name}: {name} uses {sorted(used)}"


DEMO_RUN = ["-m", "rjs.cli", "run", "scripts/demo.rjs", "--plugin", "plugins/sample.plugin"]


def run_under(python: str, *args: str) -> subprocess.CompletedProcess:
    major, minor = oldest_python()
    # a pyenv shim picks its interpreter by PYENV_VERSION; any other ignores it
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYENV_VERSION": f"{major}.{minor}"}
    return subprocess.run([python, *args], cwd=REPO_ROOT, env=env, capture_output=True, text=True,
                          timeout=120)


def test_the_demo_runs_the_same_under_the_oldest_python():
    major, minor = oldest_python()
    python = shutil.which(f"python{major}.{minor}")
    if python is None:
        pytest.skip(f"no python{major}.{minor} on PATH")
    probe = run_under(python, "-c", "import sys; print(*sys.version_info[:2])")
    if probe.returncode != 0 or probe.stdout.split() != [str(major), str(minor)]:
        pytest.skip(f"python{major}.{minor} on PATH does not start: {probe.stderr.strip()[:200]}")
    oldest, current = run_under(python, *DEMO_RUN), run_under(sys.executable, *DEMO_RUN)
    assert current.returncode == 0 and current.stdout, current.stderr
    assert (oldest.stdout, oldest.returncode) == (current.stdout, current.returncode), oldest.stderr
