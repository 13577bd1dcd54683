from __future__ import annotations

import io
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `support` importable

from rjs import Bridge

REPO_ROOT = Path(__file__).resolve().parents[1]
PLUGINS = REPO_ROOT / "plugins"
SCRIPTS = REPO_ROOT / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"

# subprocesses (`python -m rjs.cli`) import rjs from this checkout too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture
def sample_plugin() -> Path:
    return PLUGINS / "sample.plugin"


@pytest.fixture
def math_plugin() -> Path:
    return PLUGINS / "math.plugin"


@pytest.fixture
def bridge():
    """A fresh bridge with a small worker pool, shut down afterwards."""
    b = Bridge(workers=4, diag=io.StringIO())
    yield b
    b.shutdown()


def manifest_text(**sections) -> str:
    """Build manifest JSON from keyword sections (tests read nicer this way)."""
    return json.dumps(sections)


@pytest.fixture
def mf():
    return manifest_text
