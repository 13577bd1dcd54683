"""The script front end's pinned outcomes, checked without pytest.

`golden/script_outcomes.json` holds, for each source that
`support.random_script_sources(SEED, COUNT)` draws, what `parse` gives:
the error class, `line:col` and message, or the canonical rendering of
the program with a digest of every node's class and position in
preorder. Nothing regenerates it: an outcome that moves on purpose is
edited by hand, and CHANGES.md says why.

Run as a script, with `src` on `PYTHONPATH`, it exits 0 when every
outcome holds and 1 with the first few that moved otherwise:

    PYTHONPATH=src python3 tests/script_pin.py

so interpreters without pytest check the same pin
(`test_script_outcomes.py` runs it under each one on PATH).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from support import random_script_sources

from rjs.errors import RjsError
from rjs.script import parse, pretty

PIN = Path(__file__).resolve().parent / "golden" / "script_outcomes.json"
SEED = 7
COUNT = 3000


def preorder(node):
    """(class name, pos) of `node` and then of each child node, in field order."""
    yield type(node).__name__, node.pos
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(child):
                yield from preorder(child)


def outcome(source: str) -> str:
    try:
        program = parse(source)
    except RjsError as exc:
        return f"{type(exc).__name__} {exc.line}:{exc.col} {exc.args[0]}"
    nodes = [entry for stmt in program for entry in preorder(stmt)]
    return f"{pretty(program)}# {hashlib.sha256(repr(nodes).encode()).hexdigest()[:16]}"


def moved() -> list[str]:
    """One line per source whose outcome is not the pinned one."""
    pin = json.loads(PIN.read_text(encoding="utf-8"))
    sources = random_script_sources(SEED, COUNT)
    assert len(pin) == COUNT
    return [f"source {i} {source!r}\n  pinned: {pin[i]!r}\n  now:    {got!r}"
            for i, source in enumerate(sources) if (got := outcome(source)) != pin[i]]


if __name__ == "__main__":
    faults = moved()
    print(f"{len(faults)} of {COUNT} outcome(s) moved", *faults[:5], sep="\n")
    sys.exit(1 if faults else 0)
