"""Merge outcomes pinned: which fault a merge finds first, and that a failed
merge writes nothing.

`golden/merge_outcomes.json` holds, for seeded sessions of four texts from
`support.random_manifest_texts` folded into one registry (`merge` and
`eval_macro` in turn), what each step gives: the error class and message,
or the version and a digest of everything the registry exposes. The small
name pools of the generator make later texts collide with earlier ones,
so the pin sees the merge-time rules fire in combination and in order.
Nothing regenerates it: an outcome that moves on purpose is edited by
hand, and CHANGES.md says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from conftest import GOLDEN
from support import random_manifest_texts

from rjs import Heap, Registry, i64
from rjs.errors import ConflictError, RjsError
from rjs.registry import eval_macro, merge, parse_manifest
from rjs.repl import render_tree

PIN = GOLDEN / "merge_outcomes.json"
SESSIONS = 600
TEXTS_PER_SESSION = 4


def state_digest(registry: Registry, heap: Heap) -> str:
    """The tree, declaration order, enum tables and this heap's global values."""
    state = (render_tree(registry), list(registry.order), sorted(registry.enums.items()),
             sorted(heap.globals.items()))
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


def session_outcomes(seed: int) -> list[str]:
    """Each step's outcome; a step that fails before bumping the version must
    leave the registry and the heap exactly as it found them."""
    registry = Registry()
    heap = Heap(registry)
    outcomes = []
    for step, text in enumerate(random_manifest_texts(seed, TEXTS_PER_SESSION)):
        before = (registry.version, state_digest(registry, heap))
        try:
            if step % 2 == 0:
                merge(registry, parse_manifest(text), heap)
            else:
                eval_macro(registry, heap, text)
        except RjsError as exc:
            if registry.version == before[0]:
                assert state_digest(registry, heap) == before[1], f"session {seed} step {step} wrote"
            outcomes.append(f"{type(exc).__name__}: {exc}")
        else:
            outcomes.append(f"v{registry.version} {state_digest(registry, heap)}")
    return outcomes


def test_every_pinned_session_keeps_its_outcomes():
    pin = json.loads(PIN.read_text(encoding="utf-8"))
    assert len(pin) == SESSIONS
    moved = [
        f"session {seed}\n  pinned: {pin[seed]}\n  now:    {got}"
        for seed in range(SESSIONS)
        if (got := session_outcomes(seed)) != pin[seed]
    ]
    assert not moved, f"{len(moved)} session(s) moved:\n" + "\n".join(moved[:5])


def test_a_merge_that_fails_on_its_last_global_writes_nothing():
    registry = Registry()
    heap = Heap(registry)
    merge(registry, parse_manifest(json.dumps({
        "types": [{"name": "T", "methods": [{"name": "m", "params": ["i64"]}]}],
        "globals": [{"name": "h", "kind": "i64", "initial": 2}],
    })), heap)
    extended = registry.lookup("T")
    methods = extended.methods
    before = (render_tree(registry), dict(registry.order), dict(registry.enums), registry.version)
    failing = parse_manifest(json.dumps({
        "namespaces": ["N"],
        "enums": {"E": {"a": 1}},
        "types": [{"name": "U", "namespace": "N", "fields": [{"name": "e", "kind": {"enum": "E"},
                                                           "initial": "a"}]},
                  {"name": "T", "methods": [{"name": "m", "params": ["f64"]},
                                            {"name": "n", "params": []}]}],
        "functions": [{"name": "f", "namespace": "N", "params": []}],
        "globals": [{"name": "g", "namespace": "N", "kind": "i64", "initial": 1},
                    {"name": "h", "kind": "f64"}],
    }))
    with pytest.raises(ConflictError) as caught:
        merge(registry, failing, heap)
    assert str(caught.value) == "'h' already declared as a global"
    assert (render_tree(registry), dict(registry.order), dict(registry.enums), registry.version) == before
    assert extended.methods is methods and list(methods) == ["m"] and len(methods["m"]) == 1
    assert heap.globals == {"h": i64(2)}
