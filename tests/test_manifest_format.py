"""The manifest front end pinned: what each text parses to, and what the
serializer refuses to write.

`golden/manifest_outcomes.json` holds, for every text that `support`
generates (two faults in one object of `PIN_BASE`, seeded random
manifests) and for each plugin file in the repository, the error class
and message that parsing raises, or a digest of the serialized text.
Nothing regenerates it: an outcome that moves on purpose is edited by
hand, and CHANGES.md says why.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest
from conftest import GOLDEN, REPO_ROOT
from support import pair_fault_texts, random_manifest_texts

import rjs.registry
from rjs.errors import RjsError, ValidationError
from rjs.heap import BUILTINS
from rjs.model import (
    BinOp,
    Builtin,
    Const,
    ExprStmt,
    MethodSignature,
    Return,
    SetField,
    SetGlobal,
    i64,
)
from rjs.registry import ManifestAST, MethodSpec, TypeSpec, parse_manifest, serialize_manifest

PIN = GOLDEN / "manifest_outcomes.json"
RANDOM_SEED = 18
RANDOM_COUNT = 400
PLUGIN_FILES = ("bench/async.plugin", "plugins/math.plugin", "plugins/sample.plugin")


def outcome(text: str) -> str:
    """The error a text raises, or a digest of its serialized form.

    A text that parses must also serialize to a fixpoint: the serialized
    text parses back to an equal AST, which serializes to the same text.
    """
    try:
        ast = parse_manifest(text)
    except RjsError as exc:
        return f"{type(exc).__name__}: {exc}"
    serialized = serialize_manifest(ast)
    again = parse_manifest(serialized)
    assert again == ast and serialize_manifest(again) == serialized, text
    return "ok " + hashlib.sha256(serialized.encode()).hexdigest()[:16]


def test_every_pinned_text_keeps_its_outcome():
    pin = json.loads(PIN.read_text(encoding="utf-8"))
    known = pin["outcomes"]
    moved = []

    def check(label: str, text: str, expected: str) -> None:
        got = outcome(text)
        if got != expected:
            moved.append(f"{label}\n  pinned: {expected}\n  now:    {got}")

    positions: dict[str, int] = {}
    for path, label, text in pair_fault_texts():
        index = positions[path] = positions.get(path, -1) + 1
        check(f"{label} (pairs[{path!r}][{index}])", text, known[pin["pairs"][path][index]])
    assert positions == {path: len(indices) - 1 for path, indices in pin["pairs"].items()}
    texts = random_manifest_texts(RANDOM_SEED, RANDOM_COUNT)
    assert len(texts) == len(pin["random"])
    for index, text in enumerate(texts):
        check(f"random[{index}]: {text}", text, known[pin["random"][index]])
    assert sorted(pin["plugins"]) == sorted(PLUGIN_FILES)
    for name in PLUGIN_FILES:
        check(name, (REPO_ROOT / name).read_text(encoding="utf-8"), pin["plugins"][name])
    assert not moved, f"{len(moved)} outcome(s) moved:\n" + "\n".join(moved[:10])


# -- the serializer refuses ASTs that no text parses to ------------------------------


class Foreign:
    def __repr__(self) -> str:
        return "<foreign>"


ONE = Const(i64(1))


def _method(*body) -> ManifestAST:
    sig = MethodSignature((), body=body)
    return ManifestAST(types=(TypeSpec("T", "", (), (), (MethodSpec("m", sig),), (), "T", ()),))


@pytest.mark.parametrize("ast, message", [
    (ManifestAST(statements=(ExprStmt(BinOp("+", Return(ONE), ONE)),)),
     f"unserializable expression {Return(ONE)!r}"),
    (ManifestAST(statements=(SetGlobal("g", Return(None)),)),
     f"unserializable expression {Return(None)!r}"),
    (ManifestAST(statements=(ONE,)), f"unserializable statement {ONE!r}"),
    (_method(ONE), f"unserializable statement {ONE!r}"),
    (ManifestAST(statements=(ExprStmt(ExprStmt(ONE)),)),
     f"unserializable expression {ExprStmt(ONE)!r}"),
    (ManifestAST(statements=(SetGlobal("g", None),)), "unserializable expression None"),
    (ManifestAST(statements=(ExprStmt(None),)), "unserializable expression None"),
    (ManifestAST(statements=(ExprStmt(BinOp("+", "x", ONE)),)), "unserializable expression 'x'"),
    (ManifestAST(statements=(ExprStmt(Builtin("sqrt", (SetField("x", ONE),))),)),
     f"unserializable expression {SetField('x', ONE)!r}"),
    (ManifestAST(statements=(Foreign(),)), "unserializable statement <foreign>"),
    (ManifestAST(statements=(Return(Foreign()),)), "unserializable expression <foreign>"),
    (ManifestAST(statements=(ONE,), types=_method(Return(ONE), ExprStmt(None)).types),
     "unserializable expression None"),  # the type's fault comes before the statements'
], ids=["return-in-bin", "return-in-gset", "const-as-statement", "const-in-method-body",
        "nested-expression-statement", "none-in-gset", "none-as-expression", "str-operand",
        "statement-as-builtin-arg", "foreign-statement", "foreign-expression", "first-fault-wins"])
def test_serializer_refuses_a_node_in_the_wrong_position(ast, message):
    with pytest.raises(ValidationError) as caught:
        serialize_manifest(ast)
    assert str(caught.value) == message


# -- the README's list of body ops and builtins is the code's --------------------------


def _manifest_section() -> str:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Plugin / macro manifests", 1)[1].split("\n## ", 1)[0]


def test_the_readme_lists_each_body_op_with_its_keys():
    rows = re.findall(r"^\| `(\w+)` \|([^|]*)\|", _manifest_section(), re.MULTILINE)
    documented = {op: tuple(re.findall(r"`(\w+)`", keys)) for op, keys in rows}
    assert documented == {op: tuple(spec.keys) for op, spec in rjs.registry._OPS.items()}
    (ret_keys,) = [keys for op, keys in rows if op == "ret"]
    assert "(optional)" in ret_keys


def test_the_readme_lists_each_builtin():
    (line,) = re.findall(r"^Builtins: (.*)\.$", _manifest_section(), re.MULTILINE)
    assert re.findall(r"`(\w+)`", line) == list(BUILTINS)
