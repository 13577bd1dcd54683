"""Heap semantics: storage, normalization, body execution."""

from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from rjs import Heap, Registry, cstr, enumval, f64, i64, ref
from rjs.errors import (
    DanglingHandle,
    HostExecError,
    KindMismatch,
    UnknownField,
    UnknownGlobal,
    UnknownType,
)
from rjs.model import (
    BinOp,
    Builtin,
    Const,
    ExprStmt,
    GetField,
    K_CSTR,
    K_F64,
    K_I64,
    K_STR,
    MethodSignature,
    New,
    Param,
    Return,
    SelfRef,
    SetGlobal,
    VOID,
    obj_kind,
)
from rjs.registry import merge, parse_manifest

VEC2 = json.dumps({
    "types": [{
        "name": "Vec2",
        "fields": [{"name": "x", "kind": "f64"}, {"name": "y", "kind": "f64"}],
        "ctors": [{"params": ["f64", "f64"], "body": [
            {"op": "set", "field": "x", "value": {"op": "param", "index": 0}},
            {"op": "set", "field": "y", "value": {"op": "param", "index": 1}},
        ]}],
        "methods": [{"name": "Mag", "params": [], "returns": "f64", "body": [
            {"op": "ret", "value": {"op": "builtin", "name": "sqrt", "args": [
                {"op": "bin", "o": "+",
                 "l": {"op": "bin", "o": "*", "l": {"op": "get", "field": "x"},
                       "r": {"op": "get", "field": "x"}},
                 "r": {"op": "bin", "o": "*", "l": {"op": "get", "field": "y"},
                       "r": {"op": "get", "field": "y"}}}]}}]}],
    }]
})

BARE = json.dumps({"types": [{
    "name": "Bare",
    "fields": [{"name": "x", "kind": "f64"}, {"name": "n", "kind": "i64"}],
}]})


@pytest.fixture
def world():
    registry = Registry()
    heap = Heap(registry)
    merge(registry, parse_manifest(VEC2), heap)
    merge(registry, parse_manifest(BARE), heap)
    return registry, heap


def test_default_construction_uses_declared_initials(world):
    _, heap = world
    addr = heap.construct("Bare")
    assert heap.read_field(addr, "x") == f64(0.0)
    assert heap.read_field(addr, "n") == i64(0)


def test_addresses_strictly_increase(world):
    _, heap = world
    first = heap.construct("Bare")
    second = heap.construct("Bare")
    assert second > first >= 0x1000


def test_ctor_body_sets_fields(world):
    _, heap = world
    addr = heap.construct("Vec2", [f64(2.5), f64(0.0)])
    assert heap.read_field(addr, "x") == f64(2.5)


def test_construct_unknown_type(world):
    _, heap = world
    with pytest.raises(UnknownType):
        heap.construct("Nope")


def test_construct_arity_mismatch_faults(world):
    _, heap = world
    with pytest.raises(HostExecError, match="no constructor"):
        heap.construct("Vec2", [f64(1.0)])


# -- aliases and normalization ---------------------------------------------------


def test_alias_basics(world):
    _, heap = world
    addr = heap.construct("Bare")
    h = heap.make_alias(addr)
    assert h != addr
    assert heap.normalize(h) == addr
    assert heap.normalize(addr) == addr  # identity entry


def test_alias_of_alias_collapses(world):
    _, heap = world
    addr = heap.construct("Bare")
    h1 = heap.make_alias(addr)
    h2 = heap.make_alias(h1)
    assert heap.normalize(h2) == addr
    assert heap.aliases[h2] == addr  # collapsed at creation, not lazily


def test_normalize_idempotent(world):
    _, heap = world
    addr = heap.construct("Bare")
    h = heap.make_alias(addr)
    assert heap.normalize(heap.normalize(h)) == heap.normalize(h)


def test_normalize_zero_is_dangling(world):
    _, heap = world
    with pytest.raises(DanglingHandle):
        heap.normalize(0)


def test_alias_of_destroyed_object(world):
    _, heap = world
    addr = heap.construct("Bare")
    heap.destroy(addr)
    with pytest.raises(DanglingHandle):
        heap.make_alias(addr)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=20),
)
def test_alias_transparency_over_random_forests(object_count, access_plan):
    """normalize(h1) == normalize(h2) implies write(h1) is seen by read(h2)."""
    registry = Registry()
    heap = Heap(registry)
    merge(registry, parse_manifest(BARE), heap)
    handles: list[int] = [heap.construct("Bare") for _ in range(object_count)]
    for source_pick, _ in access_plan:  # grow a random alias forest
        handles.append(heap.make_alias(handles[source_pick % len(handles)]))
    for step, (write_pick, read_pick) in enumerate(access_plan):
        h1 = handles[write_pick % len(handles)]
        h2 = handles[read_pick % len(handles)]
        heap.write_field(h1, "x", f64(float(step)))
        if heap.normalize(h1) == heap.normalize(h2):
            assert heap.read_field(h2, "x") == f64(float(step))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=0, max_size=12))
def test_normalize_chain_matches_iterative_oracle(chain_picks: list[int]):
    registry = Registry()
    heap = Heap(registry)
    merge(registry, parse_manifest(BARE), heap)
    addr = heap.construct("Bare")
    creation_log: dict[int, int] = {addr: addr}
    handles = [addr]
    for pick in chain_picks:
        source = handles[pick % len(handles)]
        h = heap.make_alias(source)
        creation_log[h] = source
        handles.append(h)
    for h in handles:
        assert heap.normalize(h) == support.follow_aliases(creation_log, h)


# -- field reads/writes -------------------------------------------------------------


def test_write_through_one_alias_read_through_another(world):
    _, heap = world
    addr = heap.construct("Bare")
    h1 = heap.make_alias(addr)
    h2 = heap.make_alias(addr)
    heap.write_field(h1, "x", f64(1.5))
    assert heap.read_field(h2, "x") == f64(1.5)


def test_kind_mismatch_on_write(world):
    _, heap = world
    addr = heap.construct("Bare")
    with pytest.raises(KindMismatch):
        heap.write_field(addr, "x", i64(1))


def test_unknown_field(world):
    _, heap = world
    addr = heap.construct("Bare")
    with pytest.raises(UnknownField):
        heap.read_field(addr, "zzz")


def test_inherited_fields_present():
    registry = Registry()
    heap = Heap(registry)
    merge(registry, parse_manifest(json.dumps({"types": [
        {"name": "A", "fields": [{"name": "a", "kind": "i64", "initial": 3}]},
        {"name": "B", "bases": ["A"], "fields": [{"name": "b", "kind": "i64"}]},
    ]})), heap)
    addr = heap.construct("B")
    assert heap.read_field(addr, "a") == i64(3)
    heap.write_field(addr, "a", i64(9))
    assert heap.read_field(addr, "a") == i64(9)


def test_interleaved_writes_match_flat_map_oracle(world):
    _, heap = world
    rng = random.Random(7)
    objects = [heap.construct("Bare") for _ in range(5)]
    aliases = {addr: [addr] + [heap.make_alias(addr) for _ in range(3)] for addr in objects}
    oracle: dict[tuple[int, str], float] = {}
    for step in range(400):
        addr = rng.choice(objects)
        handle = rng.choice(aliases[addr])
        if rng.random() < 0.5:
            value = float(step)
            heap.write_field(handle, "x", f64(value))
            oracle[(addr, "x")] = value
        else:
            expected = oracle.get((addr, "x"), 0.0)
            assert heap.read_field(handle, "x") == f64(expected)
    for addr in objects:
        expected = oracle.get((addr, "x"), 0.0)
        for handle in aliases[addr]:
            assert heap.read_field(handle, "x") == f64(expected)


# -- globals -----------------------------------------------------------------------


def test_global_write_then_read(world):
    registry, heap = world
    merge(registry, parse_manifest(json.dumps(
        {"globals": [{"name": "counter", "kind": "i64"}]})), heap)
    heap.write_global("counter", i64(7))
    assert heap.read_global("counter") == i64(7)


def test_undeclared_global(world):
    _, heap = world
    with pytest.raises(UnknownGlobal):
        heap.read_global("nope")
    with pytest.raises(UnknownGlobal):
        heap.write_global("nope", i64(1))


def test_global_kind_checked(world):
    registry, heap = world
    merge(registry, parse_manifest(json.dumps(
        {"globals": [{"name": "level", "kind": "i64"}]})), heap)
    with pytest.raises(KindMismatch):
        heap.write_global("level", cstr("high"))


def test_enum_fields_enforce_enum_and_enumerator(world):
    registry, heap = world
    merge(registry, parse_manifest(json.dumps({
        "enums": {"EMode": {"on": 1, "off": 0}, "EOther": {"x": 1}},
        "types": [{"name": "Box", "fields": [
            {"name": "mode", "kind": {"enum": "EMode"}, "initial": "off"}]}],
    })), heap)
    from rjs import enumval

    addr = heap.construct("Box")
    assert heap.read_field(addr, "mode") == enumval("EMode", 0)
    heap.write_field(addr, "mode", enumval("EMode", 1))
    with pytest.raises(KindMismatch):
        heap.write_field(addr, "mode", enumval("EOther", 1))
    with pytest.raises(KindMismatch):
        heap.write_field(addr, "mode", enumval("EMode", 42))  # not an enumerator


def test_obj_fields_null_initial_and_subtype_writes(world):
    registry, heap = world
    merge(registry, parse_manifest(json.dumps({"types": [
        {"name": "NodeA"},
        {"name": "NodeB", "bases": ["NodeA"]},
        {"name": "Holder", "fields": [{"name": "slot", "kind": {"obj": "NodeA"}}]},
    ]})), heap)
    holder = heap.construct("Holder")
    assert heap.read_field(holder, "slot") == ref(0)  # null reference default
    b = heap.construct("NodeB")
    heap.write_field(holder, "slot", ref(b))  # derived into base slot
    a_slotted = heap.read_field(holder, "slot")
    assert heap.normalize(a_slotted.value) == b
    other = heap.construct("Bare")
    with pytest.raises(KindMismatch):
        heap.write_field(holder, "slot", ref(other))


# -- exec_body -----------------------------------------------------------------------


def test_mag_body_evaluates_to_five(world):
    registry, heap = world
    addr = heap.construct("Vec2", [f64(3.0), f64(4.0)])
    sig = registry.lookup("Vec2").methods["Mag"].signatures[0]
    assert heap.exec_body(addr, sig, []) == f64(5.0)


def test_identity_body_returns_argument(world):
    _, heap = world
    sig = MethodSignature((K_CSTR,), K_CSTR, True, (Return(Param(0)),))
    assert heap.exec_body(None, sig, [cstr("a")]) == cstr("a")


def test_alias_builtin_returns_fresh_normalizing_handle(world):
    _, heap = world
    addr = heap.construct("Bare")
    sig = MethodSignature((), obj_kind("Bare"), False,
                          (Return(Builtin("alias", (SelfRef(),))),))
    out = heap.exec_body(addr, sig, [])
    assert out.tag == "obj" and out.value != addr
    assert heap.normalize(out.value) == addr


def test_division_by_zero_faults(world):
    _, heap = world
    sig = MethodSignature((), K_I64, True,
                          (Return(BinOp("/", Const(i64(1)), Const(i64(0)))),))
    with pytest.raises(HostExecError, match="division by zero"):
        heap.exec_body(None, sig, [])


def test_sqrt_of_negative_faults(world):
    _, heap = world
    sig = MethodSignature((), K_F64, True,
                          (Return(Builtin("sqrt", (Const(f64(-1.0)),))),))
    with pytest.raises(HostExecError, match="sqrt"):
        heap.exec_body(None, sig, [])


def test_i64_arithmetic_wraps(world):
    _, heap = world
    big = 2**63 - 1
    sig = MethodSignature((), K_I64, True,
                          (Return(BinOp("+", Const(i64(big)), Const(i64(1)))),))
    assert heap.exec_body(None, sig, []) == i64(-(2**63))


def test_i64_division_truncates_toward_zero(world):
    _, heap = world

    def run(a: int, b: int, op: str) -> int:
        sig = MethodSignature((), K_I64, True,
                              (Return(BinOp(op, Const(i64(a)), Const(i64(b)))),))
        return heap.exec_body(None, sig, []).value

    assert run(7, 2, "/") == 3
    assert run(-7, 2, "/") == -3
    assert run(7, -2, "/") == -3
    assert run(-7, 2, "%") == -1  # sign follows the dividend
    assert run(7, -2, "%") == 1


def test_mixed_numeric_promotes_to_f64(world):
    _, heap = world
    sig = MethodSignature((), K_F64, True,
                          (Return(BinOp("+", Const(i64(1)), Const(f64(0.5)))),))
    assert heap.exec_body(None, sig, []) == f64(1.5)


def test_return_widens_like_a_store_and_rejects_other_kinds(world):
    _, heap = world
    widened = MethodSignature((), K_F64, True, (Return(Const(i64(2))),))
    assert heap.exec_body(None, widened, []) == f64(2.0)
    as_int = MethodSignature((), K_I64, True, (Return(Const(enumval("EMode", 1))),))
    assert heap.exec_body(None, as_int, []) == i64(1)
    narrowed = MethodSignature((), K_I64, True, (Return(Const(f64(2.0))),))
    with pytest.raises(HostExecError, match="body returned f64, signature declares i64"):
        heap.exec_body(None, narrowed, [])


def test_object_return_slot_takes_what_an_object_field_takes(world):
    registry, heap = world
    merge(registry, parse_manifest(json.dumps({"types": [
        {"name": "NodeA"},
        {"name": "NodeB", "bases": ["NodeA"]},
        {"name": "Other"},
        {"name": "Holder", "fields": [{"name": "slot", "kind": {"obj": "NodeA"}}]},
    ]})), heap)
    slot = obj_kind("NodeA")

    def returning(value) -> MethodSignature:
        return MethodSignature((), slot, value is not None, (Return(value or GetField("slot")),))

    derived = heap.exec_body(None, returning(New("NodeB", ())), [])
    assert heap.objects[heap.normalize(derived.value)].type_name == "NodeB"
    assert heap.exec_body(heap.construct("Holder"), returning(None), []) == ref(0)
    unrelated = returning(New("Other", ()))
    with pytest.raises(HostExecError, match=r"^body returned Other, signature declares NodeA$"):
        heap.exec_body(None, unrelated, [])
    with pytest.raises(KindMismatch, match="field Holder.slot expects NodeA, got Other"):
        heap.write_field(heap.construct("Holder"), "slot", ref(heap.construct("Other")))


def test_missing_return_in_non_void_body_faults(world):
    _, heap = world
    sig = MethodSignature((), K_I64, True, ())
    with pytest.raises(HostExecError, match="end of a non-void body"):
        heap.exec_body(None, sig, [])


def test_void_body_returns_void(world):
    _, heap = world
    sig = MethodSignature((), body=())
    assert heap.exec_body(None, sig, []) is VOID


def test_concat_strlen_to_str(world):
    _, heap = world
    sig = MethodSignature((), K_I64, True, (
        Return(Builtin("strlen", (Builtin("concat", (Const(cstr("ab")), Const(cstr("cde")))),))),
    ))
    assert heap.exec_body(None, sig, []) == i64(5)
    to_str = MethodSignature((), K_STR, True,
                             (Return(Builtin("to_str", (Const(f64(5.0)),))),))
    assert heap.exec_body(None, to_str, []).value == "5"


def test_sleep_ms_suspends(world):
    _, heap = world
    sig = MethodSignature((), body=(ExprStmt(Builtin("sleep_ms", (Const(i64(30)),))),))
    start = time.monotonic()
    heap.exec_body(None, sig, [])
    assert time.monotonic() - start >= 0.028


def test_exec_body_deterministic(world):
    registry, heap = world
    addr = heap.construct("Vec2", [f64(3.0), f64(4.0)])
    sig = registry.lookup("Vec2").methods["Mag"].signatures[0]
    first = heap.exec_body(addr, sig, [])
    second = heap.exec_body(addr, sig, [])
    assert first == second


def test_dangling_ref_inside_body_is_exec_error(world):
    _, heap = world
    addr = heap.construct("Bare")
    heap.destroy(addr)
    sig = MethodSignature((), body=(ExprStmt(Builtin("alias", (Const(ref(addr)),))),))
    with pytest.raises(HostExecError):
        heap.exec_body(None, sig, [])


def test_macro_global_from_a_dangling_ref_is_exec_error(world):
    registry, heap = world
    addr = heap.construct("Bare")
    heap.destroy(addr)
    with pytest.raises(HostExecError, match="does not reference a live object"):
        heap.run_macro_statements((SetGlobal("g", Const(ref(addr))),))
    assert registry.find_global("g") is None


# -- destroy -----------------------------------------------------------------------


def test_destroy_then_read_is_dangling(world):
    _, heap = world
    addr = heap.construct("Bare")
    heap.destroy(addr)
    with pytest.raises(DanglingHandle):
        heap.read_field(addr, "x")


def test_destroy_via_alias_destroys_canonical(world):
    _, heap = world
    addr = heap.construct("Bare")
    h = heap.make_alias(addr)
    heap.destroy(h)
    with pytest.raises(DanglingHandle):
        heap.normalize(addr)


def test_double_destroy_is_dangling(world):
    _, heap = world
    addr = heap.construct("Bare")
    heap.destroy(addr)
    with pytest.raises(DanglingHandle):
        heap.destroy(addr)


def test_new_expression_constructs(world):
    _, heap = world
    sig = MethodSignature((), obj_kind("Vec2"), True,
                          (Return(New("Vec2", (Const(f64(3.0)), Const(f64(4.0))))),))
    out = heap.exec_body(None, sig, [])
    assert out.tag == "obj"
    assert heap.read_field(out.value, "x") == f64(3.0)


def test_ctor_failing_with_non_rjs_error_leaves_no_object(world, monkeypatch):
    registry, heap = world
    merge(registry, parse_manifest(json.dumps({"types": [{
        "name": "Interrupted",
        "fields": [{"name": "n", "kind": "i64"}],
        "ctors": [{"params": [], "body": [
            {"op": "set", "field": "n", "value": {"op": "const", "value": 1}},
            {"op": "builtin", "name": "sleep_ms", "args": [{"op": "const", "value": 0}]}]}],
    }]})), heap)
    keep = heap.construct("Bare")
    heap.make_alias(keep)
    objects, aliases = dict(heap.objects), dict(heap.aliases)

    def interrupted(seconds: float) -> None:
        raise KeyboardInterrupt  # not an RjsError: it passes the body's fault boundary

    monkeypatch.setattr(time, "sleep", interrupted)
    with pytest.raises(KeyboardInterrupt):
        heap.construct("Interrupted")
    assert heap.objects == objects
    assert heap.aliases == aliases


def test_ctor_recursing_past_the_stack_is_a_host_fault_and_leaves_no_object(world):
    registry, heap = world
    # a constructor body that builds its own type recurses until the stack runs out
    merge(registry, parse_manifest(json.dumps({"types": [{
        "name": "Loop",
        "fields": [{"name": "n", "kind": "i64"}],
        "ctors": [{"params": [], "body": [{"op": "new", "type": "Loop", "args": []}]}],
    }]})), heap)
    keep = heap.construct("Bare")
    heap.make_alias(keep)
    objects, aliases = dict(heap.objects), dict(heap.aliases)
    with pytest.raises(HostExecError, match="stack exhausted while running a host body"):
        heap.construct("Loop")
    assert heap.objects == objects
    assert heap.aliases == aliases
