"""Compiled host bodies: agreement with a reference evaluator, one compile
per signature shared by every bridge, and nothing kept alive by the
compiled form."""

from __future__ import annotations

import gc
import io
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rjs.heap
import rjs.registry
import support
from rjs import Bridge, Heap, Registry, cstr, f64, i64
from rjs.errors import HostExecError
from rjs.registry import merge, parse_manifest
from rjs.script import Interpreter, parse


# -- differential check against support.BodyOracle ------------------------------------

FIELDS = {"i": ("i64", ("i64", 2)), "f": ("f64", ("f64", 0.5)),
          "s": ("cstr", ("cstr", "s")), "o": ({"obj": "T"}, ("obj", 0))}
GLOBALS = {"gi": ("i64", ("i64", 3)), "gf": ("f64", ("f64", 1.5)), "gs": ("cstr", ("cstr", "g"))}
PARAMS = ["i64", "f64", "cstr"]
RETURNS = ["i64", "f64", "cstr", "str", "bool", "void", {"obj": "T"}]

_const = st.one_of(
    st.integers(-(2**63), 2**63 - 1), st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e300]),
    st.text("ab", max_size=2), st.booleans(), st.none(),
).map(lambda value: {"op": "const", "value": value})
_leaf = st.one_of(
    st.integers(-7, 7).map(lambda value: {"op": "const", "value": value}),  # signs, zero
    _const,
    st.integers(0, len(PARAMS) - 1).map(lambda index: {"op": "param", "index": index}),
    st.just({"op": "self"}),
    st.sampled_from([*FIELDS, "zz"]).map(lambda name: {"op": "get", "field": name}),
    st.sampled_from([*GLOBALS, "gz"]).map(lambda name: {"op": "gget", "name": name}),
)


def _node(inner):
    one = st.lists(inner, min_size=1, max_size=1)
    return st.one_of(
        st.builds(lambda o, l, r: {"op": "bin", "o": o, "l": l, "r": r},
                  st.sampled_from("+-*/%"), inner, inner),
        st.builds(lambda name, args: {"op": "builtin", "name": name, "args": args},
                  st.sampled_from(["sqrt", "floor", "strlen", "to_str"]), one),
        st.lists(inner, min_size=1, max_size=3).map(
            lambda args: {"op": "builtin", "name": "concat", "args": args}),
        st.builds(lambda type_name, args: {"op": "new", "type": type_name, "args": args},
                  st.sampled_from(["T", "Nope"]), st.lists(inner, max_size=1)),
    )


_expr = st.recursive(_leaf, _node, max_leaves=5)
_stmt = st.one_of(
    st.builds(lambda name, value: {"op": "set", "field": name, "value": value},
              st.sampled_from([*FIELDS, "zz"]), _expr),
    st.builds(lambda name, value: {"op": "gset", "name": name, "value": value},
              st.sampled_from([*GLOBALS, "gz"]), _expr),
    _expr.map(lambda value: {"op": "ret", "value": value}),
    st.just({"op": "ret"}),
    _expr,
)


def _host(value) -> tuple:
    return (value.tag, value.value)


def _method_text(body: list, returns) -> str:
    return json.dumps({
        "types": [{
            "name": "T",
            "fields": [{"name": n, "kind": k, "initial": None if n == "o" else v[1]}
                       for n, (k, v) in FIELDS.items()],
            "methods": [{"name": "M", "params": PARAMS, "returns": returns, "body": body}],
        }],
        "globals": [{"name": n, "kind": k, "initial": v[1]} for n, (k, v) in GLOBALS.items()],
    })


def check_against_oracle(body: list, returns, args: list) -> None:
    """Run `T.M` on a fresh heap and on the oracle; results and state must agree."""
    registry = Registry()
    heap = Heap(registry)
    merge(registry, parse_manifest(_method_text(body, returns)), heap)
    receiver = heap.construct("T")
    signature = registry.method_set("T", "M").signatures[0]
    oracle = support.BodyOracle("T", FIELDS, GLOBALS, first_address=receiver)
    assert oracle.construct() == receiver
    for _ in range(2):  # the first call compiles, the second reuses
        try:
            got = _host(heap.exec_body(receiver, signature, args))
        except HostExecError as exc:
            got = ("fault", str(exc))
        try:
            expected = oracle.call(receiver, returns, body, [_host(v) for v in args])
        except support.BodyFault as fault:
            expected = ("fault", str(fault))
        # repr compares floats exactly, NaN and the sign of zero included
        assert repr(got) == repr(expected)
        assert repr({n: _host(v) for n, v in heap.objects[receiver].storage.items()}) == repr(
            oracle.objects[receiver])
        assert repr({n: _host(v) for n, v in heap.globals.items()}) == repr(oracle.globals)
        assert sorted(heap.objects) == sorted(oracle.objects)


@settings(max_examples=100, deadline=None)
@given(st.lists(_stmt, min_size=1, max_size=4), st.sampled_from(RETURNS),
       st.integers(-(2**63), 2**63 - 1), st.floats(-1e3, 1e3), st.text("ab", max_size=2))
def test_compiled_bodies_agree_with_the_reference_evaluator(body, returns, a, b, c):
    check_against_oracle(body, returns, [i64(a), f64(b), cstr(c)])


_numeric = st.recursive(
    st.one_of(
        st.integers(-7, 7), st.integers(-(2**63), 2**63 - 1), st.floats(-1e3, 1e3),
    ).map(lambda value: {"op": "const", "value": value})
    | st.sampled_from([{"op": "param", "index": 0}, {"op": "param", "index": 1},
                       {"op": "get", "field": "i"}, {"op": "gget", "name": "gf"}]),
    lambda inner: st.builds(lambda o, l, r: {"op": "bin", "o": o, "l": l, "r": r},
                            st.sampled_from("+-*/%"), inner, inner),
    max_leaves=4,
)


@settings(max_examples=250, deadline=None)
@given(_numeric, st.sampled_from(["i", "f"]), st.integers(-9, 9), st.floats(-9, 9))
def test_compiled_arithmetic_agrees_with_the_reference_evaluator(expr, field, a, b):
    body = [{"op": "set", "field": field, "value": expr}, {"op": "ret", "value": expr}]
    check_against_oracle(body, "f64", [i64(a), f64(b), cstr("")])


# -- one compile per signature, shared by every bridge ----------------------------------


@pytest.fixture
def compiles(monkeypatch) -> list[tuple]:
    """Statement lists handed to the compiler, with the plugin memo emptied first."""
    seen: list[tuple] = []
    real = rjs.heap.compile_body

    def counted(statements, create_globals):
        seen.append(statements)
        return real(statements, create_globals)

    monkeypatch.setattr(rjs.heap, "compile_body", counted)
    with rjs.registry._memo_lock:
        rjs.registry._memo.clear()
    return seen


FILL_SCRIPT = ('let h = root.TH1D("h", "t"); h.Fill(0.5); h.Fill(1.5, 2.0); h.Fill(2.5);'
               " print(h.GetEntries()); print(h.fSumw);")


def run_script(bridge: Bridge, source: str) -> str:
    out = io.StringIO()
    Interpreter(bridge, out).run(parse(source))
    return out.getvalue()


def test_two_bridges_compile_each_body_once(sample_plugin, compiles):
    first = Bridge(workers=1, diag=io.StringIO())
    second = Bridge(workers=1, diag=io.StringIO())
    try:
        for bridge in (first, second):
            bridge.loadlibrary(str(sample_plugin))
        fills = first.registry.method_set("TH1D", "Fill").signatures
        shared = second.registry.method_set("TH1D", "Fill").signatures
        assert len(fills) == len(shared) and all(a is b for a, b in zip(fills, shared))
        for bridge in (first, second, first):
            assert run_script(bridge, FILL_SCRIPT) == "3\n4\n"
        assert compiles, "no body was compiled"
        assert len({id(s) for s in compiles}) == len(compiles), "a body compiled twice"
        for sig in fills[:2]:
            assert sig.code is not None
            assert sum(s is sig.body for s in compiles) == 1
    finally:
        first.shutdown()
        second.shutdown()


def test_macro_statements_compile_on_every_call(bridge, compiles):
    macro = json.dumps({"statements": [{"op": "ret", "value": {"op": "const", "value": 7}}]})
    assert bridge.evalmacro(macro) == 7 and bridge.evalmacro(macro) == 7
    assert len(compiles) == 2


# -- lifetime -----------------------------------------------------------------------------


def test_discarded_bridge_with_compiled_bodies_is_freed_without_a_collection(sample_plugin):
    gc.disable()
    try:
        b = Bridge(workers=1, diag=io.StringIO())
        b.loadlibrary(str(sample_plugin))
        assert run_script(b, FILL_SCRIPT) == "3\n4\n"
        assert b.registry.method_set("TH1D", "Fill").signatures[0].code is not None
        b.shutdown()
        refs = [weakref.ref(o) for o in (b, b.registry, b.heap, b.dispatcher)]
        del b
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


ACC_MACRO = json.dumps({
    "types": [{
        "name": "Acc",
        "fields": [{"name": "total", "kind": "f64"}],
        "methods": [{"name": "Add", "params": ["f64"], "returns": "f64", "body": [
            {"op": "set", "field": "total", "value": {
                "op": "bin", "o": "+", "l": {"op": "get", "field": "total"},
                "r": {"op": "param", "index": 0}}},
            {"op": "ret", "value": {"op": "get", "field": "total"}}]}],
    }],
    "statements": [{"op": "ret", "value": {"op": "const", "value": 1}}],
})


def test_macro_declared_method_is_freed_with_its_registry():
    gc.disable()
    try:
        b = Bridge(workers=1, diag=io.StringIO())
        b.evalmacro(ACC_MACRO)
        assert run_script(b, "let a = root.Acc(); a.Add(1.5); print(a.Add(2));") == "3.5\n"
        signature = b.registry.method_set("Acc", "Add").signatures[0]
        refs = [weakref.ref(signature), weakref.ref(signature.code), weakref.ref(b.registry)]
        b.shutdown()
        del b, signature
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
