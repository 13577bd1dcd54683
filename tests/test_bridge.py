"""Bridge behaviour: root members, proxies, conversions, resolution, invocation."""

from __future__ import annotations

import gc
import io
import json
import random
import threading
import time
import weakref

import pytest

import support
from rjs import Bridge, Proxy, Registry, boolean, cstr, enumval, f64, i64, ref, strobj
from rjs.bridge import FnRef, MethodRef, NsRef, TypeRef, build_root, refresh
from rjs.errors import (
    Ambiguous,
    ConversionError,
    DanglingHandle,
    DomainError,
    HostExecError,
    LoadError,
    NoMatch,
    NotQuiescent,
    PrecisionError,
    RjsError,
    ScriptNameError,
    ScriptTypeError,
)
from rjs.model import K_BOOL, K_CSTR, K_F64, K_I64, K_STR, OverloadSet, enum_kind, obj_kind
from rjs.model import MethodSignature, VOID
from rjs.registry import eval_macro, merge, parse_manifest
from rjs.repl import ReplSession
from rjs.script import Interpreter, parse

PI_MANIFEST = json.dumps({
    "namespaces": ["ROOT.Math"],
    "functions": [{"name": "Pi", "namespace": "ROOT.Math", "params": [], "returns": "f64",
                   "body": [{"op": "ret", "value": {"op": "const", "value": 3.141592653589793}}]}],
})

SLEEPY = json.dumps({
    "functions": [{"name": "Nap", "params": ["i64"], "returns": "i64", "body": [
        {"op": "builtin", "name": "sleep_ms", "args": [{"op": "param", "index": 0}]},
        {"op": "ret", "value": {"op": "param", "index": 0}},
    ]}],
})


def load(bridge, text: str) -> None:
    merge(bridge.registry, parse_manifest(text), bridge.heap)
    bridge.refresh()


# -- build_root / refresh -----------------------------------------------------


def test_empty_registry_root_has_no_properties(bridge):
    root = build_root(bridge.registry)
    assert bridge.registry.order == {} and root.cursor == bridge.root.cursor == 0
    for name in ("ROOT", "TH1D", "Pi", "gDebug"):
        with pytest.raises(ScriptNameError, match=f"the root object has no member '{name}'"):
            bridge.get_member(NsRef(""), name)
        with pytest.raises(ScriptNameError, match=f"the root object has no member '{name}'"):
            bridge.set_member(NsRef(""), name, 1.0)


def test_pi_manifest_exposes_fnref(bridge):
    load(bridge, PI_MANIFEST)
    member = bridge.get_member(NsRef(""), "ROOT")
    math_ns = bridge.get_member(member, "Math")
    pi = bridge.get_member(math_ns, "Pi")
    assert pi == FnRef("ROOT.Math.Pi")


@pytest.mark.parametrize("name", ["", "ROOT.Math", "Math.Pi"])
def test_a_member_name_is_one_level(bridge, name):
    load(bridge, PI_MANIFEST)
    where = NsRef("ROOT") if name == "Math.Pi" else NsRef("")
    message = f"{where.path or 'the root object'} has no member {name!r}"
    with pytest.raises(ScriptNameError) as caught:
        bridge.get_member(where, name)
    assert str(caught.value) == message
    with pytest.raises(ScriptNameError) as caught:
        bridge.set_member(where, name, 1.0)
    assert str(caught.value) == message


def test_root_listing_matches_enumerate(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    registry = bridge.registry
    listing = registry.enumerate("")
    top_level = [name for name in registry.order if "." not in name]
    assert bridge.root.cursor == len(registry.order)
    assert sorted(top_level) == sorted(
        listing.namespaces + listing.types + listing.functions + listing.globals)
    expected = {n: NsRef(n) for n in listing.namespaces}
    expected.update({n: TypeRef(n) for n in listing.types})
    expected.update({n: FnRef(n) for n in listing.functions})
    expected.update({n: bridge.to_script(registry.find_global(n).initial) for n in listing.globals})
    assert {n: bridge.get_member(NsRef(""), n) for n in expected} == expected


def test_refresh_unchanged_version_is_noop(bridge):
    load(bridge, PI_MANIFEST)
    assert bridge.refresh() == 0


def test_refresh_counts_added_names(bridge):
    merge(bridge.registry, parse_manifest(PI_MANIFEST), bridge.heap)
    # ROOT, ROOT.Math and ROOT.Math.Pi are new
    assert refresh(bridge.root, bridge.registry) == 3


def test_refresh_after_statement_macro_records_version(bridge):
    load(bridge, json.dumps({"globals": [{"name": "g", "kind": "i64"}]}))
    eval_macro(bridge.registry, bridge.heap, json.dumps(
        {"statements": [{"op": "gset", "name": "g", "value": {"op": "const", "value": 1}}]}))
    assert bridge.root.version_seen != bridge.registry.version
    assert bridge.refresh() == 0
    assert bridge.root.version_seen == bridge.registry.version


def test_refresh_is_idempotent(bridge, sample_plugin):
    merge(bridge.registry, parse_manifest(sample_plugin.read_text()), bridge.heap)
    first = bridge.refresh()
    assert first > 0
    assert bridge.refresh() == 0


# -- proxies ---------------------------------------------------------------------


def test_proxy_for_is_cached(bridge):
    load(bridge, json.dumps({"types": [{"name": "T"}]}))
    addr = bridge.heap.construct("T")
    first = bridge.factory.proxy_for(bridge.heap, addr)
    second = bridge.factory.proxy_for(bridge.heap, addr)
    assert first is second


def test_proxy_for_alias_is_same_identity(bridge):
    load(bridge, json.dumps({"types": [{"name": "T"}]}))
    addr = bridge.heap.construct("T")
    alias = bridge.heap.make_alias(addr)
    assert bridge.factory.proxy_for(bridge.heap, alias) is \
        bridge.factory.proxy_for(bridge.heap, addr)


def test_thousand_aliases_ten_objects_ten_proxies(bridge):
    load(bridge, json.dumps({"types": [{"name": "T"}]}))
    rng = random.Random(11)
    addresses = [bridge.heap.construct("T") for _ in range(10)]
    handles = list(addresses)
    proxies = set()
    groups: dict[int, set[int]] = {}
    for addr in addresses:
        proxies.add(id(bridge.factory.proxy_for(bridge.heap, addr)))
    for _ in range(1000):
        source = rng.choice(handles)
        handle = bridge.heap.make_alias(source)
        handles.append(handle)
        proxy = bridge.factory.proxy_for(bridge.heap, handle)
        proxies.add(id(proxy))
        groups.setdefault(proxy.canonical, set()).add(handle)
    assert len(proxies) == 10
    for canonical, group in groups.items():
        for handle in group:
            assert bridge.heap.normalize(handle) == canonical


def test_self_constructing_ctor_leaves_no_object_at_any_stack_depth(bridge):
    load(bridge, json.dumps({"types": [{
        "name": "Loop",
        "ctors": [{"params": [], "body": [{"op": "new", "type": "Loop", "args": []}]}],
    }]}))
    objects, aliases = dict(bridge.heap.objects), dict(bridge.heap.aliases)

    def construct_below(frames: int) -> None:
        if frames:
            return construct_below(frames - 1)
        with pytest.raises(HostExecError, match="stack exhausted"):
            bridge.invoke(TypeRef("Loop"), [])

    # the stack runs out at a different point of the cleanup for each start depth
    for frames in range(120):
        construct_below(frames)
        assert bridge.heap.objects == objects, frames
        assert bridge.heap.aliases == aliases, frames


def test_proxy_for_dangling_handle(bridge):
    load(bridge, json.dumps({"types": [{"name": "T"}]}))
    addr = bridge.heap.construct("T")
    bridge.heap.destroy(addr)
    with pytest.raises(DanglingHandle):
        bridge.factory.proxy_for(bridge.heap, addr)


# -- to_host -----------------------------------------------------------------------


def test_to_host_integral_num_to_i64(bridge):
    assert bridge.to_host(2.0, K_I64) == i64(2)


def test_to_host_fractional_num_to_i64_rejected(bridge):
    with pytest.raises(ConversionError):
        bridge.to_host(2.5, K_I64)


def test_to_host_string_to_enum_by_name(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    assert bridge.to_host("kBlue", enum_kind("EColor")) == enumval("EColor", 600)


def test_to_host_num_to_enum_by_value(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    assert bridge.to_host(600.0, enum_kind("EColor")) == enumval("EColor", 600)
    with pytest.raises(ConversionError):
        bridge.to_host(601.0, enum_kind("EColor"))


def test_to_host_string_kinds(bridge):
    assert bridge.to_host("s", K_CSTR) == cstr("s")
    assert bridge.to_host("s", K_STR) == strobj("s")


def test_to_host_null_to_object_ref(bridge):
    load(bridge, json.dumps({"types": [{"name": "T"}]}))
    assert bridge.to_host(None, obj_kind("T")) == ref(0)


def test_to_host_proxy_subtyping(bridge):
    proxies, _ = support.load_overload_fixture(bridge)
    leaf = proxies["Leaf"]
    assert bridge.to_host(leaf, obj_kind("Base")) == ref(leaf.canonical)
    with pytest.raises(ConversionError):
        bridge.to_host(proxies["Other"], obj_kind("Base"))


def test_to_host_bool(bridge):
    assert bridge.to_host(True, K_BOOL) == boolean(True)
    with pytest.raises(ConversionError):
        bridge.to_host(True, K_I64)  # bool is not a number script-side


@pytest.mark.parametrize("number", ["1/0", "0 - 1/0", "0/0"])
@pytest.mark.parametrize("statement, error, message", [
    ("root.TVector3({n}, 0, 0);", NoMatch,
     "no overload of 'TVector3' accepts (non-finite number, number, number)"),
    ('root.TH1D("h", "h").Fill({n});', NoMatch, "no overload of 'Fill' accepts (non-finite number)"),
    ("v.x = {n};", ConversionError, "no conversion from non-finite number to f64"),
    ("root.gScale = {n};", ConversionError, "no conversion from non-finite number to f64"),
], ids=["constructor", "method", "field", "global"])
def test_a_non_finite_number_never_reaches_f64_storage(bridge, sample_plugin, number, statement,
                                                        error, message):
    load(bridge, sample_plugin.read_text())
    load(bridge, json.dumps({"globals": [{"name": "gScale", "kind": "f64", "initial": 2.5}]}))
    out = io.StringIO()
    interp = Interpreter(bridge, out)
    interp.run(parse("let v = root.TVector3(1, 2, 3);"), interp.globals)
    with pytest.raises(error) as raised:
        interp.run(parse(statement.format(n=number)), interp.globals)
    assert str(raised.value) == message
    interp.run(parse("print(v.x); print(root.gScale);"), interp.globals)
    assert out.getvalue() == "1\n2.5\n"


def test_script_arithmetic_keeps_non_finite_numbers(bridge):
    out = io.StringIO()
    Interpreter(bridge, out).run(parse("print(1/0); print(0 - 1/0); print(0/0);"))
    assert out.getvalue() == "Infinity\n-Infinity\nNaN\n"


# -- to_script ----------------------------------------------------------------------


def test_to_script_numbers_and_strings(bridge):
    assert bridge.to_script(f64(5.0)) == 5.0
    assert bridge.to_script(i64(3)) == 3.0
    assert bridge.to_script(cstr("a")) == "a"
    assert bridge.to_script(strobj("b")) == "b"
    assert bridge.to_script(boolean(True)) is True
    assert bridge.to_script(VOID) is None


def test_to_script_large_i64_is_precision_error(bridge):
    assert bridge.to_script(i64(2**53)) == float(2**53)
    with pytest.raises(PrecisionError):
        bridge.to_script(i64(2**53 + 1))


def test_to_script_enum_is_number(bridge):
    assert bridge.to_script(enumval("EColor", 600)) == 600.0


def test_to_script_ref_uses_proxy_cache(bridge):
    load(bridge, json.dumps({"types": [{"name": "T"}]}))
    addr = bridge.heap.construct("T")
    via_ref = bridge.to_script(ref(addr))
    assert via_ref is bridge.factory.proxy_for(bridge.heap, addr)


def test_to_script_null_ref_is_null(bridge):
    assert bridge.to_script(ref(0)) is None


def test_round_trip_exact_kinds(bridge):
    for value, kind in ((2.5, K_F64), ("s", K_CSTR), (True, K_BOOL)):
        assert bridge.to_script(bridge.to_host(value, kind)) == value


# -- resolve_overload ----------------------------------------------------------------


def fill_set() -> OverloadSet:
    return OverloadSet("Fill", [
        MethodSignature((K_F64, K_F64), K_I64),
        MethodSignature((K_CSTR, K_F64), K_I64),
    ])


def test_fill_numeric_pair_picks_double_double(bridge):
    resolved = bridge.resolve_overload(fill_set(), [1.5, 2.0])
    assert resolved.index == 0
    assert resolved.converted == [f64(1.5), f64(2.0)]


def test_fill_string_first_picks_cstr(bridge):
    resolved = bridge.resolve_overload(fill_set(), ["bin", 2.0])
    assert resolved.index == 1
    assert resolved.converted == [cstr("bin"), f64(2.0)]


def test_integral_num_prefers_f64_over_i64(bridge):
    overloads = OverloadSet("f", [
        MethodSignature((K_I64,), K_I64),
        MethodSignature((K_F64,), K_F64),
    ])
    resolved = bridge.resolve_overload(overloads, [2.0])
    assert resolved.index == 1  # cost 0 beats cost 1


def test_i64_beats_enum_under_cost_table(bridge):
    # documented deviation: Num->i64 costs 1, Num->enum costs 2, so this
    # resolves to the i64 overload instead of tying
    proxies, _ = support.load_overload_fixture(bridge)
    overloads = OverloadSet("f", [
        MethodSignature((K_I64,), K_I64),
        MethodSignature((enum_kind("E1"),), K_I64),
    ])
    resolved = bridge.resolve_overload(overloads, [2.0])
    assert resolved.index == 0


def test_ambiguous_tie_lists_both(bridge):
    overloads = OverloadSet("f", [
        MethodSignature((K_I64, K_F64), K_I64),
        MethodSignature((K_F64, K_I64), K_I64),
    ])
    with pytest.raises(Ambiguous) as excinfo:
        bridge.resolve_overload(overloads, [2.0, 3.0])
    message = str(excinfo.value)
    assert message.count("f(") == 2


def test_no_match_reports_kinds(bridge):
    with pytest.raises(NoMatch, match="string"):
        bridge.resolve_overload(fill_set(), ["only-one-arg"])


def test_trailing_callable_is_split_not_matched(bridge):
    observed = []
    callback = observed.append
    resolved = bridge.resolve_overload(fill_set(), [1.0, 2.0, callback])
    assert resolved.callback is callback
    assert len(resolved.converted) == 2


def test_resolution_invariant_under_set_permutation(bridge):
    proxies, enums = support.load_overload_fixture(bridge)
    rng = random.Random(23)
    for _ in range(300):
        param_lists = support.random_param_lists(rng)
        args = [support.random_arg(rng, proxies) for _ in range(rng.randint(0, 3))]
        overloads = OverloadSet("f", [MethodSignature(p) for p in param_lists])
        try:
            baseline = param_lists[bridge.resolve_overload(overloads, args).index]
        except NoMatch:
            baseline = "nomatch"
        except Ambiguous:
            baseline = "ambiguous"
        order = list(range(len(param_lists)))
        rng.shuffle(order)
        shuffled = OverloadSet("f", [MethodSignature(param_lists[i]) for i in order])
        try:
            outcome = param_lists[order[bridge.resolve_overload(shuffled, args).index]]
        except NoMatch:
            outcome = "nomatch"
        except Ambiguous:
            outcome = "ambiguous"
        assert outcome == baseline


def test_resolution_agrees_with_exhaustive_oracle(bridge):
    proxies, enums = support.load_overload_fixture(bridge)
    rng = random.Random(42)
    for _ in range(2000):
        param_lists = support.random_param_lists(rng)
        args = [support.random_arg(rng, proxies) for _ in range(rng.randint(0, 3))]
        expected = support.oracle_classify(
            param_lists, args, enums, support.OVERLOAD_TYPE_BASES
        )
        overloads = OverloadSet("f", [MethodSignature(p) for p in param_lists])
        try:
            resolved = bridge.resolve_overload(overloads, args)
            actual = ("ok", resolved.index)
        except NoMatch:
            actual = ("nomatch", None)
        except Ambiguous:
            actual = ("ambiguous", None)
        assert actual[0] == expected[0], (param_lists, args, expected, actual)
        if expected[0] == "ok":
            assert actual[1] == expected[1]


def test_no_overload_accepts_a_non_finite_number(bridge):
    proxies, enums = support.load_overload_fixture(bridge)
    rng = random.Random(43)
    for _ in range(300):
        param_lists = support.random_param_lists(rng)
        args = [support.random_arg(rng, proxies) for _ in range(rng.randint(0, 2))]
        args.insert(rng.randint(0, len(args)), rng.choice([float("inf"), float("-inf"), float("nan")]))
        assert support.oracle_classify(param_lists, args, enums, support.OVERLOAD_TYPE_BASES) \
            == ("nomatch", None)
        with pytest.raises(NoMatch, match=r"non-finite number"):
            bridge.resolve_overload(OverloadSet("f", [MethodSignature(p) for p in param_lists]), args)


# -- invoke -------------------------------------------------------------------------


def test_invoke_pi_synchronously(bridge):
    load(bridge, PI_MANIFEST)
    result = bridge.invoke(FnRef("ROOT.Math.Pi"), [])
    assert not result.pending
    assert result.value == 3.141592653589793


def test_invoke_construct_and_method(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    made = bridge.invoke(TypeRef("TVector3"), [3.0, 4.0, 0.0])
    v = made.value
    assert isinstance(v, Proxy) and v.type_name == "TVector3"
    mag = bridge.invoke(MethodRef(v, "TVector3", "Mag"), [])
    assert mag.value == 5.0


def test_invoke_default_construction(bridge):
    load(bridge, json.dumps({"types": [
        {"name": "T", "fields": [{"name": "x", "kind": "f64", "initial": 1.5}]}]}))
    result = bridge.invoke(TypeRef("T"), [])
    assert bridge.get_member(result.value, "x") == 1.5
    with pytest.raises(NoMatch):
        bridge.invoke(TypeRef("T"), [3.0])


def test_invoke_static_method_via_typeref(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    opened = bridge.invoke(MethodRef(None, "TFile", "Open"), ["f.root"])
    assert isinstance(opened.value, Proxy)
    assert bridge.get_member(opened.value, "fName") == "f.root"


def test_instance_method_via_typeref_requires_instance(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    with pytest.raises(NoMatch, match="instance"):
        bridge.invoke(MethodRef(None, "TVector3", "Mag"), [])


def test_inherited_method_callable_on_derived(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    h = bridge.invoke(TypeRef("TH1D"), ["h", "title"]).value
    name = bridge.invoke(MethodRef(h, "TH1D", "GetName"), [])
    assert name.value == "h"


def test_async_invoke_returns_pending_id_then_callback_runs(bridge):
    load(bridge, SLEEPY)
    got: list[float] = []
    start = time.monotonic()
    result = bridge.invoke(FnRef("Nap"), [200.0, got.append])
    submit_latency = time.monotonic() - start
    assert result.pending and result.call_id is not None
    assert submit_latency < 0.05
    assert got == []  # nothing delivered before a pump
    assert bridge.dispatcher.drain(2000)
    assert got == [200.0]


def test_sync_invoke_blocks_for_duration(bridge):
    load(bridge, SLEEPY)
    start = time.monotonic()
    result = bridge.invoke(FnRef("Nap"), [200.0])
    elapsed = time.monotonic() - start
    assert elapsed >= 0.2
    assert result.value == 200.0


def test_async_fault_goes_to_sink_not_callback(bridge):
    load(bridge, json.dumps({
        "functions": [{"name": "Bad", "params": [], "returns": "i64", "body": [
            {"op": "ret", "value": {"op": "bin", "o": "/",
                                    "l": {"op": "const", "value": 1},
                                    "r": {"op": "const", "value": 0}}}]}],
    }))
    bridge.invoke(FnRef("Bad"), [lambda v: pytest.fail("callback must not run")])
    assert bridge.dispatcher.drain(2000)
    assert len(bridge.async_faults) == 1


def test_async_construction(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    got: list = []
    result = bridge.invoke(TypeRef("TVector3"), [3.0, 4.0, 0.0, got.append])
    assert result.pending
    assert bridge.dispatcher.drain(2000)
    assert len(got) == 1 and isinstance(got[0], Proxy)
    assert bridge.get_member(got[0], "x") == 3.0


def test_async_default_construction_sets_field_initials(bridge):
    load(bridge, json.dumps({"types": [{"name": "T", "fields": [
        {"name": "x", "kind": "f64", "initial": 1.5},
        {"name": "s", "kind": "cstr", "initial": "hi"}]}]}))
    got: list = []
    result = bridge.invoke(TypeRef("T"), [got.append])
    assert result.pending
    assert bridge.dispatcher.drain(2000)
    assert len(got) == 1 and isinstance(got[0], Proxy) and got[0].type_name == "T"
    assert bridge.heap.objects[got[0].canonical].storage == {"x": f64(1.5), "s": cstr("hi")}
    assert bridge.async_faults == []


def _param(index: int) -> dict:
    return {"op": "param", "index": index}


def _const(value) -> dict:
    return {"op": "const", "value": value}


CALL_KINDS = json.dumps({
    "functions": [
        {"name": "Twice", "params": ["f64"], "returns": "f64",
         "body": [{"op": "ret", "value": {"op": "bin", "o": "+", "l": _param(0), "r": _param(0)}}]},
        {"name": "Twice", "params": ["cstr"], "returns": "cstr",
         "body": [{"op": "ret", "value": _param(0)}]},
        {"name": "Tie", "params": ["i64", "f64"], "returns": "i64", "body": [{"op": "ret", "value": _const(1)}]},
        {"name": "Tie", "params": ["f64", "i64"], "returns": "i64", "body": [{"op": "ret", "value": _const(2)}]},
    ],
    "types": [
        {"name": "Acc",
         "fields": [{"name": "n", "kind": "i64", "initial": 7}, {"name": "s", "kind": "cstr", "initial": "s"}],
         "ctors": [{"params": ["i64"], "body": [{"op": "set", "field": "n", "value": _param(0)}]},
                   {"params": ["cstr"], "body": [{"op": "set", "field": "s", "value": _param(0)}]}],
         "methods": [
             {"name": "Add", "params": ["i64"], "returns": "i64", "body": [
                 {"op": "set", "field": "n",
                  "value": {"op": "bin", "o": "+", "l": {"op": "get", "field": "n"}, "r": _param(0)}},
                 {"op": "ret", "value": {"op": "get", "field": "n"}}]},
             {"name": "Make", "static": True, "params": ["i64"], "returns": {"obj": "Acc"},
              "body": [{"op": "ret", "value": {"op": "new", "type": "Acc", "args": [_param(0)]}}]},
         ]},
        {"name": "Plain", "fields": [{"name": "x", "kind": "f64", "initial": 1.5}]},
    ],
})

#: (label, target maker given a receiver proxy, arguments)
CALL_KIND_CASES = [
    ("free function", lambda acc: FnRef("Twice"), [2.5]),
    ("free function, second overload", lambda acc: FnRef("Twice"), ["x"]),
    ("static through a type", lambda acc: MethodRef(None, "Acc", "Make"), [3.0]),
    ("static through a proxy", lambda acc: MethodRef(acc, "Acc", "Make"), [4.0]),
    ("instance method", lambda acc: MethodRef(acc, "Acc", "Add"), [2.0]),
    ("constructor, i64 overload", lambda acc: TypeRef("Acc"), [9.0]),
    ("constructor, cstr overload", lambda acc: TypeRef("Acc"), ["t"]),
    ("default construction", lambda acc: TypeRef("Plain"), []),
]

CALL_FAULT_CASES = [
    ("no overload matches", lambda acc: FnRef("Twice"), [True]),
    ("ambiguous", lambda acc: FnRef("Tie"), [1.0, 1.0]),
    ("requires an instance", lambda acc: MethodRef(None, "Acc", "Add"), [1.0]),
    ("unknown method", lambda acc: MethodRef(acc, "Acc", "Nope"), []),
    ("unknown type", lambda acc: TypeRef("Nope"), []),
    ("arguments to a default constructor", lambda acc: TypeRef("Plain"), [1.0]),
    ("not a function set", lambda acc: FnRef("Acc"), []),
]


def _outcome(bridge, value):
    """What a call's value shows: a proxy by type and heap storage, else itself."""
    if isinstance(value, Proxy):
        return value.type_name, bridge.heap.objects[value.canonical].storage
    return value


def _receiver(bridge):
    load(bridge, CALL_KINDS)
    return bridge.invoke(TypeRef("Acc"), [3.0]).value


@pytest.mark.parametrize("label,make,args", CALL_KIND_CASES, ids=[c[0] for c in CALL_KIND_CASES])
def test_sync_and_async_invoke_give_the_same_value(bridge, label, make, args):
    other = Bridge(workers=2, diag=io.StringIO())
    try:
        acc_sync, acc_async = _receiver(bridge), _receiver(other)
        sync = bridge.invoke(make(acc_sync), list(args))
        got: list = []
        pending = other.invoke(make(acc_async), [*args, got.append])
        assert not sync.pending and pending.pending
        assert other.dispatcher.drain(2000)
        assert other.async_faults == [] and len(got) == 1
        assert _outcome(other, got[0]) == _outcome(bridge, sync.value)
        assert _outcome(other, acc_async) == _outcome(bridge, acc_sync)
    finally:
        other.shutdown()


@pytest.mark.parametrize("label,make,args", CALL_FAULT_CASES, ids=[c[0] for c in CALL_FAULT_CASES])
def test_resolution_faults_raise_at_invoke_with_or_without_a_callback(bridge, label, make, args):
    acc = _receiver(bridge)
    with pytest.raises(RjsError) as sync:
        bridge.invoke(make(acc), list(args))
    got: list = []
    with pytest.raises(RjsError) as with_callback:
        bridge.invoke(make(acc), [*args, got.append])
    assert type(with_callback.value) is type(sync.value)
    assert str(with_callback.value) == str(sync.value)
    assert bridge.dispatcher.pending_count() == 0 and got == []


# -- member access ---------------------------------------------------------------------


def test_get_member_global_reads_heap(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    assert bridge.get_member(NsRef(""), "gDebug") == 0.0
    bridge.heap.write_global("gDebug", i64(2))
    assert bridge.get_member(NsRef(""), "gDebug") == 2.0


def test_set_member_global_writes_through(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    bridge.set_member(NsRef(""), "gDebug", 3.0)
    assert bridge.heap.read_global("gDebug") == i64(3)
    with pytest.raises(ConversionError):
        bridge.set_member(NsRef(""), "gDebug", 2.5)


def test_set_member_non_global_rejected(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    with pytest.raises(ScriptTypeError, match="read-only"):
        bridge.set_member(NsRef(""), "TFile", 1.0)


def test_proxy_field_read_write(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    v = bridge.invoke(TypeRef("TVector3"), [0.0, 0.0, 0.0]).value
    bridge.set_member(v, "x", 2.5)
    assert bridge.get_member(v, "x") == 2.5


def test_unknown_member_errors(bridge, sample_plugin):
    load(bridge, sample_plugin.read_text())
    with pytest.raises(ScriptNameError):
        bridge.get_member(NsRef(""), "NoSuch")
    v = bridge.invoke(TypeRef("TVector3"), [0.0, 0.0, 0.0]).value
    with pytest.raises(ScriptNameError):
        bridge.get_member(v, "w")
    with pytest.raises(ScriptTypeError):
        bridge.get_member(3.0, "x")


# -- loadlibrary -------------------------------------------------------------------------


def test_loadlibrary_then_immediate_use(bridge, math_plugin):
    version = bridge.loadlibrary(str(math_plugin))
    assert version == 1
    result = bridge.invoke(FnRef("ROOT.Math.Pi"), [])
    assert result.value == 3.141592653589793


def test_loadlibrary_missing_file_leaves_tree_unchanged(bridge, math_plugin):
    bridge.loadlibrary(str(math_plugin))
    before = bridge.registry.version
    with pytest.raises(LoadError):
        bridge.loadlibrary("does/not/exist.plugin")
    assert bridge.registry.version == before
    assert bridge.get_member(NsRef(""), "ROOT") == NsRef("ROOT")


def test_loadlibrary_undecodable_file_is_a_load_error(bridge, tmp_path):
    plugin = tmp_path / "bad.plugin"
    plugin.write_bytes(b'{"globals": []}\xff')
    with pytest.raises(LoadError) as caught:
        bridge.loadlibrary(str(plugin))
    message = f"cannot read plugin {str(plugin)!r}: 'utf-8' codec can't decode"
    assert str(caught.value).startswith(message)
    assert bridge.registry.version == 0


def test_loadlibrary_not_quiescent_during_sleep(bridge, math_plugin):
    load(bridge, SLEEPY)
    bridge.invoke(FnRef("Nap"), [500.0, lambda v: None])
    with pytest.raises(NotQuiescent):
        bridge.loadlibrary(str(math_plugin))
    assert bridge.dispatcher.drain(2000)
    assert bridge.loadlibrary(str(math_plugin)) >= 2


def test_registry_entry_points_rejected_off_the_interpreter_thread(bridge, math_plugin):
    calls = {
        "loadlibrary": lambda: bridge.loadlibrary(str(math_plugin)),
        "evalmacro": lambda: bridge.evalmacro('{"globals": [{"name": "g", "kind": "i64"}]}'),
        "invoke": lambda: bridge.invoke(FnRef("ROOT.Math.Pi"), []),
    }
    failures: dict[str, Exception] = {}

    def elsewhere():
        for name, call in calls.items():
            try:
                call()
            except Exception as exc:
                failures[name] = exc

    worker = threading.Thread(target=elsewhere)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert {name: type(exc) for name, exc in failures.items()} == dict.fromkeys(calls, DomainError)
    assert all(name in str(exc) for name, exc in failures.items())
    assert bridge.registry.version == 0 and bridge.registry.order == {}
    assert bridge.loadlibrary(str(math_plugin)) == 1  # the interpreter thread still may


# -- lifetime ----------------------------------------------------------------------------


def test_discarded_session_objects_are_freed_without_a_collection(sample_plugin):
    gc.disable()
    try:
        b = Bridge(workers=2, diag=io.StringIO())
        b.loadlibrary(str(sample_plugin))
        got: list = []
        b.invoke(TypeRef("TVector3"), [3.0, 4.0, 0.0, got.append])
        assert b.dispatcher.drain(2000) and len(got) == 1
        interp = Interpreter(b, io.StringIO())
        interp.run(parse("print(1);"))
        repl = ReplSession(b, io.StringIO())
        b.shutdown()
        refs = [weakref.ref(o) for o in (b, b.registry, b.heap, b.dispatcher, interp, repl)]
        del b, interp, repl, got
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_lent_registry_outlives_its_bridge():
    registry = Registry()
    b = Bridge(registry=registry, workers=1, diag=io.StringIO())
    b.shutdown()
    del b
    assert registry.engines == set()
    assert merge(registry, parse_manifest(PI_MANIFEST)) == 1


def test_builtin_of_a_discarded_interpreter_raises(bridge):
    interp = Interpreter(bridge, io.StringIO())
    printer = interp.globals.get("print")
    del interp
    with pytest.raises(ReferenceError, match="_print called after its object was discarded"):
        printer(1.0)


# -- the heap lock ------------------------------------------------------------------------


class DepthRecordingLock:
    """Stands in for `Heap._lock`: counts acquisitions and each thread's nesting depth.

    It holds a re-entrant lock, so code that nests an acquisition shows up
    as a depth of 2 rather than hanging the test.
    """

    def __init__(self) -> None:
        self._inner = threading.RLock()
        self._local = threading.local()
        self.acquisitions = 0
        self.max_depth = 0

    def __enter__(self) -> "DepthRecordingLock":
        self._inner.acquire()
        depth = getattr(self._local, "depth", 0) + 1
        self._local.depth = depth
        self.acquisitions += 1
        self.max_depth = max(self.max_depth, depth)
        return self

    def __exit__(self, *exc_info) -> None:
        self._local.depth -= 1
        self._inner.release()


GSET_OBJECT_MACRO = json.dumps({"statements": [
    {"op": "gset", "name": "gObj", "value": {"op": "new", "type": "TObject", "args": []}},
]})
HEAP_PATHS = {
    "Fill": "h.Fill(0.5);",
    "Ref": "let r = h.Ref();",
    "proxy field": "h.fEntries = h.fEntries + 1;",
    "global": "root.gDebug = root.gDebug + 1;",
    "constructor body": 'let n = root.TNamed("a", "b");',
    "body new": 'let f = root.TFile.Open("f");',
    "macro gset of an object": f"root.evalmacro({json.dumps(GSET_OBJECT_MACRO)});",
    "async Fill": "h.Fill(0.5, fn(n) {});" * 12,  # three per worker
}


@pytest.mark.parametrize("path", HEAP_PATHS)
def test_the_heap_lock_is_never_nested(bridge, sample_plugin, path):
    bridge.loadlibrary(str(sample_plugin))
    interp = Interpreter(bridge, io.StringIO())
    interp.run(parse('let h = root.TH1D("h", "t");'), interp.globals)
    lock = DepthRecordingLock()
    bridge.heap._lock = lock
    interp.run(parse(HEAP_PATHS[path]))
    assert bridge.dispatcher.drain(5000)
    assert lock.acquisitions > 0
    assert lock.max_depth == 1
    if path == "Fill":
        assert lock.acquisitions <= 6


def test_every_handle_is_resolved_under_the_heap_lock(bridge, monkeypatch):
    # a host `new` matches constructors by exact kind, and an object
    # parameter resolves the argument's handle to check its type
    merge(bridge.registry, parse_manifest(json.dumps({"types": [
        {"name": "P"},
        {"name": "Holder", "fields": [{"name": "p", "kind": {"obj": "P"}}],
         "ctors": [{"params": [{"obj": "P"}], "body": [
             {"op": "set", "field": "p", "value": {"op": "param", "index": 0}}]}]},
    ]})), bridge.heap)
    lock = DepthRecordingLock()
    bridge.heap._lock = lock
    depths = []
    resolve = type(bridge.heap)._object

    def recording(heap, handle):
        depths.append(getattr(lock._local, "depth", 0))
        return resolve(heap, handle)

    monkeypatch.setattr(type(bridge.heap), "_object", recording)
    result = eval_macro(bridge.registry, bridge.heap, json.dumps({"statements": [
        {"op": "ret", "value": {"op": "new", "type": "Holder",
                                "args": [{"op": "new", "type": "P", "args": []}]}}]}))
    assert bridge.heap.identify(result.value.value)[1] == "Holder"
    assert depths and set(depths) == {1}
    assert lock.max_depth == 1
