"""Cross-module flows driven the way an embedder or script author would."""

from __future__ import annotations

import io
import json
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from rjs import (
    VOID,
    Bridge,
    CallTask,
    Dispatcher,
    FnRef,
    Heap,
    MethodSignature,
    NsRef,
    Proxy,
    Registry,
    i64,
    merge,
    parse_manifest,
    ref,
)
from rjs.errors import HostExecError, NotQuiescent, ScriptNameError, ScriptTypeError
from rjs.model import Builtin, Const, ExprStmt
from rjs.registry import eval_macro
from rjs.script import Interpreter, parse, render_value


@pytest.fixture
def session(bridge):
    out = io.StringIO()
    return bridge, Interpreter(bridge, out), out


PI_MACRO = json.dumps({
    "namespaces": ["ROOT.Math"],
    "functions": [{"name": "Pi", "namespace": "ROOT.Math", "params": [], "returns": "f64",
                   "body": [{"op": "ret", "value": {"op": "const", "value": 3.141592653589793}}]}],
    "statements": [{"op": "ret", "value": {"op": "const", "value": 1}}],
})


def test_evalmacro_from_script_defines_and_returns(session):
    bridge, interp, out = session
    interp.globals.define("macro_text", PI_MACRO)
    interp.run(parse("print(root.evalmacro(macro_text));"))
    interp.run(parse("print(root.ROOT.Math.Pi());"))  # no manual refresh needed
    assert out.getvalue() == "1\n3.141592653589793\n"


def test_evalmacro_fault_still_resyncs_declarations(session):
    bridge, interp, out = session
    text = json.dumps({
        "namespaces": ["N"],
        "statements": [{"op": "bin", "o": "/", "l": {"op": "const", "value": 1},
                        "r": {"op": "const", "value": 0}}],
    })
    with pytest.raises(HostExecError):
        bridge.evalmacro(text)
    # declarations merged before the fault are visible without extra refresh
    interp.run(parse("print(root.N);"))
    assert out.getvalue() == "<namespace N>\n"


def test_root_builtins_validate_arguments(session):
    bridge, interp, _ = session
    with pytest.raises(ScriptTypeError):
        interp.run(parse("root.loadlibrary(3);"))
    with pytest.raises(ScriptTypeError):
        interp.run(parse("root.evalmacro();"))


def test_macro_can_create_object_global(session):
    bridge, interp, out = session
    text = json.dumps({
        "types": [{"name": "Box", "fields": [{"name": "n", "kind": "i64", "initial": 4}]}],
        "statements": [
            {"op": "gset", "name": "gBox", "value": {"op": "new", "type": "Box", "args": []}},
        ],
    })
    bridge.evalmacro(text)
    interp.run(parse("print(root.gBox.n);"))
    assert out.getvalue() == "4\n"
    decl = bridge.registry.find_global("gBox")
    assert decl is not None and decl.kind.name == "Box"


def test_macro_created_global_not_in_mirror_until_refresh(session):
    bridge, interp, out = session
    eval_macro(bridge.registry, bridge.heap, json.dumps({
        "statements": [{"op": "gset", "name": "late", "value": {"op": "const", "value": 2}}]}))
    # the name is new; without a refresh the mirror does not list it yet
    with pytest.raises(ScriptNameError):
        interp.run(parse("print(root.late);"))
    bridge.refresh()
    interp.run(parse("print(root.late);"))
    assert out.getvalue() == "2\n"


def test_builtin_rendering(session):
    bridge, interp, _ = session
    assert render_value(interp.globals.get("print")) == "<builtin print>"
    assert render_value(bridge.get_member(NsRef(""), "loadlibrary")) == "<builtin loadlibrary>"


def test_script_callback_receives_proxy_of_inherited_type(session, sample_plugin):
    bridge, interp, out = session
    bridge.loadlibrary(str(sample_plugin))
    interp.run(parse(
        'root.TFile.Open("a.root", fn(f) { print(f.Ref().GetName()); });'
    ))
    assert bridge.dispatcher.drain(3000)
    # Ref() aliases self; the alias proxy reads the same storage
    assert out.getvalue() == "a.root\n"


def test_two_sessions_are_isolated():
    first = Bridge(workers=1, diag=io.StringIO())
    second = Bridge(workers=1, diag=io.StringIO())
    try:
        eval_macro(first.registry, first.heap, json.dumps({
            "statements": [{"op": "gset", "name": "g", "value": {"op": "const", "value": 1}}]}))
        assert first.registry.version == 1
        assert second.registry.version == 0
    finally:
        first.shutdown()
        second.shutdown()


# -- several engines on one registry -------------------------------------------------

NAP_TEXT = json.dumps({"functions": [{"name": "Nap", "params": ["i64"], "returns": "i64", "body": [
    {"op": "builtin", "name": "sleep_ms", "args": [{"op": "param", "index": 0}]},
    {"op": "ret", "value": {"op": "param", "index": 0}}]}]})


def _nap(ms: int) -> MethodSignature:
    return MethodSignature((), body=(ExprStmt(Builtin("sleep_ms", (Const(i64(ms)),))),))


def _global_text(name: str) -> str:
    return json.dumps({"globals": [{"name": name, "kind": "i64"}]})


def _in_flight(count: int) -> str:
    return rf"^{count} asynchronous call\(s\) in flight$"


def test_every_bridge_on_a_registry_gates_its_merges():
    registry = Registry()
    a = Bridge(registry=registry, workers=1, diag=io.StringIO())
    b = Bridge(registry=registry, workers=1, diag=io.StringIO())  # shares; does not replace `a`
    try:
        a.evalmacro(NAP_TEXT)
        got: list = []
        a.invoke(FnRef("Nap"), [300.0, got.append])
        with pytest.raises(NotQuiescent, match=_in_flight(1)):
            a.evalmacro(_global_text("g"))
        with pytest.raises(NotQuiescent, match=_in_flight(1)):
            b.evalmacro(_global_text("g"))
        assert registry.version == 1
        assert a.dispatcher.drain(5000) and got == [300.0]
        b.evalmacro(_global_text("g"))
        assert registry.version == 2
    finally:
        a.shutdown()
        b.shutdown()


def test_a_standalone_dispatcher_gates_merges():
    registry = Registry()
    heap, other_heap = Heap(registry), Heap(registry)
    engine = Dispatcher(other_heap, workers=1)  # an engine on another heap of the registry
    try:
        engine.submit(CallTask(signature=_nap(300)), lambda v: None)
        with pytest.raises(NotQuiescent, match=_in_flight(1)):
            merge(registry, parse_manifest('{"namespaces": ["N"]}'), heap)
        with pytest.raises(NotQuiescent, match=_in_flight(1)):
            eval_macro(registry, heap, _global_text("g"))
        assert registry.version == 0
        assert engine.drain(5000)
        assert merge(registry, parse_manifest('{"namespaces": ["N"]}'), heap) == 1
    finally:
        engine.shutdown()
    del engine
    assert registry.engines == set()


def test_a_shut_down_bridge_releases_its_registry():
    registry = Registry()
    a = Bridge(registry=registry, workers=1, diag=io.StringIO())
    b = Bridge(registry=registry, workers=1, diag=io.StringIO())
    try:
        a.evalmacro(NAP_TEXT)
        got: list = []
        a.invoke(FnRef("Nap"), [10.0, got.append])
        a.shutdown()  # `a` stays referenced, its completion undelivered
        time.sleep(0.1)
        assert registry.engines == set()
        b.evalmacro('{"namespaces": ["N"]}')
        assert registry.version == 2
        assert got == []
        assert a.dispatcher.process_events() == 1 and got == [10.0]
        assert a.dispatcher.process_events() == 0
    finally:
        a.shutdown()
        b.shutdown()


def test_an_engine_joins_its_registry_on_its_first_asynchronous_call(sample_plugin):
    registry = Registry()
    bridge = Bridge(registry=registry, workers=1, diag=io.StringIO())
    engine = Dispatcher(Heap(registry), workers=1)
    try:
        bridge.loadlibrary(str(sample_plugin))
        out = io.StringIO()
        Interpreter(bridge, out).run(parse("let v = root.TVector3(3, 4, 0); print(v.Mag());"))
        assert out.getvalue() == "5\n"
        assert registry.engines == set()  # a sync-only session never joins
        engine.submit(CallTask(signature=_nap(0)), lambda v: None)
        assert registry.engines == {engine}
        bridge.invoke(FnRef("ROOT.Math.Sq"), [3.0, lambda v: None])
        assert registry.engines == {engine, bridge.dispatcher}
        assert engine.drain(5000) and bridge.dispatcher.drain(5000)
        assert registry.engines == {engine, bridge.dispatcher}  # idle members until shutdown
    finally:
        engine.shutdown()
        bridge.shutdown()
    assert registry.engines == set()


def test_a_macro_object_global_holds_no_handle_of_its_creator(sample_plugin):
    registry = Registry()
    a = Bridge(registry=registry, workers=1, diag=io.StringIO())
    b = Bridge(registry=registry, workers=1, diag=io.StringIO())
    out_a, out_b = io.StringIO(), io.StringIO()
    try:
        a.loadlibrary(str(sample_plugin))
        b.refresh()
        Interpreter(b, out_b).run(parse("let v = root.TVector3(1, 2, 3); print(v);"))
        a.evalmacro(json.dumps({"statements": [
            {"op": "gset", "name": "gH", "value": {"op": "new", "type": "TGraph", "args": []}}]}))
        b.refresh()
        Interpreter(b, out_b).run(parse("print(root.gH);"))
        Interpreter(a, out_a).run(parse("print(root.gH);"))
        assert out_b.getvalue() == "<TVector3 @0x1000>\nnull\n"
        assert out_a.getvalue() == "<TGraph @0x1000>\n"
        assert registry.find_global("gH").initial == ref(0)
    finally:
        a.shutdown()
        b.shutdown()


class SharedRegistry(RuleBasedStateMachine):
    """Two bridges and a standalone dispatcher on one registry.

    The model counts the undelivered calls of each engine that has not
    shut down, and of each bridge that was shut down but kept, and
    records which bridge created each macro object global. The members
    of `Registry.engines` are the live engines that have submitted.
    """

    def __init__(self) -> None:
        super().__init__()
        self.registry = Registry()
        self.bridges: dict[int, Bridge] = {}
        for key in (0, 1):
            self.bridges[key] = Bridge(registry=self.registry, workers=1, diag=io.StringIO())
        self.bridges[0].evalmacro(NAP_TEXT)
        self.bridges[0].evalmacro(json.dumps({"types": [{"name": "Box"}]}))
        self.heap = Heap(self.registry)
        self.engine = Dispatcher(self.heap, workers=1)
        self.pending = {0: 0, 1: 0, "engine": 0}  # engines that have not shut down
        self.joined: set = set()  # keys of those that have submitted
        self.stopped: dict[int, Bridge] = {}  # shut down, still referenced
        self.undelivered: dict[int, int] = {}  # their calls, which no longer count
        self.submitted = dict(self.pending)
        self.delivered: dict = {key: [] for key in self.pending}
        self.object_globals: dict[str, int] = {}  # name -> creating bridge
        self.names = 0

    def _fresh(self) -> str:
        self.names += 1
        return f"g{self.names}"

    def _live_bridge(self, data) -> int:
        return data.draw(st.sampled_from(sorted(self.bridges)))

    def _dispatcher(self, key) -> Dispatcher:
        return self.engine if key == "engine" else self.bridges[key].dispatcher

    def _expect_merge(self, apply) -> bool:
        """Run a registry change; True if it applied. Refused exactly while calls are pending."""
        version, total = self.registry.version, sum(self.pending.values())
        if total:
            with pytest.raises(NotQuiescent, match=_in_flight(total)):
                apply()
            assert self.registry.version == version
            return False
        apply()
        assert self.registry.version == version + 1
        return True

    @rule(data=st.data())
    def submit(self, data):
        key = data.draw(st.sampled_from(sorted(self.pending, key=str)))
        sink = self.delivered[key].append
        if key == "engine":
            self.engine.submit(CallTask(signature=_nap(20)), sink)
        else:
            assert self.bridges[key].invoke(FnRef("Nap"), [20.0, sink]).pending
        self.pending[key] += 1
        self.submitted[key] += 1
        self.joined.add(key)

    @precondition(lambda self: any(self.pending.values()))
    @rule(data=st.data())
    def drain(self, data):
        key = data.draw(st.sampled_from(sorted((k for k, n in self.pending.items() if n), key=str)))
        assert self._dispatcher(key).drain(5000)
        self.pending[key] = 0
        assert self.delivered[key] == [20.0 if key != "engine" else VOID] * self.submitted[key]

    @rule(data=st.data())
    def merge_a_global(self, data):
        text = _global_text(self._fresh())
        via = data.draw(st.sampled_from([*sorted(self.bridges), "merge"]))
        if via == "merge":
            self._expect_merge(lambda: merge(self.registry, parse_manifest(text), self.heap))
        else:
            self._expect_merge(lambda: self.bridges[via].evalmacro(text))

    @precondition(lambda self: self.bridges)
    @rule(data=st.data())
    def create_object_global(self, data):
        key = self._live_bridge(data)
        name = self._fresh()
        text = json.dumps({"statements": [
            {"op": "gset", "name": name, "value": {"op": "new", "type": "Box", "args": []}}]})
        if self._expect_merge(lambda: self.bridges[key].evalmacro(text)):
            self.object_globals[name] = key

    @precondition(lambda self: self.bridges)
    @rule(data=st.data())
    def discard_bridge(self, data):
        key = self._live_bridge(data)
        self.bridges.pop(key).shutdown()
        del self.pending[key]
        self.joined.discard(key)

    @precondition(lambda self: any(self.pending.get(key) for key in self.bridges))
    @rule(data=st.data())
    def shut_down_with_calls_pending(self, data):
        key = data.draw(st.sampled_from(sorted(k for k in self.bridges if self.pending[k])))
        bridge = self.bridges.pop(key)
        bridge.shutdown()
        self.stopped[key] = bridge
        self.undelivered[key] = self.pending.pop(key)
        self.joined.discard(key)

    @precondition(lambda self: any(self.undelivered.values()))
    @rule(data=st.data())
    def pump_a_shut_down_bridge(self, data):
        self._pump(data.draw(st.sampled_from(sorted(k for k, n in self.undelivered.items() if n))))

    def _pump(self, key: int) -> None:
        """Each undelivered call of a shut-down bridge is delivered exactly once."""
        dispatcher = self.stopped[key].dispatcher
        assert dispatcher.process_events() == self.undelivered[key]
        assert dispatcher.process_events() == 0
        self.undelivered[key] = 0
        assert self.delivered[key] == [20.0] * self.submitted[key]

    @invariant()
    def the_members_are_the_live_engines_that_submitted(self):
        assert self.registry.engines == {self._dispatcher(key) for key in self.joined}

    @invariant()
    def object_globals_are_their_creators_own(self):
        for name, creator in self.object_globals.items():
            for key, bridge in self.bridges.items():
                bridge.refresh()
                value = bridge.get_member(NsRef(""), name)
                if key == creator:
                    assert isinstance(value, Proxy) and value.type_name == "Box"
                    assert bridge.heap.normalize(value.canonical) == value.canonical
                else:
                    assert value is None
            assert self.heap.read_global(name) == ref(0)

    def teardown(self) -> None:
        for bridge in self.bridges.values():
            bridge.shutdown()
        self.engine.shutdown()
        for key in self.stopped:
            self._pump(key)


SharedRegistry.TestCase.settings = settings(max_examples=25, stateful_step_count=15, deadline=None)
test_shared_registry = SharedRegistry.TestCase
