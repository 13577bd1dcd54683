"""REPL session semantics: persistent environment, pumping, meta commands."""

from __future__ import annotations

import io
import json
import time

import pytest

from rjs import Bridge
from rjs.errors import EngineStopped
from rjs.registry import merge, parse_manifest
from rjs.repl import ReplSession, Session, render_tree
from rjs.script import CLOSED, parse


@pytest.fixture
def session(bridge):
    out = io.StringIO()
    return ReplSession(bridge, out), out


def test_bare_expression_prints(session):
    repl, _ = session
    assert repl.step("1+1") == "2\n"


def test_let_binding_persists_across_steps(session):
    repl, _ = session
    assert repl.step("let x = 21;") == ""
    assert repl.step("x * 2") == "42\n"


def test_null_results_are_suppressed(session):
    repl, _ = session
    assert repl.step("null") == ""


def test_errors_render_and_session_survives(session):
    repl, _ = session
    text = repl.step("nope")
    assert "ScriptNameError" in text
    assert repl.step("2+2") == "4\n"
    text = repl.step("let x = ;")
    assert "ParseError" in text


def test_a_trailing_comment_does_not_swallow_the_added_semicolon(session):
    repl, _ = session
    assert repl.step("print(1 + 2) // sum") == "3\n"
    assert repl.step("let x = 2 // two; still a comment") == ""
    assert repl.step("x * 3 // six") == "6\n"
    assert repl.step("x; // a statement ends here") == "2\n"
    assert repl.step("// only a comment") == ""
    assert repl.step('print("a // b")') == "a // b\n"


def test_error_positions_of_lines_without_comments_are_the_added_semicolons(session):
    repl, _ = session
    assert repl.step("let x =") == "error: ParseError: 1:8: unexpected token ';'\n"
    assert repl.step("(1") == "error: ParseError: 1:3: expected ')', found ';'\n"
    assert repl.step('x = "a\\') == "error: LexError: 1:8: unknown escape \\;\n"


def test_runaway_recursion_renders_and_session_survives(session, bridge, sample_plugin):
    repl, _ = session
    merge(bridge.registry, parse_manifest(json.dumps({"types": [{
        "name": "Loop",
        "ctors": [{"params": [], "body": [{"op": "new", "type": "Loop", "args": []}]}],
    }]})), bridge.heap)
    bridge.refresh()
    assert repl.step("let f = fn() { f(); };") == ""
    assert repl.step("f();") == "error: ScriptRecursionError: script calls nested too deep\n"
    assert repl.step("2+2") == "4\n"
    repl.step(f'root.loadlibrary("{sample_plugin}");')
    repl.step('let h = root.TH1D("h", "t"); let g = fn() { h.Fill(0.5); g(); };')
    assert repl.step("g();") == "error: ScriptRecursionError: script calls nested too deep\n"
    objects = dict(bridge.heap.objects)
    text = repl.step("root.Loop();")
    assert text == "error: HostExecError: stack exhausted while running a host body\n"
    assert bridge.heap.objects == objects
    assert repl.active and repl.step("2+3") == "5\n"


def test_recursion_through_evalmacro_renders_and_session_survives(session):
    repl, _ = session
    macro = json.dumps({"statements": [{"op": "ret", "value": {"op": "const", "value": 1}}]})
    assert repl.step(f"let f = fn() {{ root.evalmacro({json.dumps(macro)}); f(); }};") == ""

    def step_below(frames: int) -> str:
        return step_below(frames - 1) if frames else repl.step("f();")

    for frames in range(24):
        assert step_below(frames) == "error: ScriptRecursionError: script calls nested too deep\n", frames
    assert repl.active and repl.step("2+3") == "5\n"


def test_async_callback_appears_after_explicit_pump(session, sample_plugin):
    repl, _ = session
    repl.step(f'root.loadlibrary("{sample_plugin}");')
    first = repl.step('root.TFile.Open("f.root", fn(f) { print(f.GetName()); });')
    assert "f.root" not in first  # body sleeps; auto-pump ran too early
    time.sleep(0.08)
    assert repl.step(".pump") == "f.root\n"


def test_auto_pump_delivers_fast_completions(session, bridge):
    repl, _ = session
    merge(bridge.registry, parse_manifest(json.dumps({
        "functions": [{"name": "Echo", "params": ["i64"], "returns": "i64",
                       "body": [{"op": "ret", "value": {"op": "param", "index": 0}}]}]})),
        bridge.heap)
    bridge.refresh()
    repl.step("root.Echo(5, fn(v) { print(v); });")
    time.sleep(0.08)
    out = repl.step("1;")  # next step's auto-pump delivers
    assert "5" in out


def test_tree_on_empty_registry(session):
    repl, _ = session
    assert repl.step(".tree") == "(empty)\n"


def test_tree_lists_sample_names_sorted(session, sample_plugin, bridge):
    repl, _ = session
    repl.step(f'root.loadlibrary("{sample_plugin}");')
    text = repl.step(".tree")
    assert text == render_tree(bridge.registry)
    lines = text.splitlines()
    tree_part = lines[: lines.index("enums:")]
    top_level = [l for l in tree_part if l and not l.startswith(" ")]
    assert top_level == sorted(top_level)


def test_quit_ends_session(session):
    repl, _ = session
    repl.step(".quit")
    assert repl.active is False


def test_unknown_meta_command(session):
    repl, _ = session
    assert "unknown command" in repl.step(".bogus")


def test_async_fault_prints_into_session(session, bridge):
    repl, _ = session
    merge(bridge.registry, parse_manifest(json.dumps({
        "functions": [{"name": "Bad", "params": [], "returns": "i64", "body": [
            {"op": "ret", "value": {"op": "bin", "o": "/",
                                    "l": {"op": "const", "value": 1},
                                    "r": {"op": "const", "value": 0}}}]}]})),
        bridge.heap)
    bridge.refresh()
    repl.step("root.Bad(fn(v) { print(v); });")
    time.sleep(0.08)
    text = repl.step(".pump")
    assert "HostExecError" in text and "division" in text


def test_an_async_fault_prints_one_line_into_the_session_and_none_to_diag(session, bridge):
    repl, out = session
    merge(bridge.registry, parse_manifest(json.dumps({
        "functions": [{"name": "Bad", "params": [], "returns": "i64", "body": [
            {"op": "ret", "value": {"op": "bin", "o": "/",
                                    "l": {"op": "const", "value": 1},
                                    "r": {"op": "const", "value": 0}}}]}]})),
        bridge.heap)
    bridge.refresh()
    expected = "async call #1 failed: HostExecError: integer division by zero\n"
    repl.step("root.Bad(fn(v) { print(v); });")
    deadline = time.monotonic() + 5
    while out.getvalue() != expected and time.monotonic() < deadline:
        time.sleep(0.01)
        repl.step(".pump")
    assert out.getvalue() == expected
    assert bridge.diag.getvalue() == ""


def test_output_also_written_to_stream(session):
    repl, out = session
    repl.step("print(7);")
    assert out.getvalue() == "7\n"


# -- closing a session --------------------------------------------------------------------

ECHO = json.dumps({"functions": [{"name": "Echo", "params": ["i64"], "returns": "i64",
                                  "body": [{"op": "ret", "value": {"op": "param", "index": 0}}]}]})


def test_a_closure_called_after_close_raises_engine_stopped(bridge):
    merge(bridge.registry, parse_manifest(ECHO), bridge.heap)
    bridge.refresh()
    session = Session(bridge, io.StringIO())
    session.interp.run(parse("let f = fn() { root.Echo(1); }; let p = fn() { pump(); };"), session.env)
    f, p = session.env.get("f"), session.env.get("p")
    assert f() == 1.0
    session.close()
    session.close()  # a second close does nothing
    assert session.env.bindings == {} and session.interp.bridge is CLOSED
    for closure in (f, p):
        with pytest.raises(EngineStopped, match="session has been closed"):
            closure()


def test_a_callback_delivered_after_close_reaches_the_error_sink_once_as_engine_stopped():
    bridge = Bridge(workers=1, diag=io.StringIO())
    merge(bridge.registry, parse_manifest(ECHO), bridge.heap)
    bridge.refresh()
    sunk: list[tuple[int, Exception]] = []
    bridge.error_sink = lambda call_id, exc: sunk.append((call_id, exc))
    session = Session(bridge, io.StringIO())
    session.interp.run(parse("root.Echo(5, fn(v) { root.Echo(v); });"), session.env)
    session.close(wait=False)
    deadline = time.monotonic() + 5
    while bridge.registry.engines and time.monotonic() < deadline:  # the worker posts, then exits
        time.sleep(0.01)
    assert not bridge.registry.engines
    assert bridge.dispatcher.process_events() == 1
    assert bridge.dispatcher.process_events() == 0
    assert [(call_id, type(exc)) for call_id, exc in sunk] == [(1, EngineStopped)]
    assert bridge.async_faults == sunk
