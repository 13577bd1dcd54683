"""Exit codes and stream behaviour of the command-line front door."""

from __future__ import annotations

import gc
import io
import json
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import rjs.cli
from rjs import Bridge
from rjs.cli import cmd_inspect, cmd_repl, cmd_run, main
from rjs.registry import merge, parse_manifest


LOOP_PLUGIN = json.dumps({"types": [{
    "name": "Loop",
    "fields": [{"name": "n", "kind": "i64"}],
    "ctors": [{"params": [], "body": [{"op": "new", "type": "Loop", "args": []}]}],
}]})
ECHO_PLUGIN = json.dumps({"functions": [{
    "name": "Echo", "params": ["f64"], "returns": "f64",
    "body": [{"op": "ret", "value": {"op": "param", "index": 0}}],
}]})


SAMPLE_PLUGIN = (Path(__file__).resolve().parents[1] / "plugins" / "sample.plugin").read_text()


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_pi_script(tmp_path, math_plugin):
    script = write(tmp_path, "s.rjs", "print(root.ROOT.Math.Pi());")
    out, diag = io.StringIO(), io.StringIO()
    code = cmd_run(script, [str(math_plugin)], out=out, diag=diag)
    assert code == 0
    assert out.getvalue() == "3.141592653589793\n"
    assert diag.getvalue() == ""


def test_run_loads_plugins_in_order(tmp_path):
    first = write(tmp_path, "a.plugin", json.dumps(
        {"globals": [{"name": "g", "kind": "i64", "initial": 1}]}))
    second = write(tmp_path, "b.plugin", json.dumps(
        {"types": [{"name": "T"}]}))
    script = write(tmp_path, "s.rjs", "print(root.g);")
    out = io.StringIO()
    assert cmd_run(script, [first, second], out=out, diag=io.StringIO()) == 0
    assert out.getvalue() == "1\n"


def test_run_script_fault_exits_1(tmp_path):
    script = write(tmp_path, "s.rjs", "print(missing);")
    diag = io.StringIO()
    assert cmd_run(script, [], out=io.StringIO(), diag=diag) == 1
    assert "ScriptNameError" in diag.getvalue()


def test_run_async_fault_exits_1(tmp_path):
    plugin = write(tmp_path, "p.plugin", json.dumps({
        "functions": [{"name": "Bad", "params": [], "returns": "i64", "body": [
            {"op": "ret", "value": {"op": "bin", "o": "/",
                                    "l": {"op": "const", "value": 1},
                                    "r": {"op": "const", "value": 0}}}]}],
    }))
    script = write(tmp_path, "s.rjs", "root.Bad(fn(v) { print(v); });")
    out, diag = io.StringIO(), io.StringIO()
    assert cmd_run(script, [plugin], out=out, diag=diag) == 1
    assert "division by zero" in diag.getvalue()
    assert out.getvalue() == ""


def test_run_unparseable_plugin_exits_1_before_script(tmp_path):
    plugin = write(tmp_path, "p.plugin", "{ not json")
    script = write(tmp_path, "s.rjs", 'print("must not run");')
    out, diag = io.StringIO(), io.StringIO()
    assert cmd_run(script, [plugin], out=out, diag=diag) == 1
    assert out.getvalue() == ""
    assert "ParseError" in diag.getvalue()


def test_run_missing_script_exits_1(tmp_path):
    diag = io.StringIO()
    assert cmd_run(str(tmp_path / "nope.rjs"), [], out=io.StringIO(), diag=diag) == 1
    assert "cannot read script" in diag.getvalue()


def _unreadable(tmp_path: Path, name: str, how: str) -> str:
    path = tmp_path / name
    if how == "directory":
        path.mkdir()
    elif how == "not utf-8":
        path.write_bytes(b'{"globals": []}\xff\n')
    return str(path)


@pytest.mark.parametrize("how", ["missing", "directory", "not utf-8"])
@pytest.mark.parametrize("entry", [
    "run script", "run --plugin", "inspect --plugin", "run loadlibrary", "repl loadlibrary",
])
def test_unreadable_input_never_prints_a_traceback(tmp_path, entry, how):
    bad = _unreadable(tmp_path, "bad.rjs" if entry == "run script" else "bad.plugin", how)
    stdin, rendered = "", f"LoadError: cannot read plugin {bad!r}: "
    match entry:
        case "run script":
            argv, rendered = ["run", bad], f"cannot read script {bad!r}: "
        case "run --plugin":
            argv = ["run", write(tmp_path, "s.rjs", 'print("must not run");'), "--plugin", bad]
            rendered = f"plugin {bad}: {rendered}"
        case "inspect --plugin":
            argv, rendered = ["inspect", "--tree", "--plugin", bad], f"plugin {bad}: {rendered}"
        case "run loadlibrary":
            script = f'root.loadlibrary({json.dumps(bad)});\nprint("must not run");\n'
            argv = ["run", write(tmp_path, "s.rjs", script)]
        case _:
            argv, stdin = ["repl"], f"root.loadlibrary({json.dumps(bad)});\n1+1\n.quit\n"
    result = subprocess.run([sys.executable, "-m", "rjs.cli", *argv], input=stdin, cwd=tmp_path,
                            capture_output=True, text=True, timeout=60)
    assert "Traceback" not in result.stderr
    if entry.startswith("repl"):  # the session renders the fault and goes on
        assert result.returncode == 0 and result.stderr == ""
        failed, _, rest = result.stdout.partition(f"error: {rendered}")
        assert failed == "rjs> " and "\nrjs> 2\nrjs> " in rest
    else:
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith(rendered)
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


@pytest.mark.parametrize("source, plugins, error", [
    ("let f = fn() { f(); };\nf();\n", {}, "ScriptRecursionError: script calls nested too deep"),
    ("let l = root.Loop();\n", {"loop.plugin": LOOP_PLUGIN},
     "HostExecError: stack exhausted while running a host body"),
    ("root.Echo(3, fn(v) { let g = fn() { g(); }; g(); });\n", {"echo.plugin": ECHO_PLUGIN},
     "async call #1 failed: ScriptRecursionError: script calls nested too deep"),
    ('let h = root.TH1D("h","t"); let f = fn() { h.Fill(0.5); f(); }; f();\n',
     {"sample.plugin": SAMPLE_PLUGIN}, "ScriptRecursionError: script calls nested too deep"),
])
def test_run_runaway_recursion_exits_1_with_one_line(tmp_path, source, plugins, error):
    paths = [write(tmp_path, name, text) for name, text in plugins.items()]
    script = write(tmp_path, "s.rjs", source)
    out, diag = io.StringIO(), io.StringIO()
    assert cmd_run(script, paths, out=out, diag=diag) == 1
    assert diag.getvalue() == error + "\n"
    assert out.getvalue() == ""


def test_script_recursion_through_a_host_call_is_a_script_error_at_any_stack_depth(tmp_path):
    plugin = write(tmp_path, "sample.plugin", SAMPLE_PLUGIN)
    script = write(tmp_path, "s.rjs", 'let h = root.TH1D("h","t"); let f = fn() { h.Fill(0.5); f(); }; f();')

    def run_below(frames: int) -> str:
        if frames:
            return run_below(frames - 1)
        diag = io.StringIO()
        assert cmd_run(script, [plugin], out=io.StringIO(), diag=diag) == 1
        return diag.getvalue()

    # the stack runs out at a different point of each script call level for each start depth
    for frames in range(12):
        assert run_below(frames) == "ScriptRecursionError: script calls nested too deep\n", frames


def test_script_recursion_through_evalmacro_is_a_script_error_at_any_stack_depth(tmp_path):
    macro = json.dumps({"statements": [{"op": "ret", "value": {"op": "const", "value": 1}}]})
    script = write(tmp_path, "s.rjs", f"let f = fn() {{ root.evalmacro({json.dumps(macro)}); f(); }}; f();")

    def run_below(frames: int) -> str:
        if frames:
            return run_below(frames - 1)
        diag = io.StringIO()
        assert cmd_run(script, [], out=io.StringIO(), diag=diag) == 1
        return diag.getvalue()

    # the stack runs out inside the macro's parse: the script, not the macro, is at fault
    for frames in range(24):
        assert run_below(frames) == "ScriptRecursionError: script calls nested too deep\n", frames


def test_run_macro_with_an_f64_initial_beyond_binary64_exits_1(tmp_path):
    huge = 10**400
    macro = json.dumps({"globals": [{"name": "g", "kind": "f64", "initial": huge}]})
    script = write(tmp_path, "s.rjs", f"root.evalmacro({json.dumps(macro)});")
    out, diag = io.StringIO(), io.StringIO()
    assert cmd_run(script, [], out=out, diag=diag) == 1
    assert diag.getvalue() == f"ValidationError: global g: initial {huge} outside the f64 range\n"
    assert out.getvalue() == ""


def test_sync_only_run_starts_no_worker_thread(tmp_path, sample_plugin, monkeypatch):
    script = write(tmp_path, "s.rjs", 'let h = root.TH1D("h", "t"); h.Fill(0.5); print(h.GetEntries());')
    before = set(threading.enumerate())
    during: list[threading.Thread] = []
    shutdown = Bridge.shutdown

    def look_then_shutdown(bridge):
        during.extend(threading.enumerate())
        shutdown(bridge)

    monkeypatch.setattr(Bridge, "shutdown", look_then_shutdown)
    out = io.StringIO()
    assert cmd_run(script, [str(sample_plugin)], out=out, diag=io.StringIO()) == 0
    assert out.getvalue() == "1\n"
    assert during
    assert [t.name for t in during if t not in before and t.name.startswith("rjs-worker-")] == []


NAP_PLUGIN = json.dumps({"functions": [{
    "name": "Nap", "params": [], "returns": "void", "body": [
        {"op": "builtin", "name": "sleep_ms", "args": [{"op": "const", "value": 5}]}],
}]})


@pytest.mark.parametrize("source", [
    "let f = fn(v) { print(v); }; f(1);",
    "let a = fn() { b(); }; let b = fn() { print(1); }; a();",
    "let done = fn(v) { print(done); }; root.Nap(done);",
])
def test_a_finished_run_is_freed_without_a_collection(tmp_path, monkeypatch, source):
    plugin = write(tmp_path, "p.plugin", NAP_PLUGIN)
    script = write(tmp_path, "s.rjs", source)
    refs: list[weakref.ref] = []

    def recording_bridge(**kwargs):
        bridge = Bridge(**kwargs)
        refs.append(weakref.ref(bridge))
        return bridge

    monkeypatch.setattr(rjs.cli, "Bridge", recording_bridge)
    gc.disable()
    try:
        assert cmd_run(script, [plugin], out=io.StringIO(), diag=io.StringIO()) == 0
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


INNER_CLOSURES = [
    "let f = fn() { let g = fn() { g; }; g(); }; f();",
    "let mk = fn() { let g = fn() { 1; }; g; }; let h = mk(); h();",
    "let f = fn() { let l = root.loadlibrary; let g = fn() { g; }; g(); }; f();",
]


def recording_bridges(monkeypatch) -> list[weakref.ref]:
    """Weak references to every bridge `rjs.cli` builds from now on."""
    refs: list[weakref.ref] = []

    def recording_bridge(**kwargs):
        bridge = Bridge(**kwargs)
        refs.append(weakref.ref(bridge))
        return bridge

    monkeypatch.setattr(rjs.cli, "Bridge", recording_bridge)
    return refs


@pytest.mark.parametrize("source", INNER_CLOSURES)
def test_a_run_whose_call_scope_holds_a_closure_is_freed_without_a_collection(tmp_path, monkeypatch, source):
    script = write(tmp_path, "s.rjs", source)
    refs = recording_bridges(monkeypatch)
    gc.disable()
    try:
        assert cmd_run(script, [], out=io.StringIO(), diag=io.StringIO()) == 0
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def test_an_async_callback_reads_the_top_level_scope_during_the_drain(tmp_path):
    plugin = write(tmp_path, "p.plugin", NAP_PLUGIN)
    script = write(tmp_path, "s.rjs", 'let x = 1; let show = fn(v) { print(x, v); }; root.Nap(show); x = 2;')
    out, diag = io.StringIO(), io.StringIO()
    assert cmd_run(script, [plugin], out=out, diag=diag) == 0
    assert (out.getvalue(), diag.getvalue()) == ("2 null\n", "")


def test_run_drain_timeout_exits_2(tmp_path):
    plugin = write(tmp_path, "p.plugin", json.dumps({
        "functions": [{"name": "Nap", "params": [], "returns": "void", "body": [
            {"op": "builtin", "name": "sleep_ms", "args": [{"op": "const", "value": 400}]}]}],
    }))
    script = write(tmp_path, "s.rjs", "root.Nap(fn(v) { v; });")
    diag = io.StringIO()
    code = cmd_run(script, [plugin], drain_timeout_ms=10, out=io.StringIO(), diag=diag)
    assert code == 2
    assert "drain timed out" in diag.getvalue()


def test_a_timed_out_drain_exits_without_waiting_for_the_body(tmp_path, monkeypatch):
    plugin = write(tmp_path, "p.plugin", json.dumps({
        "functions": [{"name": "Nap", "params": [], "returns": "void", "body": [
            {"op": "builtin", "name": "sleep_ms", "args": [{"op": "const", "value": 3000}]}]}],
    }))
    script = write(tmp_path, "s.rjs", "root.Nap(fn(v) { v; });")
    bridges: list[Bridge] = []

    def recording_bridge(**kwargs):
        bridges.append(Bridge(**kwargs))
        return bridges[-1]

    monkeypatch.setattr(rjs.cli, "Bridge", recording_bridge)
    diag = io.StringIO()
    start = time.monotonic()
    assert cmd_run(script, [plugin], drain_timeout_ms=100, out=io.StringIO(), diag=diag) == 2
    assert time.monotonic() - start < 1.0
    assert diag.getvalue() == "drain timed out after 100 ms with 1 call(s) pending\n"
    registry = bridges[0].registry
    deadline = start + 3.0 + 5.0
    while registry.engines and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not registry.engines
    merge(registry, parse_manifest(json.dumps({"namespaces": ["After"]})))
    assert registry.version == 2


def test_run_deterministic_output(tmp_path, sample_plugin):
    script = write(
        tmp_path, "s.rjs",
        'let h = root.TH1D("h", "t");\n'
        'h.Fill(0.5); h.Fill(0.5, 2); h.Fill("left", 3);\n'
        'print(h.GetEntries()); print(h.GetSumOfWeights());\n',
    )
    outputs = set()
    for _ in range(3):
        out = io.StringIO()
        assert cmd_run(script, [str(sample_plugin)], out=out, diag=io.StringIO()) == 0
        outputs.add(out.getvalue())
    assert outputs == {"3\n6\n"}


def test_inspect_tree_matches_golden(sample_plugin, repo_root):
    out = io.StringIO()
    assert cmd_inspect([str(sample_plugin)], out=out, diag=io.StringIO()) == 0
    golden = (repo_root / "tests" / "golden" / "sample_tree.txt").read_text()
    assert out.getvalue() == golden


def test_inspect_contains_pi_line(math_plugin):
    out = io.StringIO()
    assert cmd_inspect([str(math_plugin)], out=out, diag=io.StringIO()) == 0
    assert "ROOT/" in out.getvalue()
    assert "Math/" in out.getvalue()
    assert "Pi() -> f64" in out.getvalue()


def test_inspect_empty():
    out = io.StringIO()
    assert cmd_inspect([], out=out, diag=io.StringIO()) == 0
    assert out.getvalue() == "(empty)\n"


def test_inspect_conflicting_plugins_exits_1(tmp_path):
    plugin = write(tmp_path, "p.plugin", json.dumps({"types": [{"name": "T"}]}))
    diag = io.StringIO()
    assert cmd_inspect([plugin, plugin], out=io.StringIO(), diag=diag) == 1
    assert "ConflictError" in diag.getvalue()


def test_inspect_unreadable_plugin_exits_1_with_the_run_line(tmp_path):
    missing = str(tmp_path / "absent.plugin")
    script = write(tmp_path, "s.rjs", 'print("must not run");')
    inspect_out, inspect_diag, run_diag = io.StringIO(), io.StringIO(), io.StringIO()
    assert cmd_inspect([missing], out=inspect_out, diag=inspect_diag) == 1
    assert cmd_run(script, [missing], out=io.StringIO(), diag=run_diag) == 1
    assert inspect_out.getvalue() == ""
    line = inspect_diag.getvalue()
    assert line.startswith(f"plugin {missing}: LoadError: cannot read plugin {missing!r}: ")
    assert line.count("\n") == 1 and line.endswith("\n")
    assert line == run_diag.getvalue()


def test_repl_session_flow(sample_plugin):
    stdin = io.StringIO(".tree\n1+1\n.quit\n")
    out = io.StringIO()
    assert cmd_repl([str(sample_plugin)], stdin=stdin, out=out, diag=io.StringIO()) == 0
    text = out.getvalue()
    assert "rjs> " in text
    assert "TVector3" in text
    assert "2\n" in text


def test_repl_empty_start():
    stdin = io.StringIO(".tree\n.quit\n")
    out = io.StringIO()
    assert cmd_repl([], stdin=stdin, out=out, diag=io.StringIO()) == 0
    assert "(empty)" in out.getvalue()


def test_repl_eof_ends_session():
    stdin = io.StringIO("1+1\n")
    out = io.StringIO()
    assert cmd_repl([], stdin=stdin, out=out, diag=io.StringIO()) == 0


def test_main_dispatches(tmp_path, math_plugin, capsys):
    script = write(tmp_path, "s.rjs", "print(root.ROOT.Math.Pi());")
    code = main(["run", str(script), "--plugin", str(math_plugin)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "3.141592653589793\n"
    assert main(["inspect", "--tree"]) == 0


def test_a_finished_repl_session_is_freed_without_a_collection(monkeypatch):
    refs: list[weakref.ref] = []

    def recording_bridge(**kwargs):
        bridge = Bridge(**kwargs)
        refs.append(weakref.ref(bridge))
        return bridge

    monkeypatch.setattr(rjs.cli, "Bridge", recording_bridge)
    stdin = io.StringIO("let f = fn() { f; };\n")
    gc.disable()
    try:
        assert cmd_repl([], stdin=stdin, out=io.StringIO(), diag=io.StringIO()) == 0
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def test_a_repl_session_whose_call_scope_holds_a_closure_is_freed_without_a_collection(monkeypatch):
    refs = recording_bridges(monkeypatch)
    stdin = io.StringIO(INNER_CLOSURES[0] + "\n")
    gc.disable()
    try:
        out = io.StringIO()
        assert cmd_repl([], stdin=stdin, out=out, diag=io.StringIO()) == 0
        assert "error" not in out.getvalue()
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()
