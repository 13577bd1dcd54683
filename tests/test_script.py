"""Lexer, parser, evaluator and closure semantics."""

from __future__ import annotations

import dataclasses
import gc
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rjs.errors import LexError, ParseError, ScriptNameError, ScriptRecursionError, ScriptTypeError
from rjs.registry import eval_macro, merge, parse_manifest
from rjs.script import (
    Interpreter,
    SAssign,
    SBin,
    SBool,
    SCall,
    SExprStmt,
    SFn,
    SIdent,
    SLet,
    SMember,
    SNull,
    SNum,
    SStr,
    parse,
    pretty,
    render_value,
    tokenize,
)

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


@pytest.fixture
def session(bridge):
    out = io.StringIO()
    interp = Interpreter(bridge, out)
    return bridge, interp, out


def run(session, source: str) -> str:
    bridge, interp, out = session
    interp.run(parse(source))
    return out.getvalue()


# -- lexer / parser ---------------------------------------------------------------


def test_let_statement_parses():
    program = parse("let x = 1.5;")
    assert program == (SLet("x", SNum(1.5)),)


def test_async_open_call_shape():
    program = parse('root.TFile.Open("foo.root", fn(f){ f.ls(); });')
    stmt = program[0]
    call = stmt.value
    assert isinstance(call, SCall)
    assert call.fn == SMember(SMember(SIdent("root"), "TFile"), "Open")
    assert isinstance(call.args[0], SStr)
    assert isinstance(call.args[1], SFn)
    assert call.args[1].params == ("f",)


def test_unterminated_string_reports_opening_quote():
    with pytest.raises(LexError) as excinfo:
        tokenize('let s = "abc')
    assert (excinfo.value.line, excinfo.value.col) == (1, 9)


@pytest.mark.parametrize("source, message, position", [
    ("x = 1e+;", "malformed exponent", (1, 5)),
    ('x = "a\\qb";', "unknown escape \\q", (1, 8)),
    ('x = "a\\q', "unknown escape \\q", (1, 8)),
    ('x = "a\\\nb";', "unknown escape \\\n", (1, 8)),
    ('x = "a\\', "unterminated string", (1, 5)),
    ('x = "a\nb";', "unterminated string", (1, 5)),
    ("\tx = ²;", "unexpected character '²'", (1, 6)),
    ("x = ½;", "unexpected character '½'", (1, 5)),
    ("x\r\n  = #;", "unexpected character '#'", (2, 5)),
])
def test_lex_errors_and_their_positions(source, message, position):
    with pytest.raises(LexError) as excinfo:
        tokenize(source)
    assert excinfo.value.args[0] == message
    assert (excinfo.value.line, excinfo.value.col) == position


def test_deep_nesting_is_a_parse_error_at_the_current_token():
    with pytest.raises(ParseError, match="nesting too deep") as excinfo:
        parse("(" * 3000 + "1" + ")" * 3000 + ";")
    assert excinfo.value.line == 1 and 1 < excinfo.value.col <= 3000


def _deepest_parseable(nest) -> int:
    low, high = 1, 4000
    while low < high:
        mid = (low + high + 1) // 2
        try:
            parse(nest(mid))
            low = mid
        except ParseError:
            high = mid - 1
    return low


@pytest.mark.parametrize("nest", [
    lambda n: "let x = " + "+".join(["1"] * (n + 1)) + ";",  # the parser loops; eval and pretty recurse
    lambda n: "let f = fn(a) { a; };\nlet x = " + "f(" * n + "1" + ")" * n + ";",
], ids=["sum_chain", "nested_calls"])
def test_programs_deeper_than_the_stack_fail_with_a_script_error(session, nest):
    program = parse(nest(_deepest_parseable(nest)))
    _, interp, _ = session
    with pytest.raises(ScriptRecursionError, match="script calls nested too deep"):
        interp.run(program)
    with pytest.raises(ScriptRecursionError, match="program nested too deep to render"):
        pretty(program)


def test_lex_positions():
    tokens = tokenize("let x = 1;\nlet y = 2;")
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    second_let = [t for t in tokens if t.text == "y"][0]
    assert second_let.line == 2


def test_tokenize_builds_no_object_per_token():
    """With the collector off, generation 0's count grows by each GC-tracked
    object made and still alive: four times the tokens may add only the
    few objects that do not depend on the length."""
    source = 'let h = root.TH1D("h", "a\\tb"); // note\nh.Fill(1.5e2, 2) + -x;\n'

    def tracked_objects_made(src: str) -> tuple[int, int]:
        before = gc.get_count()[0]
        tokens = tokenize(src)
        return gc.get_count()[0] - before, len(tokens)

    enabled = gc.isenabled()
    gc.disable()
    try:
        once, count = tracked_objects_made(source)
        four_times, count_four = tracked_objects_made(source * 4)
    finally:
        if enabled:
            gc.enable()
    assert count_four == 4 * count - 3  # one eof
    assert four_times - once <= 4, (once, four_times)


def test_parse_error_position():
    with pytest.raises(ParseError) as excinfo:
        parse("let = 3;")
    assert excinfo.value.line == 1 and excinfo.value.col == 5


def _preorder(node):
    """(node class, pos) for `node` and then each child node, in field order."""
    yield type(node).__name__, node.pos
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(child):
                yield from _preorder(child)


def test_every_node_kind_records_its_position():
    program = parse(
        'let f = fn(x, y) { x * (y - 1); };\n'
        'f = f(2, "s") + true % null;\n'
        '  root.T.n = f / root.T.Get();\n'
    )
    assert [entry for stmt in program for entry in _preorder(stmt)] == [
        ("SLet", (1, 1)), ("SFn", (1, 9)), ("SExprStmt", (1, 20)), ("SBin", (1, 22)),
        ("SIdent", (1, 20)), ("SBin", (1, 27)), ("SIdent", (1, 25)), ("SNum", (1, 29)),
        ("SAssign", (2, 1)), ("SIdent", (2, 1)), ("SBin", (2, 15)), ("SCall", (2, 6)),
        ("SIdent", (2, 5)), ("SNum", (2, 7)), ("SStr", (2, 10)), ("SBin", (2, 22)),
        ("SBool", (2, 17)), ("SNull", (2, 24)),
        ("SAssign", (3, 3)), ("SMember", (3, 10)), ("SMember", (3, 8)), ("SIdent", (3, 3)),
        ("SBin", (3, 16)), ("SIdent", (3, 14)), ("SCall", (3, 28)), ("SMember", (3, 25)),
        ("SMember", (3, 23)), ("SIdent", (3, 18)),
    ]


def test_missing_semicolon_rejected():
    with pytest.raises(ParseError):
        parse("let x = 1")


def test_comments_are_skipped():
    assert parse("// nothing\nlet x = 1; // trailing\n") == (SLet("x", SNum(1.0)),)


def test_precedence_and_grouping():
    program = parse("1 + 2 * 3;")
    expr = program[0].value
    assert expr == SBin("+", SNum(1.0), SBin("*", SNum(2.0), SNum(3.0)))
    grouped = parse("(1 + 2) * 3;")[0].value
    assert grouped == SBin("*", SBin("+", SNum(1.0), SNum(2.0)), SNum(3.0))


def test_assignment_only_to_names_and_members():
    parse("x = 1;")
    parse("a.b = 2;")
    with pytest.raises(ParseError):
        parse("f() = 3;")


# -- pretty round trip ----------------------------------------------------------------

_ident = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in ("let", "fn", "true", "false", "null")
)


@st.composite
def _exprs(draw, depth: int = 0):
    choices = ["num", "str", "bool", "null", "ident"]
    if depth < 3:
        choices += ["member", "call", "bin", "fn"]
    kind = draw(st.sampled_from(choices))
    if kind == "num":
        return SNum(float(draw(st.integers(0, 99))) + draw(st.sampled_from([0.0, 0.5])))
    if kind == "str":
        return SStr(draw(st.text(alphabet="abc xyz", max_size=6)))
    if kind == "bool":
        return SBool(draw(st.booleans()))
    if kind == "null":
        return SNull()
    if kind == "ident":
        return SIdent(draw(_ident))
    if kind == "member":
        return SMember(draw(_exprs(depth + 1)), draw(_ident))
    if kind == "call":
        args = tuple(draw(st.lists(_exprs(depth + 1), max_size=2)))
        return SCall(draw(_exprs(depth + 1)), args)
    if kind == "bin":
        op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
        return SBin(op, draw(_exprs(depth + 1)), draw(_exprs(depth + 1)))
    body = tuple(draw(st.lists(_stmts(depth + 1), max_size=2)))
    params = tuple(draw(st.lists(_ident, max_size=2, unique=True)))
    return SFn(params, body)


@st.composite
def _stmts(draw, depth: int = 0):
    kind = draw(st.sampled_from(["let", "expr", "assign"]))
    if kind == "let":
        return SLet(draw(_ident), draw(_exprs(depth)))
    if kind == "assign":
        target = draw(st.sampled_from(["ident", "member"]))
        if target == "ident":
            return SAssign(SIdent(draw(_ident)), draw(_exprs(depth)))
        return SAssign(SMember(draw(_exprs(depth + 1)), draw(_ident)), draw(_exprs(depth)))
    return SExprStmt(draw(_exprs(depth)))


@settings(max_examples=80, deadline=None)
@given(st.lists(_stmts(), max_size=4))
def test_pretty_parse_round_trip(statements):
    program = tuple(statements)
    assert parse(pretty(program)) == program


# -- evaluation --------------------------------------------------------------------------


def test_print_arithmetic(session):
    assert run(session, "print(1 + 2);") == "3\n"


def test_loadlibrary_then_pi(session, math_plugin):
    text = run(session, f'root.loadlibrary("{math_plugin}"); print(root.ROOT.Math.Pi());')
    assert text == "3.141592653589793\n"


def test_vec2_mag_prints_5(session):
    bridge, interp, out = session
    merge(bridge.registry, parse_manifest(VEC2), bridge.heap)
    bridge.refresh()
    interp.run(parse("let v = root.Vec2(3, 4); print(v.Mag());"))
    assert out.getvalue() == "5\n"


def test_number_rendering():
    assert render_value(5.0) == "5"
    assert render_value(0.5) == "0.5"
    assert render_value(-0.0) == "0"
    assert render_value(3.141592653589793) == "3.141592653589793"
    assert render_value(1e21) == "1e+21"
    assert render_value(float("inf")) == "Infinity"
    assert render_value(float("nan")) == "NaN"


def test_string_concat_and_errors(session):
    assert run(session, 'print("a" + "b");') == "ab\n"
    with pytest.raises(ScriptTypeError):
        run(session, 'print("a" + 1);')


def test_division_follows_binary64(session):
    assert run(session, "print(1 / 0); print(0 - 1 / 0); print(0 / 0);") == (
        "Infinity\n-Infinity\nNaN\n"
    )


def test_closures_capture_lexically(session):
    src = """
    let base = 10;
    let make = fn(offset) { fn(x) { base + offset + x; }; };
    let add = make(5);
    print(add(1));
    let base2 = add(2);
    print(base2);
    """
    assert run(session, src) == "16\n17\n"


def test_closure_sees_definition_environment_not_call_site(session):
    src = """
    let x = 1;
    let f = fn() { x; };
    let g = fn(x) { f(); };
    print(g(99));
    """
    assert run(session, src) == "1\n"


def test_let_shadowing_in_nested_scope(session):
    src = """
    let x = 1;
    let f = fn() { let x = 2; x; };
    print(f());
    print(x);
    """
    assert run(session, src) == "2\n1\n"


def test_assignment_to_declared_name(session):
    assert run(session, "let x = 1; x = x + 1; print(x);") == "2\n"


def test_assignment_to_undeclared_name_is_error(session):
    with pytest.raises(ScriptNameError, match="undeclared"):
        run(session, "y = 1;")


def test_name_error(session):
    with pytest.raises(ScriptNameError):
        run(session, "print(missing);")


def test_calling_a_number_is_type_error(session):
    with pytest.raises(ScriptTypeError, match="not callable"):
        run(session, "let x = 3; x(1);")


def test_closure_arity_checked(session):
    with pytest.raises(ScriptTypeError, match="expects 1"):
        run(session, "let f = fn(a) { a; }; f();")


def test_global_read_through_root(session, sample_plugin):
    bridge, interp, out = session
    bridge.loadlibrary(str(sample_plugin))
    interp.run(parse("print(root.gDebug);"))
    eval_macro(bridge.registry, bridge.heap, json.dumps(
        {"statements": [{"op": "gset", "name": "gDebug", "value": {"op": "const", "value": 5}}]}))
    interp.run(parse("print(root.gDebug);"))
    assert out.getvalue() == "0\n5\n"


def test_global_assignment_writes_through(session, sample_plugin):
    bridge, interp, out = session
    bridge.loadlibrary(str(sample_plugin))
    interp.run(parse("root.gDebug = 4; print(root.gDebug);"))
    assert out.getvalue() == "4\n"
    assert bridge.heap.read_global("gDebug").value == 4


def test_non_global_root_property_read_only(session, sample_plugin):
    bridge, interp, out = session
    bridge.loadlibrary(str(sample_plugin))
    with pytest.raises(ScriptTypeError, match="read-only"):
        interp.run(parse("root.TFile = 3;"))


def test_proxy_field_assignment_from_script(session, sample_plugin):
    bridge, interp, out = session
    bridge.loadlibrary(str(sample_plugin))
    interp.run(parse(
        "let v = root.TVector3(1, 2, 2); v.x = 0; print(v.Mag());"
    ))
    # sqrt(0 + 4 + 4) = sqrt(8)
    assert out.getvalue() == f"{(8.0 ** 0.5)!r}\n"


def test_pump_returns_delivered_count(session):
    bridge, interp, out = session
    merge(bridge.registry, parse_manifest(json.dumps({
        "functions": [{"name": "Echo", "params": ["i64"], "returns": "i64",
                       "body": [{"op": "ret", "value": {"op": "param", "index": 0}}]}]})),
        bridge.heap)
    bridge.refresh()
    interp.run(parse("root.Echo(7, fn(v) { print(v); });"))
    bridge.dispatcher.drain(2000)  # drain delivers the first callback
    interp.run(parse("root.Echo(9, fn(v) { print(v); });"))
    deadline = time.monotonic() + 2
    while bridge.dispatcher._completions.qsize() == 0 and time.monotonic() < deadline:
        time.sleep(0.002)
    interp.run(parse("print(pump());"))  # pump() delivers "9", then prints 1
    text = out.getvalue()
    assert "7\n" in text and "9\n1\n" in text


def test_callbacks_only_fire_during_pump(session):
    bridge, interp, out = session
    merge(bridge.registry, parse_manifest(json.dumps({
        "functions": [{"name": "Echo", "params": ["i64"], "returns": "i64",
                       "body": [{"op": "ret", "value": {"op": "param", "index": 0}}]}]})),
        bridge.heap)
    bridge.refresh()
    interp.run(parse("root.Echo(1, fn(v) { print(v); });"))
    time.sleep(0.15)  # task certainly finished; no pump yet
    assert out.getvalue() == ""
    bridge.dispatcher.process_events()
    assert out.getvalue() == "1\n"


def test_callback_recursing_past_the_stack_reaches_the_sink_as_a_script_error(session):
    bridge, interp, out = session
    merge(bridge.registry, parse_manifest(json.dumps({
        "functions": [{"name": "Echo", "params": ["i64"], "returns": "i64",
                       "body": [{"op": "ret", "value": {"op": "param", "index": 0}}]}]})),
        bridge.heap)
    bridge.refresh()
    interp.run(parse("root.Echo(1, fn(v) { let g = fn() { g(); }; g(); });"))
    deadline = time.monotonic() + 2
    while bridge.dispatcher._completions.qsize() == 0 and time.monotonic() < deadline:
        time.sleep(0.002)
    interp.run(parse("print(pump());"))  # the callback runs under the script's pump()
    assert out.getvalue() == "1\n"
    assert [(call_id, type(exc).__name__, str(exc)) for call_id, exc in bridge.async_faults] == [
        (1, "ScriptRecursionError", "script calls nested too deep")]
    assert bridge.diag.getvalue() == (
        "async call #1 failed: ScriptRecursionError: script calls nested too deep\n")


def test_async_call_value_is_null(session):
    bridge, interp, out = session
    merge(bridge.registry, parse_manifest(json.dumps({
        "functions": [{"name": "Echo", "params": ["i64"], "returns": "i64",
                       "body": [{"op": "ret", "value": {"op": "param", "index": 0}}]}]})),
        bridge.heap)
    bridge.refresh()
    interp.run(parse("let r = root.Echo(7, fn(v) { v; }); print(r);"))
    assert out.getvalue() == "null\n"
    bridge.dispatcher.drain(2000)


def test_render_markers(session, sample_plugin):
    bridge, interp, out = session
    bridge.loadlibrary(str(sample_plugin))
    interp.run(parse(
        'print(root); print(root.ROOT); print(root.TFile); print(root.ROOT.Math.Sq);'
        ' print(fn(a) { a; }); print(true); print(null);'
    ))
    lines = out.getvalue().splitlines()
    assert lines == [
        "<namespace (root)>",
        "<namespace ROOT>",
        "<type TFile>",
        "<function ROOT.Math.Sq>",
        "<fn(a)>",
        "true",
        "null",
    ]


def test_proxy_rendering_shows_type_and_address(session, sample_plugin):
    bridge, interp, out = session
    bridge.loadlibrary(str(sample_plugin))
    interp.run(parse("print(root.TVector3(1, 2, 3));"))
    text = out.getvalue()
    assert text.startswith("<TVector3 @0x") and text.endswith(">\n")
