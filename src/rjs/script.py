"""The embedded scripting language.

A small dynamically-typed language with first-class function literals
and lexical closures, bound to the bridge's root object. Numbers are
binary64 (the single numeric kind), statements end with `;`, and `//`
starts a line comment. There is no control flow: closures, member
access, calls and arithmetic are the whole surface.

`root`, `print` and `pump` are predefined bindings, not keywords.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, NamedTuple, TextIO

from .bridge import Bridge, BoundBuiltin, FnRef, Invocation, MethodRef, NsRef, Proxy, TypeRef, weak_method
from .errors import EngineStopped, LexError, ParseError, ScriptNameError, ScriptRecursionError, ScriptTypeError
from .model import format_number

KEYWORDS = frozenset(("let", "fn", "true", "false", "null"))


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    type: str  # num str ident kw punct eof
    text: str
    value: Any
    line: int
    col: int


#: a token's `type` by its kind, for the kinds that are their own text
_TYPES = {**dict.fromkeys(".,;(){}=+-*/%", "punct"), **dict.fromkeys(KEYWORDS, "kw")}


class Tokens(Sequence):
    """`tokenize`'s result: a read-only sequence over five flat lists, one
    entry per token in each (struct of arrays, as in Zig's `std.zig.Ast`).

    `kinds[i]` is a punctuation or keyword token's own text, so one
    comparison tests kind and text; any other kind is `num`, `str`,
    `ident` or `eof`. `texts`, `values`, `lines` and `cols` hold what the
    `Token` fields of the same name hold. Indexing or iterating builds the
    `Token` of an entry on demand; no object is kept per token.
    """

    __slots__ = ("kinds", "texts", "values", "lines", "cols")

    def __init__(self, kinds: list[str], texts: list[str], values: list[Any], lines: list[int],
                 cols: list[int]):
        self.kinds, self.texts, self.values, self.lines, self.cols = kinds, texts, values, lines, cols

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index: int) -> Token:
        kind = self.kinds[index]
        return Token(_TYPES.get(kind, kind), self.texts[index], self.values[index], self.lines[index],
                     self.cols[index])


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)")
_STRING_BODY = re.compile(r'(?:[^"\\\n]|\\[ntr"\\])*')
# Every match is one token or one newline. The prefix eats the blanks and
# the comment in front; it is never backtracked into, because after it one of
# `newline`, `end` or `bad` always matches, so a comment never turns into `/`
# tokens. `end` matches where only blanks or a comment remain and stops the
# scan before it could restart inside a trailing comment; `bad` catches any
# other character, including a quote that does not open a well-formed string.
_TOKEN = re.compile(
    r"(?:[ \t\r]*(?://[^\n]*)?)(?:(?P<punct>[.,;(){}=+\-*/%])|(?P<ident>[^\W\d]\w*)|(?P<newline>\n)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d*)?)|(?P<str>\"" + _STRING_BODY.pattern + r"\")"
    r"|(?P<end>\Z)|(?P<bad>.))")


def tokenize(src: str) -> Tokens:
    """Scan `src` into flat token lists; the last entry is the `eof` token.

    One `finditer` loop over `_TOKEN` appends each token's kind, text,
    value, line and col (where it starts, both from 1) to five lists, so
    the scan builds no object per token; `Tokens` is the read-only view
    returned over them. The first malformed token raises LexError at its
    position.
    """
    kinds, texts, values, lines, cols = [], [], [], [], []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        group = m.lastgroup
        text = value = m[group]
        if group == "punct":
            kind, col = text, m.end() - line_start
        else:
            col = m.start(group) - line_start + 1
            if group == "ident" and (text[0].isalpha() or text[0] == "_"):
                kind = text if text in KEYWORDS else "ident"
            elif group == "newline":
                line, line_start = line + 1, m.end()
                continue
            elif group == "num":
                if text[-1] in "eE+-":
                    raise LexError("malformed exponent", line, col)
                kind, value = "num", float(text)
            elif group == "str":
                kind, text = "str", text[1:-1]
                value = text = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], text) if "\\" in text else text
            elif group == "end":
                break
            elif text == '"':  # the first bad escape before the line ends wins
                end = _STRING_BODY.match(src, m.end()).end()
                if src.startswith("\\", end) and end + 1 < len(src):
                    raise LexError(f"unknown escape \\{src[end + 1]}", line, end + 2 - line_start)
                raise LexError("unterminated string", line, col)
            else:  # includes a non-letter that `\w` accepts as a word start, such as ²
                raise LexError(f"unexpected character {text[0]!r}", line, col)
        kinds.append(kind)
        texts.append(text)
        values.append(value)
        lines.append(line)
        cols.append(col)
    kinds.append("eof")
    texts.append("")
    values.append(None)
    lines.append(line)
    cols.append(len(src) - line_start + 1)
    return Tokens(kinds, texts, values, lines, cols)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class SNum:
    value: float
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True, unsafe_hash=True)
class SStr:
    value: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True, unsafe_hash=True)
class SBool:
    value: bool
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True, unsafe_hash=True)
class SNull:
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True, unsafe_hash=True)
class SIdent:
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True, unsafe_hash=True)
class SMember:
    obj: "SExpr"
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True, unsafe_hash=True)
class SCall:
    fn: "SExpr"
    args: tuple["SExpr", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True, unsafe_hash=True)
class SFn:
    params: tuple[str, ...]
    body: tuple["SStmt", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True, unsafe_hash=True)
class SBin:
    op: str
    left: "SExpr"
    right: "SExpr"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


SExpr = Any  # union of the S* expression nodes above


@dataclass(slots=True, unsafe_hash=True)
class SLet:
    name: str
    value: SExpr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True, unsafe_hash=True)
class SAssign:
    target: SExpr  # SIdent or SMember
    value: SExpr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True, unsafe_hash=True)
class SExprStmt:
    value: SExpr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


SStmt = Any


# Binding power of each binary operator; every other token ends an operand chain.
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}


class Parser:
    """Precedence climbing (Pratt) over `tokenize`'s lists, read by index.

    Each step compares the current entry's kind in place; a `pos` tuple is
    built only for a node. The cursor `_pos` never moves past the final
    `eof` entry, and an error is raised at the entry it names.
    """

    def __init__(self, tokens: Tokens):
        self._kinds, self._texts, self._values = tokens.kinds, tokens.texts, tokens.values
        self._lines, self._cols = tokens.lines, tokens.cols
        self._pos = 0

    def _fail(self, message: str) -> ParseError:
        """An error at the cursor's entry."""
        return ParseError(message, self._lines[self._pos], self._cols[self._pos])

    def _expected(self, kind: str) -> ParseError:
        """The cursor's entry is not of `kind`."""
        found = self._texts[self._pos] or self._kinds[self._pos]
        return self._fail(f"expected {kind!r}, found {found!r}")

    def _take(self, kind: str) -> str:
        """Move past the cursor's entry, which must be of `kind`, and give its
        text; the hot paths compare in place instead."""
        at = self._pos
        if self._kinds[at] != kind:
            raise self._expected(kind)
        self._pos = at + 1
        return self._texts[at]

    def parse_program(self) -> tuple[SStmt, ...]:
        kinds = self._kinds
        statements: list[SStmt] = []
        while kinds[self._pos] != "eof":
            statements.append(self.parse_statement())
        return tuple(statements)

    def parse_statement(self) -> SStmt:
        kinds, at = self._kinds, self._pos
        pos = (self._lines[at], self._cols[at])
        if kinds[at] == "let":
            self._pos = at + 1
            name = self._take("ident")
            self._take("=")
            stmt = SLet(name, self.parse_expr(), pos)
        else:
            expr = self.parse_expr()
            if kinds[self._pos] == "=":
                if not isinstance(expr, (SIdent, SMember)):
                    raise self._fail("only names and members can be assigned")
                self._pos += 1
                stmt = SAssign(expr, self.parse_expr(), pos)
            else:
                stmt = SExprStmt(expr, pos)
        if kinds[self._pos] != ";":
            raise self._expected(";")
        self._pos += 1
        return stmt

    def parse_expr(self, min_power: int = 1) -> SExpr:
        """An operand, its postfix `.name` and `(args)`, then binary operators
        binding at least `min_power`; a right operand binds one level tighter,
        so equal operators group to the left."""
        kinds, lines, cols = self._kinds, self._lines, self._cols
        at = self._pos
        kind = kinds[at]
        self._pos = at + 1
        if kind == "ident":
            expr = SIdent(self._texts[at], (lines[at], cols[at]))
        elif kind == "num" or kind == "str":
            expr = (SNum if kind == "num" else SStr)(self._values[at], (lines[at], cols[at]))
        elif kind == "(":
            expr = self.parse_expr()
            if kinds[self._pos] != ")":
                raise self._expected(")")
            self._pos += 1
        elif kind == "fn":
            expr = self._function((lines[at], cols[at]))
        elif kind == "true" or kind == "false":
            expr = SBool(kind == "true", (lines[at], cols[at]))
        elif kind == "null":
            expr = SNull((lines[at], cols[at]))
        else:
            self._pos = at
            if kind in KEYWORDS:
                raise self._fail(f"unexpected keyword {kind!r}")
            raise self._fail(f"unexpected token {self._texts[at] or kind!r}")
        while True:
            at = self._pos
            kind = kinds[at]
            if kind == "(":
                self._pos = at + 1
                args: list[SExpr] = []
                if kinds[at + 1] != ")":
                    args.append(self.parse_expr())
                    while kinds[self._pos] == ",":
                        self._pos += 1
                        args.append(self.parse_expr())
                    if kinds[self._pos] != ")":
                        raise self._expected(")")
                self._pos += 1
                expr = SCall(expr, tuple(args), (lines[at], cols[at]))
            elif kind == ".":
                self._pos = at + 1
                if kinds[at + 1] != "ident":
                    raise self._expected("ident")
                self._pos = at + 2
                expr = SMember(expr, self._texts[at + 1], (lines[at + 1], cols[at + 1]))
            else:
                power = _BINARY.get(kind, 0)  # 0 for every kind but a binary operator's
                if power < min_power:
                    return expr
                self._pos = at + 1
                expr = SBin(kind, expr, self.parse_expr(power + 1), (lines[at], cols[at]))

    def _function(self, pos: tuple[int, int]) -> SFn:
        """The literal whose `fn` is at `pos`, from the entry after it."""
        kinds = self._kinds
        self._take("(")
        params: list[str] = []
        if kinds[self._pos] == "ident":
            params.append(self._take("ident"))
            while kinds[self._pos] == ",":
                self._pos += 1
                params.append(self._take("ident"))
        self._take(")")
        self._take("{")
        body: list[SStmt] = []
        while kinds[self._pos] != "}":
            if kinds[self._pos] == "eof":
                raise self._fail("unterminated function body")
            body.append(self.parse_statement())
        self._pos += 1
        if len(set(params)) != len(params):
            raise ParseError("duplicate parameter name", *pos)
        return SFn(tuple(params), tuple(body), pos)


def parse(src: str) -> tuple[SStmt, ...]:
    parser = Parser(tokenize(src))
    try:
        return parser.parse_program()
    except RecursionError:
        raise parser._fail("nesting too deep") from None


# ---------------------------------------------------------------------------
# pretty printer (canonical source; parse(pretty(ast)) round-trips)
# ---------------------------------------------------------------------------

def pretty_expr(expr: SExpr) -> str:
    match expr:
        case SNum(value):
            return format_number(value)
        case SStr(value):
            escaped = (
                value.replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n")
                .replace("\t", "\\t")
                .replace("\r", "\\r")
            )
            return f'"{escaped}"'
        case SBool(value):
            return "true" if value else "false"
        case SNull():
            return "null"
        case SIdent(name):
            return name
        case SMember(obj, name):
            return f"{pretty_expr(obj)}.{name}"
        case SCall(fn, args):
            return f"{pretty_expr(fn)}({', '.join(pretty_expr(a) for a in args)})"
        case SFn(params, body):
            inner = " ".join(pretty_stmt(s) for s in body)
            spaced = f" {inner} " if inner else " "
            return f"fn({', '.join(params)}) {{{spaced}}}"
        case SBin(op, left, right):
            return f"({pretty_expr(left)} {op} {pretty_expr(right)})"
        case _:
            raise ScriptTypeError(f"cannot render {expr!r}")


def pretty_stmt(stmt: SStmt) -> str:
    match stmt:
        case SLet(name, value):
            return f"let {name} = {pretty_expr(value)};"
        case SAssign(target, value):
            return f"{pretty_expr(target)} = {pretty_expr(value)};"
        case SExprStmt(value):
            return f"{pretty_expr(value)};"
        case _:
            raise ScriptTypeError(f"cannot render {stmt!r}")


def pretty(program: tuple[SStmt, ...]) -> str:
    """Render a program; one nested deeper than the stack is a ScriptRecursionError."""
    try:
        return "\n".join(pretty_stmt(s) for s in program) + ("\n" if program else "")
    except RecursionError:
        raise ScriptRecursionError("program nested too deep to render") from None


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class Environment:
    """Lexical scope chain; closures capture their defining environment."""

    def __init__(self, parent: "Environment | None" = None):
        self.parent = parent
        self.bindings: dict[str, Any] = {}

    def define(self, name: str, value: Any) -> None:
        self.bindings[name] = value

    def get(self, name: str) -> Any:
        env: Environment | None = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise ScriptNameError(f"{name!r} is not defined")

    def assign(self, name: str, value: Any) -> None:
        env: Environment | None = self
        while env is not None:
            if name in env.bindings:
                env.bindings[name] = value
                return
            env = env.parent
        raise ScriptNameError(f"assignment to undeclared name {name!r}")


@dataclass(eq=False, slots=True)
class Closure:
    """First-class function value; callable so it can serve as a completion
    callback delivered by the pump."""

    params: tuple[str, ...]
    body: tuple[SStmt, ...]
    env: Environment
    interp: "Interpreter"

    def __call__(self, *args: Any) -> Any:
        return self.interp.call_closure(self, list(args))

    def __str__(self) -> str:
        return f"<fn({', '.join(self.params)})>"


class _Closed:
    """The bridge of an interpreter whose session is closed: every use raises EngineStopped."""

    def __getattr__(self, name: str) -> Any:
        raise EngineStopped("session has been closed")


CLOSED = _Closed()


class Interpreter:
    """Tree-walking evaluator bound to one bridge, or to `CLOSED`; interpreter-domain only."""

    def __init__(self, bridge: Bridge, out: TextIO):
        self.bridge = bridge
        self.out = out
        self.globals = Environment()
        self.globals.define("root", NsRef(""))
        self.globals.define("print", BoundBuiltin("print", weak_method(self._print)))
        self.globals.define("pump", BoundBuiltin("pump", weak_method(self._pump)))

    def _print(self, *args: Any) -> None:
        self.out.write(" ".join(render_value(a) for a in args) + "\n")

    def _pump(self, *args: Any) -> float:
        if args:
            raise ScriptTypeError("pump takes no arguments")
        return float(self.bridge.dispatcher.process_events())

    # -- program / statement evaluation ------------------------------------------

    def run(self, program: tuple[SStmt, ...], env: Environment | None = None) -> Any:
        """Run a program; a call chain deeper than the stack is a ScriptRecursionError."""
        env = env or Environment(self.globals)
        result: Any = None
        try:
            for stmt in program:
                result = self.exec_stmt(stmt, env)
        except RecursionError:
            raise ScriptRecursionError() from None
        return result

    def exec_stmt(self, stmt: SStmt, env: Environment) -> Any:
        handler = _EXEC.get(stmt.__class__)
        if handler is None:
            raise ScriptTypeError(f"unknown statement {stmt!r}")
        return handler(self, stmt, env)

    def _exec_let(self, stmt: SLet, env: Environment) -> None:
        env.define(stmt.name, self.eval(stmt.value, env))

    def _exec_assign(self, stmt: SAssign, env: Environment) -> None:
        assigned = self.eval(stmt.value, env)
        target = stmt.target
        if isinstance(target, SIdent):
            env.assign(target.name, assigned)
        else:
            self.bridge.set_member(self.eval(target.obj, env), target.name, assigned)

    def _exec_expr(self, stmt: SExprStmt, env: Environment) -> Any:
        return self.eval(stmt.value, env)

    # -- expression evaluation ------------------------------------------------------

    def eval(self, expr: SExpr, env: Environment) -> Any:
        handler = _EVAL.get(expr.__class__)
        if handler is None:
            raise ScriptTypeError(f"unknown expression {expr!r}")
        return handler(self, expr, env)

    def _eval_literal(self, expr: SNum | SStr | SBool, env: Environment) -> Any:
        return expr.value

    def _eval_null(self, expr: SNull, env: Environment) -> None:
        return None

    def _eval_ident(self, expr: SIdent, env: Environment) -> Any:
        return env.get(expr.name)

    def _eval_member(self, expr: SMember, env: Environment) -> Any:
        return self.bridge.get_member(self.eval(expr.obj, env), expr.name)

    def _eval_bin(self, expr: SBin, env: Environment) -> Any:
        return self._binary(expr.op, self.eval(expr.left, env), self.eval(expr.right, env))

    def _eval_fn(self, expr: SFn, env: Environment) -> Closure:
        return Closure(expr.params, expr.body, env, self)

    def _eval_call(self, expr: SCall, env: Environment) -> Any:
        callee = self.eval(expr.fn, env)
        return self._call(callee, [self.eval(a, env) for a in expr.args])

    def _binary(self, op: str, left: Any, right: Any) -> Any:
        if isinstance(left, str) and isinstance(right, str) and op == "+":
            return left + right
        if (
            isinstance(left, (int, float))
            and isinstance(right, (int, float))
            and not isinstance(left, bool)
            and not isinstance(right, bool)
        ):
            a, b = float(left), float(right)
            match op:
                case "+":
                    return a + b
                case "-":
                    return a - b
                case "*":
                    return a * b
                case "/":
                    if b == 0.0:  # binary64 semantics, not a fault
                        if a == 0.0 or a != a:
                            return float("nan")
                        return math.copysign(1.0, a) * math.copysign(1.0, b) * float("inf")
                    return a / b
                case "%":
                    if b == 0.0:
                        return float("nan")
                    return math.fmod(a, b)
        raise ScriptTypeError(
            f"operator {op!r} is not defined for these operands"
        )

    def _call(self, callee: Any, args: list[Any]) -> Any:
        if isinstance(callee, Closure):
            return self.call_closure(callee, args)
        if isinstance(callee, BoundBuiltin):
            return callee(*args)
        if isinstance(callee, (FnRef, TypeRef, MethodRef)):
            result: Invocation = self.bridge.invoke(callee, args)
            return None if result.pending else result.value
        raise ScriptTypeError(f"{render_value(callee)} is not callable")

    def call_closure(self, closure: Closure, args: list[Any]) -> Any:
        if len(args) != len(closure.params):
            raise ScriptTypeError(
                f"function expects {len(closure.params)} argument(s), got {len(args)}"
            )
        env = Environment(closure.env)
        for name, value in zip(closure.params, args):
            env.define(name, value)
        result: Any = None
        for stmt in closure.body:
            result = self.exec_stmt(stmt, env)
        return result


# Handlers by node class, so dispatch costs one dict read per node.
_EXEC = {SLet: Interpreter._exec_let, SAssign: Interpreter._exec_assign, SExprStmt: Interpreter._exec_expr}
_EVAL = {
    SNum: Interpreter._eval_literal,
    SStr: Interpreter._eval_literal,
    SBool: Interpreter._eval_literal,
    SNull: Interpreter._eval_null,
    SIdent: Interpreter._eval_ident,
    SMember: Interpreter._eval_member,
    SBin: Interpreter._eval_bin,
    SFn: Interpreter._eval_fn,
    SCall: Interpreter._eval_call,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_value(value: Any) -> str:
    """Canonical rendering used by print and the REPL."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_number(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, Proxy):
        return str(value)
    if isinstance(value, NsRef):
        return f"<namespace {value.path or '(root)'}>"
    if isinstance(value, TypeRef):
        return f"<type {value.qualified}>"
    if isinstance(value, FnRef):
        return f"<function {value.path}>"
    if isinstance(value, MethodRef):
        return f"<method {value.type_name}.{value.name}>"
    if isinstance(value, Closure):
        return str(value)
    if isinstance(value, BoundBuiltin):
        return f"<builtin {value.name}>"
    return str(value)
