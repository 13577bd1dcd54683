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
from dataclasses import dataclass, field
from typing import Any, NamedTuple, TextIO

from .bridge import Bridge, BoundBuiltin, FnRef, Invocation, MethodRef, NsRef, Proxy, TypeRef, weak_method
from .errors import LexError, ParseError, ScriptNameError, ScriptRecursionError, ScriptTypeError
from .model import format_number

KEYWORDS = ("let", "fn", "true", "false", "null")


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    type: str  # num str ident kw punct eof
    text: str
    value: Any
    line: int
    col: int


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)")
_STRING_BODY = re.compile(r'(?:[^"\\\n]|\\[ntr"\\])*')
# One alternative per token class, tried in order; `bad` catches any other
# character, including a quote that does not open a well-formed string.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r]+|//[^\n]*)|(?P<newline>\n)|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d*)?)"
    r"|(?P<ident>[^\W\d]\w*)|(?P<str>\"" + _STRING_BODY.pattern + r"\")"
    r"|(?P<punct>[.,;(){}=+\-*/%])|(?P<bad>.)")


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "skip":
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "num":
            if text[-1] in "eE+-":
                raise LexError("malformed exponent", line, col)
            tokens.append(Token("num", text, float(text), line, col))
        elif kind == "ident" and (text[0].isalpha() or text[0] == "_"):
            tokens.append(Token("kw" if text in KEYWORDS else "ident", text, text, line, col))
        elif kind == "str":
            body = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], text[1:-1])
            tokens.append(Token("str", body, body, line, col))
        elif kind == "punct":
            tokens.append(Token("punct", text, text, line, col))
        elif text == '"':  # the first bad escape before the line ends wins
            end = _STRING_BODY.match(src, m.end()).end()
            if src.startswith("\\", end) and end + 1 < len(src):
                raise LexError(f"unknown escape \\{src[end + 1]}", line, end + 2 - line_start)
            raise LexError("unterminated string", line, col)
        else:  # includes a non-letter that `\w` accepts as a word start, such as ²
            raise LexError(f"unexpected character {text[0]!r}", line, col)
    tokens.append(Token("eof", "", None, line, len(src) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SNum:
    value: float
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SStr:
    value: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SBool:
    value: bool
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SNull:
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SIdent:
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SMember:
    obj: "SExpr"
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SCall:
    fn: "SExpr"
    args: tuple["SExpr", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SFn:
    params: tuple[str, ...]
    body: tuple["SStmt", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SBin:
    op: str
    left: "SExpr"
    right: "SExpr"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


SExpr = Any  # union of the S* expression nodes above


@dataclass(frozen=True)
class SLet:
    name: str
    value: SExpr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SAssign:
    target: SExpr  # SIdent or SMember
    value: SExpr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SExprStmt:
    value: SExpr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


SStmt = Any


class Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.type != "eof":
            self._pos += 1
        return tok

    def _fail(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self._peek()
        return ParseError(message, tok.line, tok.col)

    def _at(self, *texts: str) -> bool:
        """Whether the next token is punctuation spelled as one of `texts`."""
        tok = self._tokens[self._pos]
        return tok.type == "punct" and tok.text in texts

    def _expect(self, type_: str, text: str | None = None) -> Token:
        tok = self._peek()
        if tok.type != type_ or (text is not None and tok.text != text):
            want = text or type_
            raise self._fail(f"expected {want!r}, found {tok.text or tok.type!r}")
        return self._next()

    def parse_program(self) -> tuple[SStmt, ...]:
        statements: list[SStmt] = []
        while self._peek().type != "eof":
            statements.append(self.parse_statement())
        return tuple(statements)

    def parse_statement(self) -> SStmt:
        tok = self._peek()
        if tok.type == "kw" and tok.text == "let":
            self._next()
            name = self._expect("ident")
            self._expect("punct", "=")
            value = self.parse_expr()
            self._expect("punct", ";")
            return SLet(name.text, value, (tok.line, tok.col))
        expr = self.parse_expr()
        if self._at("="):
            if not isinstance(expr, (SIdent, SMember)):
                raise self._fail("only names and members can be assigned")
            self._next()
            value = self.parse_expr()
            self._expect("punct", ";")
            return SAssign(expr, value, (tok.line, tok.col))
        self._expect("punct", ";")
        return SExprStmt(expr, (tok.line, tok.col))

    def parse_expr(self) -> SExpr:
        return self._additive()

    def _additive(self) -> SExpr:
        left = self._multiplicative()
        while self._at("+", "-"):
            op = self._next()
            right = self._multiplicative()
            left = SBin(op.text, left, right, (op.line, op.col))
        return left

    def _multiplicative(self) -> SExpr:
        left = self._postfix()
        while self._at("*", "/", "%"):
            op = self._next()
            right = self._postfix()
            left = SBin(op.text, left, right, (op.line, op.col))
        return left

    def _postfix(self) -> SExpr:
        expr = self._primary()
        while self._at(".", "("):
            tok = self._next()
            if tok.text == ".":
                name = self._expect("ident")
                expr = SMember(expr, name.text, (name.line, name.col))
                continue
            args: list[SExpr] = []
            if not self._at(")"):
                args.append(self.parse_expr())
                while self._at(","):
                    self._next()
                    args.append(self.parse_expr())
            self._expect("punct", ")")
            expr = SCall(expr, tuple(args), (tok.line, tok.col))
        return expr

    def _primary(self) -> SExpr:
        tok = self._peek()
        if tok.type == "num":
            self._next()
            return SNum(tok.value, (tok.line, tok.col))
        if tok.type == "str":
            self._next()
            return SStr(tok.value, (tok.line, tok.col))
        if tok.type == "kw":
            if tok.text in ("true", "false"):
                self._next()
                return SBool(tok.text == "true", (tok.line, tok.col))
            if tok.text == "null":
                self._next()
                return SNull((tok.line, tok.col))
            if tok.text == "fn":
                return self._function()
            raise self._fail(f"unexpected keyword {tok.text!r}")
        if tok.type == "ident":
            self._next()
            return SIdent(tok.text, (tok.line, tok.col))
        if self._at("("):
            self._next()
            inner = self.parse_expr()
            self._expect("punct", ")")
            return inner
        raise self._fail(f"unexpected token {tok.text or tok.type!r}")

    def _function(self) -> SExpr:
        fn_tok = self._expect("kw", "fn")
        self._expect("punct", "(")
        params: list[str] = []
        if self._peek().type == "ident":
            params.append(self._next().text)
            while self._at(","):
                self._next()
                params.append(self._expect("ident").text)
        self._expect("punct", ")")
        self._expect("punct", "{")
        body: list[SStmt] = []
        while not self._at("}"):
            if self._peek().type == "eof":
                raise self._fail("unterminated function body")
            body.append(self.parse_statement())
        self._expect("punct", "}")
        if len(set(params)) != len(params):
            raise ParseError("duplicate parameter name", fn_tok.line, fn_tok.col)
        return SFn(tuple(params), tuple(body), (fn_tok.line, fn_tok.col))


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
    return "\n".join(pretty_stmt(s) for s in program) + ("\n" if program else "")


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


@dataclass(eq=False)
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


class Interpreter:
    """Tree-walking evaluator bound to one bridge; interpreter-domain only."""

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
            raise ScriptRecursionError("script calls nested too deep") from None
        return result

    def exec_stmt(self, stmt: SStmt, env: Environment) -> Any:
        match stmt:
            case SLet(name, value):
                env.define(name, self.eval(value, env))
                return None
            case SAssign(target, value):
                assigned = self.eval(value, env)
                if isinstance(target, SIdent):
                    env.assign(target.name, assigned)
                else:
                    obj = self.eval(target.obj, env)
                    self.bridge.set_member(obj, target.name, assigned)
                return None
            case SExprStmt(value):
                return self.eval(value, env)
            case _:
                raise ScriptTypeError(f"unknown statement {stmt!r}")

    # -- expression evaluation ------------------------------------------------------

    def eval(self, expr: SExpr, env: Environment) -> Any:
        match expr:
            case SNum(value):
                return value
            case SStr(value):
                return value
            case SBool(value):
                return value
            case SNull():
                return None
            case SIdent(name):
                return env.get(name)
            case SMember(obj, name):
                return self.bridge.get_member(self.eval(obj, env), name)
            case SBin(op, left, right):
                return self._binary(op, self.eval(left, env), self.eval(right, env))
            case SFn(params, body):
                return Closure(params, body, env, self)
            case SCall(fn, args):
                return self._call(self.eval(fn, env), [self.eval(a, env) for a in args])
            case _:
                raise ScriptTypeError(f"unknown expression {expr!r}")

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
