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


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        text = m[kind]
        if kind == "punct":
            append(new(Token, ("punct", text, text, line, m.end() - line_start)))
            continue
        col = m.start(kind) - line_start + 1
        if kind == "ident" and (text[0].isalpha() or text[0] == "_"):
            append(new(Token, ("kw" if text in KEYWORDS else "ident", text, text, line, col)))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "num":
            if text[-1] in "eE+-":
                raise LexError("malformed exponent", line, col)
            append(new(Token, ("num", text, float(text), line, col)))
        elif kind == "str":
            body = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], text[1:-1])
            append(new(Token, ("str", body, body, line, col)))
        elif kind == "end":
            break
        elif text == '"':  # the first bad escape before the line ends wins
            end = _STRING_BODY.match(src, m.end()).end()
            if src.startswith("\\", end) and end + 1 < len(src):
                raise LexError(f"unknown escape \\{src[end + 1]}", line, end + 2 - line_start)
            raise LexError("unterminated string", line, col)
        else:  # includes a non-letter that `\w` accepts as a word start, such as ²
            raise LexError(f"unexpected character {text[0]!r}", line, col)
    append(new(Token, ("eof", "", None, line, len(src) - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SNum:
    value: float
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class SStr:
    value: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class SBool:
    value: bool
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class SNull:
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class SIdent:
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class SMember:
    obj: "SExpr"
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class SCall:
    fn: "SExpr"
    args: tuple["SExpr", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class SFn:
    params: tuple[str, ...]
    body: tuple["SStmt", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class SBin:
    op: str
    left: "SExpr"
    right: "SExpr"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


SExpr = Any  # union of the S* expression nodes above


@dataclass(frozen=True, slots=True)
class SLet:
    name: str
    value: SExpr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class SAssign:
    target: SExpr  # SIdent or SMember
    value: SExpr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class SExprStmt:
    value: SExpr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


SStmt = Any


# Binding power of each binary operator; every other token ends an operand chain.
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}


class Parser:
    """Precedence climbing (Pratt) over the token list.

    Token fields are read by index: 0 type, 1 text, 2 value, 3 line, 4 col.
    The cursor never moves past the final `eof` token.
    """

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def _fail(self, message: str) -> ParseError:
        """An error at the current token."""
        tok = self._tokens[self._pos]
        return ParseError(message, tok[3], tok[4])

    def _expect(self, type_: str, text: str | None = None) -> Token:
        tok = self._tokens[self._pos]
        if tok[0] != type_ or (text is not None and tok[1] != text):
            raise self._fail(f"expected {text or type_!r}, found {tok[1] or tok[0]!r}")
        self._pos += 1
        return tok

    def _at_punct(self, text: str) -> bool:
        tok = self._tokens[self._pos]
        return tok[1] == text and tok[0] == "punct"

    def parse_program(self) -> tuple[SStmt, ...]:
        tokens = self._tokens
        statements: list[SStmt] = []
        while tokens[self._pos][0] != "eof":
            statements.append(self.parse_statement())
        return tuple(statements)

    def parse_statement(self) -> SStmt:
        tok = self._tokens[self._pos]
        pos = (tok[3], tok[4])
        if tok[1] == "let" and tok[0] == "kw":
            self._pos += 1
            name = self._expect("ident")[1]
            self._expect("punct", "=")
            value = self.parse_expr()
            self._expect("punct", ";")
            return SLet(name, value, pos)
        expr = self.parse_expr()
        if self._at_punct("="):
            if not isinstance(expr, (SIdent, SMember)):
                raise self._fail("only names and members can be assigned")
            self._pos += 1
            value = self.parse_expr()
            self._expect("punct", ";")
            return SAssign(expr, value, pos)
        self._expect("punct", ";")
        return SExprStmt(expr, pos)

    def parse_expr(self, min_power: int = 1) -> SExpr:
        """An operand, its postfix `.name` and `(args)`, then binary operators
        binding at least `min_power`; a right operand binds one level tighter,
        so equal operators group to the left."""
        tokens = self._tokens
        tok = tokens[self._pos]
        kind = tok[0]
        if kind == "ident":
            self._pos += 1
            expr = SIdent(tok[1], (tok[3], tok[4]))
        elif kind == "num":
            self._pos += 1
            expr = SNum(tok[2], (tok[3], tok[4]))
        elif kind == "str":
            self._pos += 1
            expr = SStr(tok[2], (tok[3], tok[4]))
        elif kind == "kw":
            text = tok[1]
            if text == "fn":
                expr = self._function()
            elif text == "true" or text == "false":
                self._pos += 1
                expr = SBool(text == "true", (tok[3], tok[4]))
            elif text == "null":
                self._pos += 1
                expr = SNull((tok[3], tok[4]))
            else:
                raise self._fail(f"unexpected keyword {text!r}")
        elif tok[1] == "(" and kind == "punct":
            self._pos += 1
            expr = self.parse_expr()
            self._expect("punct", ")")
        else:
            raise self._fail(f"unexpected token {tok[1] or kind!r}")
        while True:
            tok = tokens[self._pos]
            if tok[0] != "punct":
                return expr
            text = tok[1]
            if text == "(":
                self._pos += 1
                args: list[SExpr] = []
                if not self._at_punct(")"):
                    args.append(self.parse_expr())
                    while self._at_punct(","):
                        self._pos += 1
                        args.append(self.parse_expr())
                self._expect("punct", ")")
                expr = SCall(expr, tuple(args), (tok[3], tok[4]))
            elif text == ".":
                self._pos += 1
                name = self._expect("ident")
                expr = SMember(expr, name[1], (name[3], name[4]))
            else:
                power = _BINARY.get(text, 0)
                if power < min_power:
                    return expr
                self._pos += 1
                expr = SBin(text, expr, self.parse_expr(power + 1), (tok[3], tok[4]))

    def _function(self) -> SFn:
        fn_tok = self._expect("kw", "fn")
        self._expect("punct", "(")
        params: list[str] = []
        if self._tokens[self._pos][0] == "ident":
            params.append(self._expect("ident")[1])
            while self._at_punct(","):
                self._pos += 1
                params.append(self._expect("ident")[1])
        self._expect("punct", ")")
        self._expect("punct", "{")
        body: list[SStmt] = []
        while not self._at_punct("}"):
            if self._tokens[self._pos][0] == "eof":
                raise self._fail("unterminated function body")
            body.append(self.parse_statement())
        self._pos += 1
        if len(set(params)) != len(params):
            raise ParseError("duplicate parameter name", fn_tok[3], fn_tok[4])
        return SFn(tuple(params), tuple(body), (fn_tok[3], fn_tok[4]))


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
