"""Manifest handling and registry mutation.

Plugins and macros share one UTF-8 JSON file format. `parse_manifest`
turns text into a validated ManifestAST without touching any registry;
`merge` folds declarations into a registry atomically (all or nothing)
and bumps the version; `eval_macro` additionally executes the manifest's
top-level statement list against the heap. Declarations merge before
statements run, so a faulting macro still leaves its declarations in
place with the version bumped, and the bridge resynchronizes either way.

A plugin text is parsed once per process (`parse_manifest` memoises
statement-free results by text), so a long-lived host that opens
session after session on the same libraries skips the parse; macros are
parsed on every call.
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from .errors import (
    ConflictError,
    NotQuiescent,
    ParseError,
    ValidationError,
)
from .heap import Heap
from .model import (
    BIN_OPS,
    BUILTINS,
    I64_MAX,
    I64_MIN,
    TAG_ENUM,
    TAG_OBJ,
    TAG_VOID,
    BinOp,
    Builtin,
    Const,
    Expr,
    ExprStmt,
    FieldDecl,
    GetField,
    GetGlobal,
    GlobalDecl,
    HostTypeDescriptor,
    HostValue,
    MethodSignature,
    NamespaceNode,
    New,
    OverloadSet,
    Param,
    Registry,
    Return,
    SCALAR_TAGS,
    SelfRef,
    SetField,
    SetGlobal,
    Stmt,
    TypeLayout,
    VOID,
    ValueKind,
    boolean,
    category,
    cstr,
    enumval,
    f64,
    i64,
    join_path,
    ref,
    sig_str,
    split_path,
    walk_layout,
)

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_TOP_KEYS = {"namespaces", "enums", "types", "functions", "globals", "statements"}


# ---------------------------------------------------------------------------
# manifest AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    name: str
    kind: ValueKind
    initial_raw: object  # normalized JSON scalar; None means the null reference


@dataclass(frozen=True)
class MethodSpec:
    name: str
    signature: MethodSignature


@dataclass(frozen=True)
class TypeSpec:
    name: str
    namespace: str
    bases: tuple[str, ...]
    fields: tuple[FieldSpec, ...]
    methods: tuple[MethodSpec, ...]
    ctors: tuple[MethodSignature, ...]

    @property
    def qualified(self) -> str:
        return join_path(self.namespace, self.name)

    @property
    def is_extension(self) -> bool:
        """A block that names an existing type and adds methods only.

        Anything redeclaring structure (bases, fields, ctors) or declaring
        nothing at all is a redeclaration, which merge rejects.
        """
        return bool(self.methods) and not self.bases and not self.fields and not self.ctors


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    namespace: str
    signature: MethodSignature

    @property
    def qualified(self) -> str:
        return join_path(self.namespace, self.name)


@dataclass(frozen=True)
class GlobalSpec:
    name: str
    namespace: str
    kind: ValueKind
    initial_raw: object

    @property
    def qualified(self) -> str:
        return join_path(self.namespace, self.name)


@dataclass(frozen=True)
class ManifestAST:
    """A validated manifest.

    A plugin's AST is memoised by `parse_manifest` and shared by every
    bridge that loads the same text; callers must not modify it.
    """

    namespaces: tuple[str, ...] = ()
    enums: dict[str, dict[str, int]] = field(default_factory=dict)
    types: tuple[TypeSpec, ...] = ()
    functions: tuple[FunctionSpec, ...] = ()
    globals: tuple[GlobalSpec, ...] = ()
    statements: tuple[Stmt, ...] = ()

    @property
    def namespace_paths(self) -> tuple[str, ...]:
        """Every namespace path the manifest implies: the declared ones, then
        each declaration's home, first occurrence only."""
        homes = (spec.namespace for spec in (*self.types, *self.functions, *self.globals))
        return tuple(dict.fromkeys((*self.namespaces, *filter(None, homes))))


@dataclass(frozen=True)
class MacroResult:
    version: int
    value: HostValue


# ---------------------------------------------------------------------------
# low-level pieces: identifiers, kinds, constants
# ---------------------------------------------------------------------------

def _ident(raw: object, what: str) -> str:
    if not isinstance(raw, str) or not _IDENT.match(raw):
        raise ValidationError(f"{what}: {raw!r} is not a valid identifier")
    return raw


def _qname(raw: object, what: str, allow_empty: bool = False) -> str:
    if not isinstance(raw, str):
        raise ValidationError(f"{what}: expected a qualified name, got {raw!r}")
    if raw == "":
        if allow_empty:
            return raw
        raise ValidationError(f"{what}: qualified name may not be empty")
    for part in raw.split("."):
        if not _IDENT.match(part):
            raise ValidationError(f"{what}: {raw!r} is not a valid qualified name")
    return raw


def parse_kind(raw: object, what: str, allow_void: bool = False) -> ValueKind:
    if isinstance(raw, str):
        if raw in SCALAR_TAGS:
            if raw == TAG_VOID and not allow_void:
                raise ValidationError(f"{what}: void is only valid as a return kind")
            return ValueKind(raw)
        raise ValidationError(f"{what}: unknown kind tag {raw!r}")
    if isinstance(raw, dict) and len(raw) == 1:
        if "enum" in raw:
            return ValueKind(TAG_ENUM, _ident(raw["enum"], what))
        if "obj" in raw:
            return ValueKind(TAG_OBJ, _qname(raw["obj"], what))
    raise ValidationError(f"{what}: unknown kind {raw!r}")


def kind_to_json(kind: ValueKind) -> object:
    if kind.tag == TAG_ENUM:
        return {"enum": kind.name}
    if kind.tag == TAG_OBJ:
        return {"obj": kind.name}
    return kind.tag


def _const_value(raw: object, what: str) -> HostValue:
    if isinstance(raw, bool):
        return boolean(raw)
    if isinstance(raw, int):
        if not I64_MIN <= raw <= I64_MAX:
            raise ValidationError(f"{what}: integer constant {raw} outside the i64 range")
        return i64(raw)
    if isinstance(raw, float):
        return f64(raw)
    if isinstance(raw, str):
        return cstr(raw)
    if raw is None:
        return VOID
    raise ValidationError(f"{what}: unsupported constant {raw!r}")


def _const_to_json(value: HostValue) -> object:
    if value.tag == TAG_VOID:
        return None
    return value.value


# ---------------------------------------------------------------------------
# body statements and expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BodyCtx:
    arity: int
    allow_self: bool
    what: str


def _require_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{what}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{what}: missing key(s) {sorted(missing)}")


def parse_expr(raw: object, ctx: _BodyCtx) -> Expr:
    if not isinstance(raw, dict) or "op" not in raw:
        raise ValidationError(f"{ctx.what}: expression must be an object with an 'op' key")
    op = raw["op"]
    match op:
        case "const":
            _require_keys(raw, {"op", "value"}, {"value"}, ctx.what)
            return Const(_const_value(raw["value"], ctx.what))
        case "param":
            _require_keys(raw, {"op", "index"}, {"index"}, ctx.what)
            index = raw["index"]
            if not isinstance(index, int) or isinstance(index, bool) or index < 0:
                raise ValidationError(f"{ctx.what}: param index must be a non-negative integer")
            if index >= ctx.arity:
                raise ValidationError(
                    f"{ctx.what}: param index {index} out of range for arity {ctx.arity}"
                )
            return Param(index)
        case "self":
            _require_keys(raw, {"op"}, set(), ctx.what)
            if not ctx.allow_self:
                raise ValidationError(f"{ctx.what}: self reference outside an instance body")
            return SelfRef()
        case "get":
            _require_keys(raw, {"op", "field"}, {"field"}, ctx.what)
            if not ctx.allow_self:
                raise ValidationError(f"{ctx.what}: field read outside an instance body")
            return GetField(_ident(raw["field"], ctx.what))
        case "gget":
            _require_keys(raw, {"op", "name"}, {"name"}, ctx.what)
            return GetGlobal(_qname(raw["name"], ctx.what))
        case "bin":
            _require_keys(raw, {"op", "o", "l", "r"}, {"o", "l", "r"}, ctx.what)
            if raw["o"] not in BIN_OPS:
                raise ValidationError(f"{ctx.what}: unknown operator {raw['o']!r}")
            return BinOp(raw["o"], parse_expr(raw["l"], ctx), parse_expr(raw["r"], ctx))
        case "builtin":
            _require_keys(raw, {"op", "name", "args"}, {"name", "args"}, ctx.what)
            name = raw["name"]
            if not isinstance(name, str) or name not in BUILTINS:
                raise ValidationError(f"{ctx.what}: unknown builtin {name!r}")
            if not isinstance(raw["args"], list):
                raise ValidationError(f"{ctx.what}: builtin args must be a list")
            low, high = BUILTINS[name]
            if len(raw["args"]) < low or (high is not None and len(raw["args"]) > high):
                raise ValidationError(
                    f"{ctx.what}: builtin {name!r} takes at least {low} argument(s)"
                )
            return Builtin(name, tuple(parse_expr(a, ctx) for a in raw["args"]))
        case "new":
            _require_keys(raw, {"op", "type", "args"}, {"type", "args"}, ctx.what)
            if not isinstance(raw["args"], list):
                raise ValidationError(f"{ctx.what}: new args must be a list")
            return New(
                _qname(raw["type"], ctx.what),
                tuple(parse_expr(a, ctx) for a in raw["args"]),
            )
        case _:
            raise ValidationError(f"{ctx.what}: unknown expression op {op!r}")


def parse_stmt(raw: object, ctx: _BodyCtx) -> Stmt:
    if not isinstance(raw, dict) or "op" not in raw:
        raise ValidationError(f"{ctx.what}: statement must be an object with an 'op' key")
    op = raw["op"]
    match op:
        case "set":
            _require_keys(raw, {"op", "field", "value"}, {"field", "value"}, ctx.what)
            if not ctx.allow_self:
                raise ValidationError(f"{ctx.what}: field write outside an instance body")
            return SetField(_ident(raw["field"], ctx.what), parse_expr(raw["value"], ctx))
        case "gset":
            _require_keys(raw, {"op", "name", "value"}, {"name", "value"}, ctx.what)
            return SetGlobal(_qname(raw["name"], ctx.what), parse_expr(raw["value"], ctx))
        case "ret":
            _require_keys(raw, {"op", "value"}, set(), ctx.what)
            if "value" not in raw:
                return Return(None)
            return Return(parse_expr(raw["value"], ctx))
        case _:
            return ExprStmt(parse_expr(raw, ctx))


def _expr_to_json(expr: Expr) -> object:
    match expr:
        case Const(value):
            return {"op": "const", "value": _const_to_json(value)}
        case Param(index):
            return {"op": "param", "index": index}
        case SelfRef():
            return {"op": "self"}
        case GetField(name):
            return {"op": "get", "field": name}
        case GetGlobal(name):
            return {"op": "gget", "name": name}
        case BinOp(op, left, right):
            return {"op": "bin", "o": op, "l": _expr_to_json(left), "r": _expr_to_json(right)}
        case Builtin(name, args):
            return {"op": "builtin", "name": name, "args": [_expr_to_json(a) for a in args]}
        case New(type_name, args):
            return {"op": "new", "type": type_name, "args": [_expr_to_json(a) for a in args]}
        case _:
            raise ValidationError(f"unserializable expression {expr!r}")


def _stmt_to_json(stmt: Stmt) -> object:
    match stmt:
        case SetField(name, value):
            return {"op": "set", "field": name, "value": _expr_to_json(value)}
        case SetGlobal(name, value):
            return {"op": "gset", "name": name, "value": _expr_to_json(value)}
        case Return(None):
            return {"op": "ret"}
        case Return(value):
            return {"op": "ret", "value": _expr_to_json(value)}
        case ExprStmt(value):
            return _expr_to_json(value)
        case _:
            raise ValidationError(f"unserializable statement {stmt!r}")


# ---------------------------------------------------------------------------
# signatures, fields, globals
# ---------------------------------------------------------------------------

def _parse_signature(raw: dict, what: str, instance_ok: bool) -> tuple[str, MethodSignature]:
    _require_keys(raw, {"name", "static", "params", "returns", "body"}, {"name"}, what)
    name = _ident(raw["name"], what)
    is_static = raw.get("static", False)
    if not isinstance(is_static, bool):
        raise ValidationError(f"{what}: 'static' must be a boolean")
    if not instance_ok:
        is_static = True  # free functions always execute without a receiver
    return name, _parse_callable(raw, what, is_static)


def _parse_ctor(raw: dict, what: str) -> MethodSignature:
    _require_keys(raw, {"params", "body"}, set(), what)
    return _parse_callable(raw, what, is_static=False)


def _parse_callable(raw: dict, what: str, is_static: bool) -> MethodSignature:
    """Params, return kind and body of a method, function or constructor entry.

    Only a non-static body may use `self`; a constructor has no
    'returns' key, so it returns void.
    """
    params_raw = raw.get("params", [])
    if not isinstance(params_raw, list):
        raise ValidationError(f"{what}: params must be a list")
    params = tuple(parse_kind(p, f"{what} parameter {i}") for i, p in enumerate(params_raw))
    returns = parse_kind(raw.get("returns", "void"), f"{what} return", allow_void=True)
    body_raw = raw.get("body", [])
    if not isinstance(body_raw, list):
        raise ValidationError(f"{what}: body must be a list of statements")
    ctx = _BodyCtx(len(params), allow_self=not is_static, what=what)
    body = tuple(parse_stmt(s, ctx) for s in body_raw)
    return MethodSignature(params, returns, is_static, body)


#: the initial of a declaration that gives none; an enum kind must give one
_DEFAULT_INITIAL = {"i64": 0, "f64": 0.0, "bool": False, "cstr": "", "str": "", "obj": None}


def _normalize_initial(kind: ValueKind, raw: object, present: bool, what: str) -> object:
    """Defaults for absent initials; type-check the JSON shape of present ones.

    `parse_kind` has already rejected void, so every kind here is storable.
    """
    if not present:
        if kind.tag == TAG_ENUM:
            raise ValidationError(f"{what}: enum-kind declarations require an initial")
        return _DEFAULT_INITIAL[kind.tag]
    match kind.tag:
        case "i64":
            if isinstance(raw, bool) or not isinstance(raw, int):
                raise ValidationError(f"{what}: i64 initial must be an integer")
            if not I64_MIN <= raw <= I64_MAX:
                raise ValidationError(f"{what}: initial {raw} outside the i64 range")
            return raw
        case "f64":
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise ValidationError(f"{what}: f64 initial must be a number")
            return float(raw)
        case "bool":
            if not isinstance(raw, bool):
                raise ValidationError(f"{what}: bool initial must be true or false")
            return raw
        case "cstr" | "str":
            if not isinstance(raw, str):
                raise ValidationError(f"{what}: string initial must be a string")
            return raw
        case "enum":
            if isinstance(raw, bool) or not isinstance(raw, (int, str)):
                raise ValidationError(
                    f"{what}: enum initial must be an enumerator name or integer value"
                )
            return raw
        case _:  # obj
            if raw is not None:
                raise ValidationError(f"{what}: object initials must be null")
            return None


def _resolve_initial(
    kind: ValueKind, raw: object, enums: dict[str, dict[str, int]], what: str
) -> HostValue:
    """Raw normalized initial -> HostValue, with enum names resolved."""
    if kind.tag == TAG_OBJ:
        return ref(0)
    if kind.tag != TAG_ENUM:
        return HostValue(kind.tag, raw)
    _check_enums(enums, what, (kind,))
    table = enums[kind.name or ""]
    if isinstance(raw, str):
        if raw not in table:
            raise ValidationError(f"{what}: {raw!r} is not an enumerator of {kind.name}")
        return enumval(kind.name or "", table[raw])
    if raw in table.values():
        return enumval(kind.name or "", raw)  # type: ignore[arg-type]
    raise ValidationError(f"{what}: {raw} is not an enumerator value of {kind.name}")


# ---------------------------------------------------------------------------
# parse_manifest / serialize_manifest
# ---------------------------------------------------------------------------

def _finite(token: str) -> float:
    """JSON number hook: Infinity, NaN and numbers too large for binary64
    never enter host values."""
    value = float(token)
    if not math.isfinite(value):
        raise ValidationError(f"non-finite number {token!r} is not a valid constant")
    return value


#: How many plugin texts `parse_manifest` keeps parsed, least recently used
#: out first. Macros never enter, so a stream of unique macros cannot
#: evict the plugins a host keeps reloading.
MANIFEST_MEMO_SIZE = 16

_memo: OrderedDict[str, ManifestAST] = OrderedDict()
_memo_lock = threading.Lock()  # bridges on several threads may load at once


def parse_manifest(text: str) -> ManifestAST:
    """Parse and validate plugin/macro text. Never mutates a registry.

    A statement-free (plugin) result is memoised per process and shared;
    callers must not modify it. A text that fails is never memoised, so
    it raises the same error on every call.
    """
    with _memo_lock:
        ast = _memo.get(text)
        if ast is not None:
            _memo.move_to_end(text)
            return ast
    try:
        ast = _parse_manifest(text)
    except RecursionError:  # JSON nesting or an expression deeper than the stack
        # Blame the larger user of the stack: a manifest nesting deeper than
        # its caller's stack is at fault; a deep caller (a script recursing
        # through evalmacro) gets the RecursionError back, which the script
        # layer reports as its own. Either check may itself run out of stack,
        # which also blames the caller.
        if _nesting(text) < _stack_depth():
            raise
        raise ParseError("manifest nesting too deep") from None
    if not ast.statements:
        with _memo_lock:
            _memo[text] = ast
            if len(_memo) > MANIFEST_MEMO_SIZE:
                _memo.popitem(last=False)
    return ast


_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _nesting(text: str) -> int:
    """How deep the brackets of a JSON text nest, counted without recursion."""
    depth = deepest = 0
    for bracket in re.findall(r"[][{}]", _JSON_STRING.sub("", text)):
        depth += 1 if bracket in "[{" else -1
        deepest = max(deepest, depth)
    return deepest


def _stack_depth() -> int:
    """How many Python frames are on the calling thread's stack."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _parse_manifest(text: str) -> ManifestAST:
    try:
        data = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(data, dict):
        raise ValidationError("manifest top level must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown manifest key(s) {sorted(unknown)}")

    namespaces: list[str] = []
    for raw in _as_list(data.get("namespaces", []), "namespaces"):
        path = _qname(raw, "namespaces entry")
        if path not in namespaces:
            namespaces.append(path)

    enums: dict[str, dict[str, int]] = {}
    enums_raw = data.get("enums", {})
    if not isinstance(enums_raw, dict):
        raise ValidationError("enums must be an object")
    for enum_name, table_raw in enums_raw.items():
        _ident(enum_name, "enum name")
        if not isinstance(table_raw, dict) or not table_raw:
            raise ValidationError(f"enum {enum_name!r} must be a non-empty object")
        table: dict[str, int] = {}
        for enumerator, value in table_raw.items():
            _ident(enumerator, f"enum {enum_name} enumerator")
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"enum {enum_name}.{enumerator} must be an integer")
            if not I64_MIN <= value <= I64_MAX:
                raise ValidationError(f"enum {enum_name}.{enumerator} outside the i64 range")
            table[enumerator] = value
        enums[enum_name] = table

    types = tuple(
        _parse_type(raw, i) for i, raw in enumerate(_as_list(data.get("types", []), "types"))
    )
    functions = tuple(
        _parse_function(raw, i)
        for i, raw in enumerate(_as_list(data.get("functions", []), "functions"))
    )
    globals_ = tuple(
        _parse_global(raw, i)
        for i, raw in enumerate(_as_list(data.get("globals", []), "globals"))
    )

    statements_raw = _as_list(data.get("statements", []), "statements")
    macro_ctx = _BodyCtx(0, allow_self=False, what="macro statements")
    statements = tuple(parse_stmt(s, macro_ctx) for s in statements_raw)

    ast = ManifestAST(tuple(namespaces), enums, types, functions, globals_, statements)
    _validate_manifest(ast)
    return ast


def _as_list(raw: object, what: str) -> list:
    if not isinstance(raw, list):
        raise ValidationError(f"{what} must be a list")
    return raw


def _parse_type(raw: object, index: int) -> TypeSpec:
    what = f"types[{index}]"
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must be an object")
    _require_keys(
        raw,
        {"name", "namespace", "bases", "fields", "methods", "ctors"},
        {"name"},
        what,
    )
    name = _ident(raw["name"], what)
    what = f"type {name}"
    namespace = _qname(raw.get("namespace", ""), what, allow_empty=True)
    bases = tuple(
        _qname(b, f"{what} base") for b in _as_list(raw.get("bases", []), f"{what} bases")
    )
    fields: list[FieldSpec] = []
    for fraw in _as_list(raw.get("fields", []), f"{what} fields"):
        if not isinstance(fraw, dict):
            raise ValidationError(f"{what}: field entries must be objects")
        _require_keys(fraw, {"name", "kind", "initial"}, {"name", "kind"}, f"{what} field")
        fname = _ident(fraw["name"], f"{what} field name")
        fkind = parse_kind(fraw["kind"], f"{what} field {fname}")
        initial = _normalize_initial(
            fkind, fraw.get("initial"), "initial" in fraw, f"{what} field {fname}"
        )
        fields.append(FieldSpec(fname, fkind, initial))
    if len({f.name for f in fields}) != len(fields):
        raise ValidationError(f"{what}: duplicate field names")
    repeated = [b for i, b in enumerate(bases) if b in bases[:i]]
    if repeated:
        raise ValidationError(f"{what}: base {repeated[0]!r} is listed more than once")

    methods: list[MethodSpec] = []
    for mraw in _as_list(raw.get("methods", []), f"{what} methods"):
        if not isinstance(mraw, dict):
            raise ValidationError(f"{what}: method entries must be objects")
        mname, sig = _parse_signature(mraw, f"{what} method", instance_ok=True)
        methods.append(MethodSpec(mname, sig))
    _check_distinguishable(
        [(m.name, m.signature) for m in methods], f"{what} methods"
    )

    ctors: list[MethodSignature] = []
    for craw in _as_list(raw.get("ctors", []), f"{what} ctors"):
        if not isinstance(craw, dict):
            raise ValidationError(f"{what}: ctor entries must be objects")
        ctors.append(_parse_ctor(craw, f"{what} constructor"))
    _check_distinguishable([("(ctor)", c) for c in ctors], f"{what} constructors")

    return TypeSpec(name, namespace, bases, tuple(fields), tuple(methods), tuple(ctors))


def _parse_function(raw: object, index: int) -> FunctionSpec:
    what = f"functions[{index}]"
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must be an object")
    namespace = _qname(raw.get("namespace", ""), what, allow_empty=True)
    body = {k: v for k, v in raw.items() if k != "namespace"}
    name, sig = _parse_signature(body, what, instance_ok=False)
    return FunctionSpec(name, namespace, sig)


def _parse_global(raw: object, index: int) -> GlobalSpec:
    what = f"globals[{index}]"
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must be an object")
    _require_keys(raw, {"name", "namespace", "kind", "initial"}, {"name", "kind"}, what)
    name = _ident(raw["name"], what)
    namespace = _qname(raw.get("namespace", ""), what, allow_empty=True)
    kind = parse_kind(raw["kind"], f"global {name}")
    initial = _normalize_initial(kind, raw.get("initial"), "initial" in raw, f"global {name}")
    return GlobalSpec(name, namespace, kind, initial)


def _sig_key(sig: MethodSignature) -> tuple:
    return tuple((k.tag, k.name) for k in sig.params)


def _check_distinguishable(named: list[tuple[str, MethodSignature]], what: str) -> None:
    seen: dict[tuple, str] = {}
    for name, sig in named:
        key = (name, _sig_key(sig))
        if key in seen:
            raise ValidationError(
                f"{what}: {sig_str(name, sig)} is indistinguishable from an earlier overload"
            )
        seen[key] = name


def _validate_manifest(ast: ManifestAST) -> None:
    """Cross-declaration checks: the four categories stay disjoint per node."""
    ns_children: dict[str, set[str]] = {}
    for path in ast.namespace_paths:
        parts = split_path(path)
        for i, part in enumerate(parts):
            ns_children.setdefault(".".join(parts[:i]), set()).add(part)

    def claim(category: str, namespace: str, name: str, table: dict[tuple[str, str], str]):
        if name in ns_children.get(namespace, set()):
            raise ValidationError(
                f"{category} {join_path(namespace, name)!r} collides with a namespace"
            )
        key = (namespace, name)
        if key in table:
            raise ValidationError(
                f"duplicate declaration of {join_path(namespace, name)!r} "
                f"({table[key]} and {category})"
            )
        table[key] = category

    claimed: dict[tuple[str, str], str] = {}
    for t in ast.types:
        claim("type", t.namespace, t.name, claimed)
    fn_sigs: dict[tuple[str, str], list[MethodSignature]] = {}
    for fn in ast.functions:
        key = (fn.namespace, fn.name)
        if key not in fn_sigs:
            claim("function", fn.namespace, fn.name, claimed)
        fn_sigs.setdefault(key, []).append(fn.signature)
    for (namespace, name), sigs in fn_sigs.items():
        _check_distinguishable(
            [(name, s) for s in sigs], f"function {join_path(namespace, name)}"
        )
    for g in ast.globals:
        claim("global", g.namespace, g.name, claimed)


def serialize_manifest(ast: ManifestAST) -> str:
    """Canonical text form; parse(serialize(parse(t))) is structurally equal."""
    out: dict = {}
    if ast.namespaces:
        out["namespaces"] = list(ast.namespaces)
    if ast.enums:
        out["enums"] = {name: dict(table) for name, table in ast.enums.items()}
    if ast.types:
        out["types"] = [_type_to_json(t) for t in ast.types]
    if ast.functions:
        out["functions"] = [_function_to_json(f) for f in ast.functions]
    if ast.globals:
        out["globals"] = [_global_to_json(g) for g in ast.globals]
    if ast.statements:
        out["statements"] = [_stmt_to_json(s) for s in ast.statements]
    return json.dumps(out, indent=2) + "\n"


def _type_to_json(t: TypeSpec) -> dict:
    out: dict = {"name": t.name}
    if t.namespace:
        out["namespace"] = t.namespace
    if t.bases:
        out["bases"] = list(t.bases)
    if t.fields:
        out["fields"] = [
            {"name": f.name, "kind": kind_to_json(f.kind), "initial": f.initial_raw}
            for f in t.fields
        ]
    if t.methods:
        out["methods"] = [_sig_to_json(m.name, m.signature) for m in t.methods]
    if t.ctors:
        out["ctors"] = [
            {
                "params": [kind_to_json(k) for k in c.params],
                "body": [_stmt_to_json(s) for s in c.body],
            }
            for c in t.ctors
        ]
    return out


def _sig_to_json(name: str, sig: MethodSignature) -> dict:
    out: dict = {"name": name, "static": sig.is_static}
    out["params"] = [kind_to_json(k) for k in sig.params]
    out["returns"] = kind_to_json(sig.returns)
    if sig.body:
        out["body"] = [_stmt_to_json(s) for s in sig.body]
    return out


def _function_to_json(f: FunctionSpec) -> dict:
    out = _sig_to_json(f.name, f.signature)
    if f.namespace:
        out["namespace"] = f.namespace
    return out


def _global_to_json(g: GlobalSpec) -> dict:
    out: dict = {"name": g.name, "kind": kind_to_json(g.kind), "initial": g.initial_raw}
    if g.namespace:
        out["namespace"] = g.namespace
    return out


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------

@dataclass
class _MergePlan:
    namespaces: tuple[str, ...]
    enums: dict[str, dict[str, int]]
    new_types: list[HostTypeDescriptor]
    extensions: list[tuple[HostTypeDescriptor, tuple[MethodSpec, ...]]]  # existing type, new methods
    functions: tuple[FunctionSpec, ...]
    globals: list[GlobalDecl]
    layouts: dict[str, TypeLayout]  # new type name -> its checked layout


def _check_quiescent(registry: Registry) -> None:
    if registry.busy_check is not None:
        pending = registry.busy_check()
        if pending > 0:
            raise NotQuiescent(f"{pending} asynchronous call(s) in flight")


def merge(registry: Registry, ast: ManifestAST, heap: Heap | None = None) -> int:
    """Fold a validated manifest into the registry; returns the new version.

    Atomic with respect to failures: a conflict leaves the registry (and
    version) untouched. When a heap is supplied, newly declared globals
    get their initial values stored.
    """
    _check_quiescent(registry)
    if ast.statements:
        raise ValidationError("statement lists are macro-only; use eval_macro")
    return _fold(registry, ast, heap)


def eval_macro(registry: Registry, heap: Heap, text: str) -> MacroResult:
    """Parse macro text, merge its declarations, then run its statements.

    Declarations land before the statements execute; a statement fault
    leaves them merged and the version bumped (the bridge must resync
    regardless). Returns the value of the final `ret` statement, or void.
    """
    ast = parse_manifest(text)
    _check_quiescent(registry)
    _fold(registry, ast, heap)
    value = heap.run_macro_statements(ast.statements)
    return MacroResult(registry.version, value)


def _fold(registry: Registry, ast: ManifestAST, heap: Heap | None) -> int:
    """Plan, apply, bump the version: the declaration half of merge and eval_macro."""
    _apply_merge(registry, _plan_merge(registry, ast), heap)
    registry.version += 1
    return registry.version


def _plan_merge(registry: Registry, ast: ManifestAST) -> _MergePlan:
    """Check every declaration against the registry; mutates nothing but the layout cache."""
    # the previous merge's unused layouts go before this one walks its own,
    # so one merge's layouts at most are alive (a cache; nothing observable)
    registry.hand_over_layouts({})
    for enum_name in ast.enums:
        if enum_name in registry.enums:
            raise ConflictError(f"enum {enum_name!r} already declared")
    enums_overlay = {**registry.enums, **ast.enums}

    for path in ast.namespace_paths:
        registry.check_namespace_path(path)

    # types: split into fresh declarations and method-only extensions
    new_types: list[HostTypeDescriptor] = []
    extensions: list[tuple[HostTypeDescriptor, tuple[MethodSpec, ...]]] = []
    for t in ast.types:
        existing = registry.entries.get(t.qualified)
        if isinstance(existing, HostTypeDescriptor):
            if not t.is_extension:
                raise ConflictError(f"type {t.qualified!r} already declared")
            for m in t.methods:
                _check_overload(existing.methods.get(m.name), "method",
                                f"{t.qualified}.{m.name}", m.signature)
            extensions.append((existing, t.methods))
            continue
        if existing is not None:
            raise ConflictError(f"{t.qualified!r} already declared as a {category(existing)}")
        what = f"type {t.qualified}"
        for f in t.fields:
            _check_enums(enums_overlay, f"{what} field {f.name}", (f.kind,))
        for m in t.methods:
            _check_enums(enums_overlay, f"{what} method {m.name}", _kinds(m.signature))
        for c in t.ctors:
            _check_enums(enums_overlay, f"{what} constructor", _kinds(c))
        desc = HostTypeDescriptor(
            qualified_name=t.qualified,
            bases=t.bases,
            fields=[
                FieldDecl(
                    f.name,
                    f.kind,
                    _resolve_initial(f.kind, f.initial_raw, enums_overlay, f"{what} field {f.name}"),
                )
                for f in t.fields
            ],
            methods=_add_methods({}, t.methods),
            constructors=OverloadSet("(ctor)", list(t.ctors)),
        )
        new_types.append(desc)

    # the walk checks bases and field shadowing; its layouts wait for first use
    new_by_name = {d.qualified_name: d for d in new_types}
    layouts = {
        desc.qualified_name:
            walk_layout(desc, lambda name: new_by_name.get(name) or registry.find_type(name))
        for desc in new_types
    }

    # `parse_manifest` has rejected overloads that collide within the manifest
    for fn in ast.functions:
        existing = registry.entries.get(fn.qualified)
        if existing is not None and not isinstance(existing, OverloadSet):
            raise ConflictError(f"{fn.qualified!r} already declared as a {category(existing)}")
        _check_overload(existing, "function", fn.qualified, fn.signature)
        _check_enums(enums_overlay, f"function {fn.qualified}", _kinds(fn.signature))

    globals_: list[GlobalDecl] = []
    for g in ast.globals:
        existing = registry.entries.get(g.qualified)
        if existing is not None:
            raise ConflictError(f"{g.qualified!r} already declared as a {category(existing)}")
        initial = _resolve_initial(g.kind, g.initial_raw, enums_overlay, f"global {g.qualified}")
        globals_.append(GlobalDecl(g.name, g.qualified, g.kind, initial))

    return _MergePlan(
        namespaces=ast.namespace_paths,
        enums=ast.enums,
        new_types=new_types,
        extensions=extensions,
        functions=ast.functions,
        globals=globals_,
        layouts=layouts,
    )


def _check_overload(
    overloads: OverloadSet | None, label: str, qualified: str, sig: MethodSignature
) -> None:
    """ConflictError if `sig` has the parameter kinds of an overload already declared."""
    if overloads is not None and any(_sig_key(s) == _sig_key(sig) for s in overloads.signatures):
        raise ConflictError(
            f"{label} {sig_str(qualified, sig)} is indistinguishable from an existing overload"
        )


def _kinds(sig: MethodSignature) -> tuple[ValueKind, ...]:
    return (*sig.params, sig.returns)


def _check_enums(enums: dict[str, dict[str, int]], what: str, kinds: tuple[ValueKind, ...]) -> None:
    """ValidationError for the first of `kinds` that names an unknown enum."""
    for kind in kinds:
        if kind.tag == TAG_ENUM and (kind.name or "") not in enums:
            raise ValidationError(f"{what}: unknown enum {kind.name!r}")


def _add_methods(
    sets: dict[str, OverloadSet], methods: tuple[MethodSpec, ...]
) -> dict[str, OverloadSet]:
    for m in methods:
        sets.setdefault(m.name, OverloadSet(m.name)).signatures.append(m.signature)
    return sets


def _apply_merge(registry: Registry, plan: _MergePlan, heap: Heap | None) -> None:
    for name, table in plan.enums.items():
        registry.enums[name] = dict(table)
    for path in plan.namespaces:  # the plan has checked every existing prefix
        walked = ""
        for part in split_path(path):
            walked = join_path(walked, part)
            if walked not in registry.entries:
                registry.declare("namespace", walked, NamespaceNode(part))
    for desc in plan.new_types:
        registry.declare("type", desc.qualified_name, desc)
    registry.hand_over_layouts(plan.layouts)
    for desc, methods in plan.extensions:
        _add_methods(desc.methods, methods)
    for fn in plan.functions:
        overloads = registry.entries.get(fn.qualified)
        if overloads is None:  # only the first overload adds a name
            overloads = OverloadSet(fn.name)
            registry.declare("function", fn.qualified, overloads)
        overloads.signatures.append(fn.signature)  # type: ignore[union-attr]
    for decl in plan.globals:
        registry.declare("global", decl.qualified, decl)
        if heap is not None:
            heap.globals[decl.qualified] = decl.initial
