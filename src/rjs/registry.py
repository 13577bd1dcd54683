"""Manifest handling and registry mutation.

Plugins and macros share one UTF-8 JSON file format. `parse_manifest`
turns text into a validated ManifestAST without touching any registry;
`merge` folds declarations into a registry in one pass (`_fold`: every
check, then every write, so a fault writes nothing) and bumps the
version; `eval_macro` additionally executes the manifest's top-level
statement list against the heap. Declarations merge before statements
run, so a faulting macro still leaves its declarations in place with the
version bumped, and the bridge resynchronizes either way.

A plugin text is parsed once per process (`parse_manifest` memoises
statement-free results by text), so a long-lived host that opens
session after session on the same libraries skips the parse; macros are
parsed on every call. The parse also builds the descriptor, layout and
method table of each type the plugin can share, so every registry that
loads the text declares those same objects instead of building its own.

The host-body language is one table, `_OPS`, read by its parser and its
writer. Methods, functions and constructors share one reader, and every
entry's writer one omission rule (`_written`); each entry kind keeps its
own reader, since their labels and the order of their checks differ.
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence, Set
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    ConflictError,
    NotQuiescent,
    ParseError,
    RjsError,
    ValidationError,
)
from .heap import BUILTINS, OPERATORS, Heap
from .model import (
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
    SCALAR_KINDS,
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

@dataclass(slots=True, unsafe_hash=True)
class FieldSpec:
    name: str
    kind: ValueKind
    initial_raw: object  # normalized JSON scalar; None means the null reference


@dataclass(slots=True, unsafe_hash=True)
class MethodSpec:
    name: str
    signature: MethodSignature


@dataclass(slots=True, unsafe_hash=True)
class TypeSpec:
    """A type block, shared by every registry it merges into and never assigned to.

    Three parts are derived at parse time: `qualified`; `desc`, the type's
    descriptor, None if a field is enum-kinded (its initial needs the
    registry's enum table); and `method_table`, a read-only map of its
    overload sets, None if it declares no method. A registry declares
    `desc` when the manifest's `layouts` holds the type, and otherwise
    builds its own descriptor on `desc.fields`.
    """

    name: str
    namespace: str
    bases: tuple[str, ...]
    fields: tuple[FieldSpec, ...]
    methods: tuple[MethodSpec, ...]
    ctors: tuple[MethodSignature, ...]
    qualified: str = field(compare=False)
    desc: HostTypeDescriptor | None = field(compare=False, repr=False)
    method_table: Mapping[str, OverloadSet] | None = field(default=None, compare=False, repr=False)

    @property
    def is_extension(self) -> bool:
        """A block that names an existing type and adds methods only.

        Anything redeclaring structure (bases, fields, ctors) or declaring
        nothing at all is a redeclaration, which merge rejects.
        """
        return bool(self.methods) and not self.bases and not self.fields and not self.ctors


@dataclass(slots=True, unsafe_hash=True)
class FunctionSpec:
    name: str
    namespace: str
    signature: MethodSignature
    qualified: str = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class GlobalSpec:
    name: str
    namespace: str
    kind: ValueKind
    initial_raw: object
    qualified: str = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class ManifestAST:
    """A validated manifest.

    A plugin's AST is memoised by `parse_manifest` and shared by every
    bridge that loads the same text; callers must not modify it.
    `layouts` maps each type whose layout the parse built (see
    `_shared_layouts`; none for a manifest with statements) to it; the
    type's descriptor is `layout.path[layout.depth]`.
    """

    namespaces: tuple[str, ...] = ()
    enums: dict[str, dict[str, int]] = field(default_factory=dict)
    types: tuple[TypeSpec, ...] = ()
    functions: tuple[FunctionSpec, ...] = ()
    globals: tuple[GlobalSpec, ...] = ()
    statements: tuple[Stmt, ...] = ()
    layouts: dict[str, TypeLayout] = field(default_factory=dict, compare=False, repr=False)

    @property
    def namespace_paths(self) -> tuple[str, ...]:
        """Every namespace path the manifest implies: the declared ones, then
        each declaration's home, first occurrence only."""
        homes = (spec.namespace for spec in (*self.types, *self.functions, *self.globals))
        return tuple(dict.fromkeys((*self.namespaces, *filter(None, homes))))


@dataclass(slots=True, unsafe_hash=True)
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
        if raw in SCALAR_KINDS:
            if raw == TAG_VOID and not allow_void:
                raise ValidationError(f"{what}: void is only valid as a return kind")
            return SCALAR_KINDS[raw]
        raise ValidationError(f"{what}: unknown kind tag {raw!r}")
    if isinstance(raw, dict) and len(raw) == 1:
        if "enum" in raw:
            return ValueKind(TAG_ENUM, _ident(raw["enum"], what))
        if "obj" in raw:
            return ValueKind(TAG_OBJ, _qname(raw["obj"], what))
    raise ValidationError(f"{what}: unknown kind {raw!r}")


def kind_to_json(kind: ValueKind) -> object:
    """A kind as `parse_kind` reads it: a named kind is {tag: name}."""
    return {kind.tag: kind.name} if kind.tag in (TAG_ENUM, TAG_OBJ) else kind.tag


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


# ---------------------------------------------------------------------------
# body statements and expressions: one op table, read by the parser and the writer
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class _BodyCtx:
    arity: int
    allow_self: bool
    what: str


def _require_keys(obj: dict, allowed: Set[str], required: Set[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{what}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{what}: missing key(s) {sorted(missing)}")


# how the writer renders a node field's value under its JSON key
_PLAIN, _CONST, _EXPR, _EXPRS, _OPTIONAL_EXPR = range(5)


class _Op(NamedTuple):
    node: type
    keys: dict[str, int]  # each node field's JSON key and rendering, in field order
    statement: bool = False  # only a statement position takes it
    instance: str = ""  # what it does to `self`, if only an instance body may use it


#: the host-body language: every op a statement or expression object may name
_OPS: dict[str, _Op] = {
    "const": _Op(Const, {"value": _CONST}),
    "param": _Op(Param, {"index": _PLAIN}),
    "self": _Op(SelfRef, {}, instance="self reference"),
    "get": _Op(GetField, {"field": _PLAIN}, instance="field read"),
    "gget": _Op(GetGlobal, {"name": _PLAIN}),
    "bin": _Op(BinOp, {"o": _PLAIN, "l": _EXPR, "r": _EXPR}),
    "builtin": _Op(Builtin, {"name": _PLAIN, "args": _EXPRS}),
    "new": _Op(New, {"type": _PLAIN, "args": _EXPRS}),
    "set": _Op(SetField, {"field": _PLAIN, "value": _EXPR}, True, "field write"),
    "gset": _Op(SetGlobal, {"name": _PLAIN, "value": _EXPR}, True),
    "ret": _Op(Return, {"value": _OPTIONAL_EXPR}, True),
}
#: op -> (the keys it allows, the keys it requires), built once
_OP_KEYS = {op: (frozenset({"op", *keys}), frozenset(k for k in keys if keys[k] != _OPTIONAL_EXPR))
            for op, (_, keys, _, _) in _OPS.items()}
_OP_OF_NODE = {spec.node: op for op, spec in _OPS.items()}


def parse_body(raw: object, ctx: _BodyCtx, statement: bool) -> Stmt | Expr:
    """One statement (`statement`) or expression of a host body or macro;
    an expression object where a statement goes is an expression statement."""
    if not isinstance(raw, dict) or "op" not in raw:
        position = "statement" if statement else "expression"
        raise ValidationError(f"{ctx.what}: {position} must be an object with an 'op' key")
    op = raw["op"]
    spec = _OPS.get(op) if isinstance(op, str) else None
    if spec is None or (spec.statement and not statement):
        raise ValidationError(f"{ctx.what}: unknown expression op {op!r}")
    _require_keys(raw, *_OP_KEYS[op], ctx.what)
    if spec.instance and not ctx.allow_self:
        raise ValidationError(f"{ctx.what}: {spec.instance} outside an instance body")
    match op:
        case "const":
            node: Stmt | Expr = Const(_const_value(raw["value"], ctx.what))
        case "param":
            index = raw["index"]
            if not isinstance(index, int) or isinstance(index, bool) or index < 0:
                raise ValidationError(f"{ctx.what}: param index must be a non-negative integer")
            if index >= ctx.arity:
                raise ValidationError(
                    f"{ctx.what}: param index {index} out of range for arity {ctx.arity}"
                )
            node = Param(index)
        case "self":
            node = SelfRef()
        case "get":
            node = GetField(_ident(raw["field"], ctx.what))
        case "gget":
            node = GetGlobal(_qname(raw["name"], ctx.what))
        case "bin":
            if not isinstance(raw["o"], str) or raw["o"] not in OPERATORS:
                raise ValidationError(f"{ctx.what}: unknown operator {raw['o']!r}")
            left, right = parse_body(raw["l"], ctx, False), parse_body(raw["r"], ctx, False)
            node = BinOp(raw["o"], left, right)
        case "builtin":
            name = raw["name"]
            if not isinstance(name, str) or name not in BUILTINS:
                raise ValidationError(f"{ctx.what}: unknown builtin {name!r}")
            if not isinstance(raw["args"], list):
                raise ValidationError(f"{ctx.what}: builtin args must be a list")
            low, high, _ = BUILTINS[name]
            count = len(raw["args"])
            if count < low or (high is not None and count > high):
                bound = f"at least {low}" if count < low else f"at most {high}"
                raise ValidationError(f"{ctx.what}: builtin {name!r} takes {bound} argument(s)")
            node = Builtin(name, tuple(parse_body(a, ctx, False) for a in raw["args"]))
        case "new":
            if not isinstance(raw["args"], list):
                raise ValidationError(f"{ctx.what}: new args must be a list")
            node = New(_qname(raw["type"], ctx.what),
                       tuple(parse_body(a, ctx, False) for a in raw["args"]))
        case "set":
            node = SetField(_ident(raw["field"], ctx.what), parse_body(raw["value"], ctx, False))
        case "gset":
            node = SetGlobal(_qname(raw["name"], ctx.what), parse_body(raw["value"], ctx, False))
        case _:  # ret
            node = Return(parse_body(raw["value"], ctx, False) if "value" in raw else None)
    return ExprStmt(node) if statement and not spec.statement else node


def _body_to_json(node: object, statement: bool) -> object:
    """The JSON of a statement (`statement`) or expression node, as `parse_body` reads it."""
    if statement and type(node) is ExprStmt:
        node, statement = node.value, False
    op = _OP_OF_NODE.get(type(node))
    if op is None or _OPS[op].statement != statement:
        position = "statement" if statement else "expression"
        raise ValidationError(f"unserializable {position} {node!r}")
    out: dict = {"op": op}
    for (key, how), attr in zip(_OPS[op].keys.items(), node.__match_args__):
        value = getattr(node, attr)
        if how == _PLAIN:
            out[key] = value
        elif how == _CONST:
            out[key] = None if value.tag == TAG_VOID else value.value
        elif how == _EXPRS:
            out[key] = [_body_to_json(a, False) for a in value]
        elif value is not None or how == _EXPR:  # a `ret` without a value leaves its key out
            out[key] = _body_to_json(value, False)
    return out


# ---------------------------------------------------------------------------
# callables, fields, globals
# ---------------------------------------------------------------------------

_TYPE_KEYS = frozenset({"name", "namespace", "bases", "fields", "methods", "ctors"})
_CTOR_KEYS = frozenset({"params", "body"})
_METHOD_KEYS = _CTOR_KEYS | {"name", "static", "returns"}
_FUNCTION_KEYS = _METHOD_KEYS | {"namespace"}


def _parse_callable(raw: dict, what: str, allowed: frozenset[str], instance_ok: bool = True
                    ) -> tuple[str, MethodSignature]:
    """Name, params, return kind and body of a method, function or constructor
    entry. A constructor (no name among `allowed`) is named "" and returns
    void, a free function (not `instance_ok`) is static, and only a
    non-static body may use `self`."""
    _require_keys(raw, allowed, allowed & {"name"}, what)
    name = _ident(raw["name"], what) if "name" in allowed else ""
    is_static = raw.get("static", False)
    if not isinstance(is_static, bool):
        raise ValidationError(f"{what}: 'static' must be a boolean")
    is_static = is_static or not instance_ok
    params_raw = raw.get("params", [])
    if not isinstance(params_raw, list):
        raise ValidationError(f"{what}: params must be a list")
    params = tuple(parse_kind(p, f"{what} parameter {i}") for i, p in enumerate(params_raw))
    returns = parse_kind(raw.get("returns", "void"), f"{what} return", allow_void=True)
    body_raw = raw.get("body", [])
    if not isinstance(body_raw, list):
        raise ValidationError(f"{what}: body must be a list of statements")
    ctx = _BodyCtx(len(params), allow_self=not is_static, what=what)
    body = tuple(parse_body(s, ctx, True) for s in body_raw)
    return name, MethodSignature(params, returns, is_static, body)


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
            try:
                return float(raw)
            except OverflowError:  # an integer beyond binary64
                raise ValidationError(f"{what}: initial {raw} outside the f64 range") from None
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
    """Raw normalized initial -> HostValue; only an enum kind reads `enums`."""
    if kind.tag == TAG_OBJ:
        return ref(0)
    if kind.tag != TAG_ENUM:
        return HostValue(kind.tag, raw)
    _check_enums(enums, (kind,), what)
    table = enums[kind.name or ""]
    if isinstance(raw, str):
        if raw not in table:
            raise ValidationError(f"{what}: {raw!r} is not an enumerator of {kind.name}")
        return enumval(kind.name or "", table[raw])
    if raw in table.values():
        return enumval(kind.name or "", raw)  # type: ignore[arg-type]
    raise ValidationError(f"{what}: {raw} is not an enumerator value of {kind.name}")


def _field_decls(
    fields: Sequence[FieldSpec], enums: dict[str, dict[str, int]], what: str
) -> tuple[FieldDecl, ...]:
    """A type's field declarations with their initials resolved, in order."""
    return tuple(
        FieldDecl(f.name, f.kind, _resolve_initial(f.kind, f.initial_raw, enums, f"{what} field {f.name}"))
        for f in fields
    )


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

    types = _entries(data, "types", _parse_type)
    functions = _entries(data, "functions", _parse_function)
    globals_ = _entries(data, "globals", _parse_global)

    statements_raw = _as_list(data.get("statements", []), "statements")
    macro_ctx = _BodyCtx(0, allow_self=False, what="macro statements")
    statements = tuple(parse_body(s, macro_ctx, True) for s in statements_raw)

    layouts = {} if statements else _shared_layouts(types)
    ast = ManifestAST(tuple(namespaces), enums, types, functions, globals_, statements, layouts)
    _validate_manifest(ast)
    return ast


def _shared_layouts(types: tuple[TypeSpec, ...]) -> dict[str, TypeLayout]:
    """The layout of each type whose descriptor every registry can share: one
    with a descriptor (no enum-kinded field) whose ancestors the manifest
    declares. An extension-shaped block is no ancestor here, since it names
    an existing type in a registry that has one. A type the walk faults on
    gets no layout, so the merge walks it and raises as it would without this."""
    descs = {t.qualified: t.desc for t in types if t.desc is not None and not t.is_extension}
    layouts: dict[str, TypeLayout] = {}
    for qualified, desc in descs.items():
        try:
            layouts[qualified] = walk_layout(desc, lambda n: layouts.get(n) or descs.get(n), layouts)
        except RjsError:
            pass
    return layouts


def _as_list(raw: object, what: str) -> list:
    if not isinstance(raw, list):
        raise ValidationError(f"{what} must be a list")
    return raw


def _entries(data: dict, key: str, parse: Callable[[dict, str], object]) -> tuple:
    """The objects of a top-level entry list, each read by `parse` as `key[i]`."""
    entries = []
    for index, raw in enumerate(_as_list(data.get(key, []), key)):
        what = f"{key}[{index}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{what} must be an object")
        entries.append(parse(raw, what))
    return tuple(entries)


def _parse_type(raw: dict, what: str) -> TypeSpec:
    _require_keys(raw, _TYPE_KEYS, {"name"}, what)
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
        methods.append(MethodSpec(*_parse_callable(mraw, f"{what} method", _METHOD_KEYS)))
    _check_distinguishable(
        [(m.name, m.signature) for m in methods], f"{what} methods"
    )

    ctors: list[MethodSignature] = []
    for craw in _as_list(raw.get("ctors", []), f"{what} ctors"):
        if not isinstance(craw, dict):
            raise ValidationError(f"{what}: ctor entries must be objects")
        ctors.append(_parse_callable(craw, f"{what} constructor", _CTOR_KEYS)[1])
    _check_distinguishable([("(ctor)", c) for c in ctors], f"{what} constructors")

    qualified, ctor_sigs = join_path(namespace, name), tuple(ctors)
    desc = None if any(f.kind.tag == TAG_ENUM for f in fields) else HostTypeDescriptor(
        qualified, bases, _field_decls(fields, {}, what), ctor_sigs)
    return TypeSpec(name, namespace, bases, tuple(fields), tuple(methods), ctor_sigs, qualified,
                    desc, _with_methods({}, methods) if methods else None)


def _parse_function(raw: dict, what: str) -> FunctionSpec:
    namespace = _qname(raw.get("namespace", ""), what, allow_empty=True)
    name, sig = _parse_callable(raw, what, _FUNCTION_KEYS, instance_ok=False)
    return FunctionSpec(name, namespace, sig, join_path(namespace, name))


def _parse_global(raw: dict, what: str) -> GlobalSpec:
    _require_keys(raw, {"name", "namespace", "kind", "initial"}, {"name", "kind"}, what)
    name = _ident(raw["name"], what)
    namespace = _qname(raw.get("namespace", ""), what, allow_empty=True)
    kind = parse_kind(raw["kind"], f"global {name}")
    initial = _normalize_initial(kind, raw.get("initial"), "initial" in raw, f"global {name}")
    return GlobalSpec(name, namespace, kind, initial, join_path(namespace, name))


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
    """Canonical text form; parse(serialize(parse(t))) is structurally equal.

    Keys come in one fixed order, an entry's `namespace` last. An empty
    value is left out, except under the keys an entry always writes (see
    `_ALWAYS_WRITTEN`) and a constructor's `body`.
    """
    return json.dumps(_written({
        "namespaces": ast.namespaces,
        "enums": {name: dict(table) for name, table in ast.enums.items()},
        "types": [_written({
            "name": t.name,
            "namespace": t.namespace,
            "bases": t.bases,
            "fields": [{"name": f.name, "kind": kind_to_json(f.kind), "initial": f.initial_raw}
                       for f in t.fields],
            "methods": [_callable_to_json(m.name, m.signature) for m in t.methods],
            "ctors": [{"params": [kind_to_json(k) for k in c.params],
                       "body": [_body_to_json(s, True) for s in c.body]} for c in t.ctors],
        }) for t in ast.types],
        "functions": [_callable_to_json(f.name, f.signature, f.namespace) for f in ast.functions],
        "globals": [_written({"name": g.name, "kind": kind_to_json(g.kind),
                              "initial": g.initial_raw, "namespace": g.namespace})
                    for g in ast.globals],
        "statements": [_body_to_json(s, True) for s in ast.statements],
    }), indent=2) + "\n"


#: the keys every entry that has them writes, empty or not
_ALWAYS_WRITTEN = frozenset({"name", "kind", "initial", "static", "params", "returns"})


def _written(entry: dict) -> dict:
    """The one omission rule of every entry's writer: no empty value but under `_ALWAYS_WRITTEN`."""
    return {key: value for key, value in entry.items() if value or key in _ALWAYS_WRITTEN}


def _callable_to_json(name: str, sig: MethodSignature, namespace: str = "") -> dict:
    return _written({
        "name": name,
        "static": sig.is_static,
        "params": [kind_to_json(k) for k in sig.params],
        "returns": kind_to_json(sig.returns),
        "body": [_body_to_json(s, True) for s in sig.body],
        "namespace": namespace,
    })


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------

def _check_quiescent(registry: Registry) -> None:
    # a snapshot: engines on other threads join and leave at any time
    pending = sum(engine.pending_count() for engine in tuple(registry.engines))
    if pending > 0:
        raise NotQuiescent(f"{pending} asynchronous call(s) in flight")


def merge(registry: Registry, ast: ManifestAST, heap: Heap | None = None) -> int:
    """Fold a validated manifest into the registry; returns the new version.

    Atomic: `_fold` checks every declaration before it writes any, so a
    fault leaves the registry (and version) untouched. When a heap is
    supplied, newly declared globals get their initial values stored
    there (`Heap.write_global`).
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
    """The declaration half of merge and eval_macro in one pass: every check,
    then every write, then the version bump. A fault writes nothing."""
    for enum_name in ast.enums:
        if enum_name in registry.enums:
            raise ConflictError(f"enum {enum_name!r} already declared")
    enums_overlay = {**registry.enums, **ast.enums}

    new_namespaces: dict[str, str] = {}  # path -> last part, parents first
    for path in ast.namespace_paths:
        walked = ""
        for part in split_path(path):
            walked = join_path(walked, part)
            existing = registry.entries.get(walked)
            if existing is None:
                new_namespaces[walked] = part
            elif not isinstance(existing, NamespaceNode):
                raise ConflictError(f"{walked!r} already declared as a {category(existing)}")

    # types: split into fresh declarations and method-only extensions
    new_types: list[tuple[str, HostTypeDescriptor]] = []
    to_walk: dict[str, HostTypeDescriptor] = {}  # new types without a shared layout
    tables: list[tuple[str, Mapping[str, OverloadSet]]] = []
    for t in ast.types:
        existing = registry.entries.get(t.qualified)
        if isinstance(existing, HostTypeDescriptor):
            if not t.is_extension:
                raise ConflictError(f"type {t.qualified!r} already declared")
            table = registry.methods.get(t.qualified, {})
            for m in t.methods:
                _check_overload(table.get(m.name), "method", f"{t.qualified}.{m.name}", m.signature)
                _check_enums(enums_overlay, _kinds(m.signature), "type", t.qualified, "method", m.name)
            tables.append((t.qualified, _with_methods(table, t.methods)))
            continue
        if existing is not None:
            raise ConflictError(f"{t.qualified!r} already declared as a {category(existing)}")
        if t.desc is None:  # an enum-kinded field
            for f in t.fields:
                _check_enums(enums_overlay, (f.kind,), "type", t.qualified, "field", f.name)
        for m in t.methods:
            _check_enums(enums_overlay, _kinds(m.signature), "type", t.qualified, "method", m.name)
        for c in t.ctors:
            _check_enums(enums_overlay, _kinds(c), "type", t.qualified, "constructor")
        shared = ast.layouts.get(t.qualified)
        if shared is not None:
            desc = shared.path[shared.depth]
        else:
            desc = to_walk[t.qualified] = HostTypeDescriptor(
                qualified_name=t.qualified,
                bases=t.bases,
                fields=t.desc.fields if t.desc is not None
                else _field_decls(t.fields, enums_overlay, f"type {t.qualified}"),
                ctors=t.ctors,
            )
        new_types.append((t.name, desc))
        if t.method_table is not None:
            tables.append((t.qualified, t.method_table))

    # the walk checks bases and field shadowing in manifest order, so a type whose one
    # base came earlier, or in an earlier merge, or in the plugin, builds on the base's layout
    built: dict[str, TypeLayout] = {}
    for qualified, desc in to_walk.items():
        built[qualified] = walk_layout(
            desc,
            lambda n: built.get(n) or registry.layouts.get(n) or ast.layouts.get(n) or to_walk.get(n),
            built,
        )

    # `parse_manifest` has rejected overloads that collide within the manifest
    for fn in ast.functions:
        existing = registry.entries.get(fn.qualified)
        if existing is not None and not isinstance(existing, OverloadSet):
            raise ConflictError(f"{fn.qualified!r} already declared as a {category(existing)}")
        _check_overload(existing, "function", fn.qualified, fn.signature)
        _check_enums(enums_overlay, _kinds(fn.signature), "function", fn.qualified)

    globals_: list[GlobalDecl] = []
    for g in ast.globals:
        existing = registry.entries.get(g.qualified)
        if existing is not None:
            raise ConflictError(f"{g.qualified!r} already declared as a {category(existing)}")
        initial = _resolve_initial(g.kind, g.initial_raw, enums_overlay, f"global {g.qualified}")
        globals_.append(GlobalDecl(g.name, g.qualified, g.kind, initial))

    # every check has passed: write
    for name, table in ast.enums.items():
        registry.enums[name] = dict(table)
    for path, name in new_namespaces.items():
        registry.declare("namespace", path, name, NamespaceNode(name))
    for name, desc in new_types:
        registry.declare("type", desc.qualified_name, name, desc)
    registry.layouts.update(ast.layouts)
    registry.layouts.update(built)
    registry.methods.update(tables)
    for fn in ast.functions:
        overloads = registry.entries.get(fn.qualified)
        if overloads is None:  # only the first overload adds a name
            overloads = OverloadSet(fn.name)
            registry.declare("function", fn.qualified, fn.name, overloads)
        overloads.signatures.append(fn.signature)  # type: ignore[union-attr]
    for decl in globals_:
        registry.declare("global", decl.qualified, decl.name, decl)
        if heap is not None:
            heap.write_global(decl.qualified, decl.initial)
    registry.version += 1
    return registry.version


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


def _check_enums(enums: dict[str, dict[str, int]], kinds: tuple[ValueKind, ...], *what: str) -> None:
    """ValidationError, labelled by the words of `what`, for the first of `kinds`
    that names an unknown enum."""
    for kind in kinds:
        if kind.tag == TAG_ENUM and (kind.name or "") not in enums:
            raise ValidationError(f"{' '.join(what)}: unknown enum {kind.name!r}")


def _with_methods(
    table: Mapping[str, OverloadSet], methods: Sequence[MethodSpec]
) -> Mapping[str, OverloadSet]:
    """A read-only copy of `table` with `methods` added; every name they touch
    gets a new OverloadSet, so neither `table` nor a set of it changes."""
    sets = dict(table)
    for m in methods:
        before = sets.get(m.name)
        sets[m.name] = OverloadSet(m.name, [*before.signatures, m.signature] if before else [m.signature])
    return MappingProxyType(sets)
