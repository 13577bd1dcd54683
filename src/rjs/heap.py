"""Host-side instance storage and body execution.

The heap owns every host object and global value; script-side proxies
hold identity only, so every read and write lands here and all views of
one object agree by construction. Handles are abstract 64-bit counters:
each object gets a canonical address, aliases are extra handles collapsed
to the canonical address at creation time, and 0 is the reserved null
handle. Structural mutations and individual field/global accesses are
guarded by one plain (non-reentrant) lock, taken once per access and
never while already held; worker contexts may execute bodies
concurrently with nothing stronger than per-access atomicity.
`Heap._object` is the one place that turns a handle into its object.

Bodies run as closures, not as a tree walk. `compile_body` turns a
statement list into nested `step(heap, self_addr, args)` closures once; a
signature keeps its compiled body for life (a plain store into
`MethodSignature.code`), so a plugin body (whose signature the per-process
manifest memo shares between bridges) compiles once per process, while a
macro compiles on every call. The closures hold no heap: each call passes
it in, `self` normalized once, and a field step takes the lock for its own
access only (a read is `read_field`).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from .errors import (
    DanglingHandle,
    HostExecError,
    KindMismatch,
    RjsError,
    UnknownField,
    UnknownGlobal,
    UnknownType,
)
from .model import (
    TAG_ENUM,
    TAG_F64,
    TAG_I64,
    TAG_OBJ,
    BinOp,
    Builtin,
    Const,
    Expr,
    ExprStmt,
    GetField,
    GetGlobal,
    HostValue,
    K_VOID,
    MethodSignature,
    New,
    Param,
    Registry,
    Return,
    SCALAR_KINDS,
    SelfRef,
    SetField,
    SetGlobal,
    Stmt,
    VOID,
    ValueKind,
    f64,
    format_host,
    i64,
    kind_str,
    ref,
    strobj,
    wrap_i64,
)

FIRST_ADDRESS = 0x1000

#: a compiled node or body: `step(heap, self_addr, args)`; a statement's
#: step returns None, a body's the Return value or None
Step = Callable[["Heap", "int | None", "list[HostValue]"], "HostValue | None"]


@dataclass(slots=True)
class HostObject:
    address: int  # canonical
    type_name: str
    storage: dict[str, HostValue] = field(default_factory=dict)


class Heap:
    """Objects, globals and the alias table implementing address normalization."""

    def __init__(self, registry: Registry):
        self.registry = registry
        self.objects: dict[int, HostObject] = {}
        self.aliases: dict[int, int] = {}  # handle -> canonical address
        self.globals: dict[str, HostValue] = {}
        self._next_address = FIRST_ADDRESS
        self._lock = threading.Lock()

    # -- handles ----------------------------------------------------------------

    def _fresh_handle(self) -> int:
        handle = self._next_address
        self._next_address += 1
        return handle

    def _object(self, handle: int) -> HostObject:
        """The live object `handle` names; callers hold the lock."""
        obj = self.objects.get(self.aliases.get(handle, -1))
        if obj is None:
            raise DanglingHandle(f"handle {handle:#x} does not reference a live object")
        return obj

    def normalize(self, handle: int) -> int:
        """Collapse any live handle to its canonical address (idempotent)."""
        with self._lock:
            return self._object(handle).address

    def identify(self, handle: int) -> tuple[int, str]:
        """The canonical address and type name of the object `handle` names."""
        with self._lock:
            obj = self._object(handle)
            return obj.address, obj.type_name

    def make_alias(self, handle: int) -> int:
        """Fresh handle for the object `handle` normalizes to."""
        with self._lock:
            canonical = self._object(handle).address
            alias = self._fresh_handle()
            self.aliases[alias] = canonical
            return alias

    # -- construction / destruction ----------------------------------------------

    def construct(
        self,
        type_name: str,
        args: list[HostValue] | None = None,
        signature: MethodSignature | None = None,
    ) -> int:
        """Allocate an instance, apply declared field initials, run the ctor body.

        The bridge passes the resolved constructor signature. With None, a
        type that declares constructors runs the exact-kind match for
        `args` (the host New expression), and a type that declares none is
        default-constructed: field initials only, and no arguments allowed.
        """
        args = args or []
        layout = self.registry.layouts.get(type_name)
        if layout is None:
            raise UnknownType(f"unknown type {type_name!r}")
        depth = layout.depth
        desc = layout.path[depth]
        with self._lock:
            address = self._fresh_handle()
            # root first; entries past `depth` belong to types that extend this one
            storage = {name: decl.initial for name, (at, decl) in layout.fields.items() if at <= depth}
            self.objects[address] = HostObject(address, type_name, storage)
            self.aliases[address] = address
        try:
            if signature is None:
                if desc.ctors:
                    with self._lock:
                        signature = self._match_exact(desc.ctors, args)
                    if signature is None:
                        kinds = ", ".join(a.tag for a in args)
                        raise HostExecError(f"no constructor of {type_name!r} matches ({kinds})")
                elif args:
                    raise HostExecError(f"{type_name!r} has no constructors taking arguments")
            if signature is not None and signature.body:
                self.exec_body(address, signature, args)
        except BaseException:  # no half-built object outlives any failure
            # Inline rather than `destroy`: the failure may be a stack that ran
            # out one call below this frame, so the cleanup makes only direct
            # calls, which fit wherever the failed call did.
            with self._lock:
                self.objects.pop(address, None)
                for alias, canonical in list(self.aliases.items()):
                    if canonical == address:
                        del self.aliases[alias]
            raise
        return address

    def destroy(self, handle: int) -> None:
        with self._lock:
            canonical = self._object(handle).address
            del self.objects[canonical]
            stale = [h for h, c in self.aliases.items() if c == canonical]
            for h in stale:
                del self.aliases[h]

    # -- field and global access ---------------------------------------------------

    def read_field(self, handle: int, name: str) -> HostValue:
        with self._lock:
            obj = self._object(handle)
            if name not in obj.storage:
                raise UnknownField(f"{obj.type_name!r} has no field {name!r}")
            return obj.storage[name]

    def write_field(self, handle: int, name: str, value: HostValue) -> None:
        with self._lock:
            obj = self._object(handle)
            decl = self.registry.field_decl(obj.type_name, name)
            if decl is None:
                raise UnknownField(f"{obj.type_name!r} has no field {name!r}")
            self._check_kind(decl.kind, value, f"field {obj.type_name}.{name}")
            obj.storage[name] = value

    def read_global(self, qualified: str) -> HostValue:
        """This heap's value of the global; its declared initial until one is stored."""
        with self._lock:
            decl = self.registry.find_global(qualified)
            if decl is None:
                raise UnknownGlobal(f"unknown global {qualified!r}")
            return self.globals.get(qualified, decl.initial)

    def write_global(self, qualified: str, value: HostValue) -> None:
        with self._lock:
            decl = self.registry.find_global(qualified)
            if decl is None:
                raise UnknownGlobal(f"unknown global {qualified!r}")
            self._check_kind(decl.kind, value, f"global {qualified}")
            self.globals[qualified] = value

    def _check_kind(self, kind: ValueKind, value: HostValue, what: str) -> None:
        fault = self._kind_fault(kind, value, what)
        if fault is not None:
            raise fault

    def _kind_fault(self, kind: ValueKind, value: HostValue, what: str) -> RjsError | None:
        """The error storing `value` in a `kind` slot raises, or None if it fits."""
        if kind.tag == TAG_OBJ:
            if value.tag != TAG_OBJ:
                return KindMismatch(f"{what} expects {kind}, got {value.tag}")
            if value.value == 0:
                return None  # null reference is assignable to any object slot
            try:
                obj = self._object(value.value)  # type: ignore[arg-type]
            except DanglingHandle:
                return DanglingHandle(f"{what}: handle {value.value:#x} is dangling")
            if self.registry.subtype_distance(obj.type_name, kind.name or "") is None:
                return KindMismatch(f"{what} expects {kind}, got {obj.type_name}")
            return None
        if kind.tag == TAG_ENUM:
            if value.tag != TAG_ENUM or value.enum_name != kind.name:
                return KindMismatch(f"{what} expects {kind}, got {value.tag}")
            if not self.registry.is_enum_value(kind.name or "", value.value):  # type: ignore[arg-type]
                return KindMismatch(f"{what}: {value.value} is not an enumerator of {kind.name}")
            return None
        if kind.tag != value.tag:
            return KindMismatch(f"{what} expects {kind}, got {value.tag}")
        return None

    # -- body execution -----------------------------------------------------------

    def exec_body(
        self,
        self_handle: int | None,
        signature: MethodSignature,
        args: list[HostValue],
    ) -> HostValue:
        """Run one resolved signature's statements; Return short-circuits.

        Arity and kinds are assumed to match the signature exactly (the
        bridge converts beforehand). All faults surface as HostExecError.
        The body is compiled on the signature's first call and the
        closures are kept on it (`MethodSignature.code`) for its life.
        """
        if len(args) != len(signature.params):
            raise HostExecError(
                f"arity mismatch: body expects {len(signature.params)}, got {len(args)}"
            )
        self_addr = self.normalize(self_handle) if self_handle is not None else None
        body = signature.code
        if body is None:
            # Two threads may both compile a first call; the results are
            # equal and the plain store is atomic under the GIL.
            body = compile_body(signature.body, create_globals=False)
            signature.code = body
        result = self._run(body, self_addr, args)
        if result is None:
            if signature.returns == K_VOID:
                return VOID
            raise HostExecError("control reached the end of a non-void body")
        return self._coerce_return(signature.returns, result)

    def run_macro_statements(self, statements: tuple[Stmt, ...]) -> HostValue:
        """Top-level macro statement list: no self, no params, globals auto-create.

        A macro runs once, so it is compiled on every call and not kept.
        """
        result = self._run(compile_body(statements, create_globals=True), None, [])
        return VOID if result is None else result

    def _run(self, body: Step, self_addr: int | None, args: list[HostValue]) -> HostValue | None:
        """Run a compiled body; returns the Return value or None when none ran.

        This is the body's one fault boundary: any other RjsError raised
        while it runs (a dangling handle, an unknown type, a kind mismatch)
        surfaces as a HostExecError with the same message. Running out of
        stack is the caller's fault and passes through (a script that
        recursed into this body), unless it happened in a body that this
        one started with `new` (a constructor that `new`s its own type).
        Compiling raises nothing but HostExecError and RecursionError, so
        the same rule holds for a stack that runs out while compiling.
        """
        try:
            return body(self, self_addr, args)
        except HostExecError:
            raise
        except RjsError as exc:
            raise HostExecError(str(exc)) from exc

    def _coerce_return(self, declared: ValueKind, value: HostValue) -> HostValue:
        """A return slot takes what a store of its kind takes (`_kind_fault`)."""
        value = self._implicit(declared, value)
        if value.tag == declared.tag and declared.name is None:
            return value  # a scalar kind of the value's own tag fits
        with self._lock:
            fault = self._kind_fault(declared, value, "body return")
            if fault is None:
                return value
            if declared.tag != value.tag:
                got = value.tag
            elif declared.tag == TAG_ENUM and value.enum_name != declared.name:
                raise HostExecError(f"body returned enum {value.enum_name}, expected {declared.name}")
            elif declared.tag == TAG_OBJ and isinstance(fault, KindMismatch):  # an unrelated type
                got = self._object(value.value).type_name  # type: ignore[arg-type]
            else:  # a dangling handle, or an integer no enumerator has
                raise HostExecError(str(fault))
        raise HostExecError(f"body returned {got}, signature declares {kind_str(declared)}")

    def _set_global(self, qualified: str, value: HostValue, create: bool) -> None:
        decl = self.registry.find_global(qualified)
        if decl is None:
            if not create:
                raise HostExecError(f"unknown global {qualified!r}")
            kind = self._kind_for_value(value)
            if kind is None:
                raise HostExecError(f"cannot infer a storage kind for global {qualified!r}")
            initial = ref(0) if kind.tag == TAG_OBJ else value  # a declaration holds no handle
            decl = self.registry.declare_global(qualified, kind, initial)
        self.write_global(qualified, self._implicit(decl.kind, value))

    def _kind_for_value(self, value: HostValue) -> ValueKind | None:
        match value.tag:
            case "i64" | "f64" | "bool" | "cstr" | "str":
                return SCALAR_KINDS[value.tag]
            case "enum":
                return ValueKind(TAG_ENUM, value.enum_name)
            case "obj":
                if value.value == 0:
                    return None
                with self._lock:
                    obj = self._object(value.value)  # type: ignore[arg-type]
                return ValueKind(TAG_OBJ, obj.type_name)
            case _:
                return None

    @staticmethod
    def _implicit(declared: ValueKind, value: HostValue) -> HostValue:
        """Host-side widening before a store: i64 -> f64 and enum -> i64 only."""
        if declared.tag == TAG_F64 and value.tag == TAG_I64:
            return f64(float(value.value))  # type: ignore[arg-type]
        if declared.tag == TAG_I64 and value.tag == TAG_ENUM:
            return i64(value.value)  # type: ignore[arg-type]
        return value

    # -- host-side exact overload match (for New) -------------------------------------

    def _match_exact(
        self, signatures: tuple[MethodSignature, ...], args: list[HostValue]
    ) -> MethodSignature | None:
        for sig in signatures:
            if len(sig.params) != len(args):
                continue
            if all(self._kind_fault(k, v, "argument") is None for k, v in zip(sig.params, args)):
                return sig
        return None


# ---------------------------------------------------------------------------
# body compilation: closures replace the tree walk
# ---------------------------------------------------------------------------

def compile_body(statements: tuple[Stmt, ...], create_globals: bool) -> Step:
    """Compile a statement list into one `body(heap, self_addr, args)` closure.

    The closure returns the value of the first Return, or None when none
    runs; statements after a Return are unreachable and not compiled.
    Every node is resolved here, once: its operator, builtin or field
    name picks a specialised closure, so a call walks no tree and
    dispatches on no node class. The closures capture only the body's
    own names, constants and operators, never a heap, registry or
    bridge: one signature, and so one compiled body, serves every heap
    whose registry holds it. `create_globals` is the macro rule: a
    `gset` of an undeclared name declares it.
    """
    effects: list[Step] = []
    final: Step = _no_return
    for stmt in statements:
        if isinstance(stmt, Return):
            final = _const(VOID) if stmt.value is None else _compile_expr(stmt.value)
            break
        effects.append(_compile_stmt(stmt, create_globals))
    if not effects:
        return final
    steps = tuple(effects)

    def body(heap: Heap, self_addr: int | None, args: list[HostValue]) -> HostValue | None:
        for step in steps:
            step(heap, self_addr, args)
        return final(heap, self_addr, args)

    return body


def _no_return(heap: Heap, self_addr: int | None, args: list[HostValue]) -> None:
    return None


def _compile_stmt(stmt: Stmt, create_globals: bool) -> Step:
    if isinstance(stmt, ExprStmt):
        return _compile_expr(stmt.value)
    if isinstance(stmt, SetField):
        return _set_field(stmt.name, _compile_expr(stmt.value))
    if isinstance(stmt, SetGlobal):
        return _set_global(stmt.name, _compile_expr(stmt.value), create_globals)
    raise HostExecError(f"unknown statement node {stmt!r}")


def _compile_expr(expr: Expr) -> Step:
    compile_node = _EXPRESSIONS.get(type(expr))
    if compile_node is None:
        raise HostExecError(f"unknown expression node {expr!r}")
    return compile_node(expr)


def _const(value: HostValue) -> Step:
    def const(heap, self_addr, args):
        return value
    return const


def _param(node: Param) -> Step:
    index = node.index

    def param(heap, self_addr, args):
        if index >= len(args):
            raise HostExecError(f"parameter index {index} out of range")
        return args[index]
    return param


def _self_ref(node: SelfRef) -> Step:
    def self_ref(heap, self_addr, args):
        if self_addr is None:
            raise HostExecError("self reference outside an instance context")
        return ref(self_addr)
    return self_ref


def _get_field(node: GetField) -> Step:
    name = node.name

    def get_field(heap, self_addr, args):
        if self_addr is None:
            raise HostExecError("field read outside an instance context")
        return heap.read_field(self_addr, name)
    return get_field


def _set_field(name: str, value_step: Step) -> Step:
    def set_field(heap, self_addr, args):
        if self_addr is None:
            raise HostExecError("field write outside an instance context")
        value = value_step(heap, self_addr, args)
        with heap._lock:
            obj = heap._object(self_addr)
            decl = heap.registry.field_decl(obj.type_name, name)
            if decl is None:
                raise HostExecError(f"unknown field {name!r}")
            kind = decl.kind
            # a scalar kind (no name) of the value's own tag needs no widening and fits
            if value.tag != kind.tag or kind.name is not None:
                value = heap._implicit(kind, value)
                heap._check_kind(kind, value, f"field {obj.type_name}.{name}")
            obj.storage[name] = value
    return set_field


def _get_global(node: GetGlobal) -> Step:
    name = node.name

    def get_global(heap, self_addr, args):
        return heap.read_global(name)
    return get_global


def _set_global(name: str, value_step: Step, create: bool) -> Step:
    def set_global(heap, self_addr, args):
        heap._set_global(name, value_step(heap, self_addr, args), create)
    return set_global


def _new(node: New) -> Step:
    type_name = node.type_name
    arg_steps = tuple(_compile_expr(a) for a in node.args)

    def new(heap, self_addr, args):
        values = [step(heap, self_addr, args) for step in arg_steps]
        try:
            return ref(heap.construct(type_name, values))
        except RecursionError:  # host bodies nest only here
            raise HostExecError("stack exhausted while running a host body") from None
    return new


# -- arithmetic ----------------------------------------------------------------------

#: numeric view of a tag: enums take part in arithmetic as their i64 value
_NUMERIC = {TAG_I64: TAG_I64, TAG_ENUM: TAG_I64, TAG_F64: TAG_F64}


def _truncated_quotient(a: int, b: int) -> int:
    if b == 0:
        raise HostExecError("integer division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _float_div(a: float, b: float) -> HostValue:
    if b == 0.0:
        raise HostExecError("floating-point division by zero")
    return f64(a / b)


def _float_mod(a: float, b: float) -> HostValue:
    raise HostExecError("operator '%' requires integer operands")


#: operator -> (both operands i64, either operand f64)
OPERATORS: dict[str, tuple[Callable[[int, int], HostValue], Callable[[float, float], HostValue]]] = {
    "+": (lambda a, b: i64(a + b), lambda a, b: f64(a + b)),
    "-": (lambda a, b: i64(a - b), lambda a, b: f64(a - b)),
    "*": (lambda a, b: i64(a * b), lambda a, b: f64(a * b)),
    "/": (lambda a, b: i64(_truncated_quotient(a, b)), _float_div),  # truncation toward zero
    "%": (lambda a, b: i64(a - wrap_i64(_truncated_quotient(a, b) * b)), _float_mod),  # sign of the dividend
}


def _bin_op(node: BinOp) -> Step:
    op = node.op
    if op not in OPERATORS:
        raise HostExecError(f"unknown operator {op!r}")
    on_ints, on_floats = OPERATORS[op]
    left, right = _compile_expr(node.left), _compile_expr(node.right)

    def bin_op(heap, self_addr, args):
        lv = left(heap, self_addr, args)
        rv = right(heap, self_addr, args)
        ltag = _NUMERIC.get(lv.tag)
        rtag = _NUMERIC.get(rv.tag)
        if ltag is None or rtag is None:
            raise HostExecError(f"operator {op!r} requires numeric operands, got {lv.tag}/{rv.tag}")
        if ltag == rtag == TAG_I64:
            return on_ints(lv.value, rv.value)
        result = on_floats(float(lv.value), float(rv.value))
        if not math.isfinite(result.value):  # type: ignore[arg-type]
            raise HostExecError(f"operator {op!r} gives a non-finite f64")
        return result
    return bin_op


# -- builtins: (heap, argument values) -> value ----------------------------------------

def _number(value: HostValue) -> float | None:
    return float(value.value) if value.tag in _NUMERIC else None  # type: ignore[arg-type]


def _sqrt(heap: Heap, values: list[HostValue]) -> HostValue:
    x = _number(values[0])
    if x is None:
        raise HostExecError("sqrt requires a numeric argument")
    if x < 0:
        raise HostExecError(f"sqrt of negative value {format_host(values[0])}")
    return f64(math.sqrt(x))


def _floor(heap: Heap, values: list[HostValue]) -> HostValue:
    x = _number(values[0])
    if x is None or not math.isfinite(x):
        raise HostExecError("floor requires a finite numeric argument")
    return f64(float(math.floor(x)))


def _concat(heap: Heap, values: list[HostValue]) -> HostValue:
    for v in values:
        if v.tag not in ("cstr", "str"):
            raise HostExecError(f"concat requires string arguments, got {v.tag}")
    return strobj("".join(v.value for v in values))  # type: ignore[misc]


def _strlen(heap: Heap, values: list[HostValue]) -> HostValue:
    if values[0].tag not in ("cstr", "str"):
        raise HostExecError(f"strlen requires a string argument, got {values[0].tag}")
    return i64(len(values[0].value))  # type: ignore[arg-type]


def _to_str(heap: Heap, values: list[HostValue]) -> HostValue:
    return strobj(format_host(values[0]))


def _sleep_ms(heap: Heap, values: list[HostValue]) -> HostValue:
    n = values[0].value
    if (values[0].tag not in _NUMERIC or not math.isfinite(float(n))  # type: ignore[arg-type]
            or float(n) != int(n) or n < 0):  # type: ignore[call-overload, operator]
        raise HostExecError("sleep_ms requires a non-negative integer")
    time.sleep(int(n) / 1000.0)  # type: ignore[call-overload]
    return VOID


def _alias(heap: Heap, values: list[HostValue]) -> HostValue:
    if values[0].tag != TAG_OBJ:
        raise HostExecError(f"alias requires an object reference, got {values[0].tag}")
    return ref(heap.make_alias(values[0].value))  # type: ignore[arg-type]


#: builtin name -> (min arity, max arity or None for unbounded, code)
BUILTINS: dict[str, tuple[int, int | None, Callable[[Heap, list[HostValue]], HostValue]]] = {
    "sqrt": (1, 1, _sqrt),
    "floor": (1, 1, _floor),
    "concat": (1, None, _concat),
    "strlen": (1, 1, _strlen),
    "to_str": (1, 1, _to_str),
    "sleep_ms": (1, 1, _sleep_ms),
    "alias": (1, 1, _alias),
}


def _builtin(node: Builtin) -> Step:
    name = node.name
    if name not in BUILTINS:
        raise HostExecError(f"unknown builtin {name!r}")
    low, high, run = BUILTINS[name]
    if len(node.args) < low or (high is not None and len(node.args) > high):
        raise HostExecError(f"builtin {name!r} called with {len(node.args)} argument(s)")
    arg_steps = tuple(_compile_expr(a) for a in node.args)

    def builtin(heap, self_addr, args):
        return run(heap, [step(heap, self_addr, args) for step in arg_steps])
    return builtin


_EXPRESSIONS: dict[type, Callable[..., Step]] = {
    Const: lambda node: _const(node.value),
    Param: _param,
    SelfRef: _self_ref,
    GetField: _get_field,
    GetGlobal: _get_global,
    BinOp: _bin_op,
    Builtin: _builtin,
    New: _new,
}
