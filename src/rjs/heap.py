"""Host-side instance storage and body execution.

The heap owns every host object and global value; script-side proxies
hold identity only, so every read and write lands here and all views of
one object agree by construction. Handles are abstract 64-bit counters:
each object gets a canonical address, aliases are extra handles collapsed
to the canonical address at creation time, and 0 is the reserved null
handle. Structural mutations and individual field/global accesses are
guarded by one lock; worker contexts may execute bodies concurrently
with nothing stronger than per-access atomicity.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

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
    BUILTINS,
    TAG_ENUM,
    TAG_F64,
    TAG_I64,
    TAG_OBJ,
    BinOp,
    Builtin,
    Const,
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


@dataclass
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
        self._lock = threading.RLock()

    # -- handles ----------------------------------------------------------------

    def _fresh_handle(self) -> int:
        handle = self._next_address
        self._next_address += 1
        return handle

    def normalize(self, handle: int) -> int:
        """Collapse any live handle to its canonical address (idempotent)."""
        with self._lock:
            canonical = self.aliases.get(handle)
            if canonical is None or canonical not in self.objects:
                raise DanglingHandle(f"handle {handle:#x} does not reference a live object")
            return canonical

    def make_alias(self, handle: int) -> int:
        """Fresh handle for the object `handle` normalizes to."""
        with self._lock:
            canonical = self.normalize(handle)
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

        The bridge passes the resolved constructor signature; host-side
        callers (the New expression) leave it None and an exact-kind match
        is selected here. An empty constructor set with no arguments means
        default construction.
        """
        args = args or []
        layout = self.registry.layout(type_name)
        if layout is None:
            raise UnknownType(f"unknown type {type_name!r}")
        desc = layout.chain[0]
        with self._lock:
            address = self._fresh_handle()
            storage = {name: decl.initial for name, decl in layout.fields.items()}
            self.objects[address] = HostObject(address, type_name, storage)
            self.aliases[address] = address
        try:
            if signature is None:
                if desc.constructors.signatures:
                    signature = self._match_exact(desc.constructors.signatures, args)
                    if signature is None:
                        raise HostExecError(
                            f"no constructor of {type_name!r} matches ({self._kinds_of(args)})"
                        )
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
            canonical = self.normalize(handle)
            del self.objects[canonical]
            stale = [h for h, c in self.aliases.items() if c == canonical]
            for h in stale:
                del self.aliases[h]

    # -- field and global access ---------------------------------------------------

    def read_field(self, handle: int, name: str) -> HostValue:
        with self._lock:
            obj = self.objects[self.normalize(handle)]
            if name not in obj.storage:
                raise UnknownField(f"{obj.type_name!r} has no field {name!r}")
            return obj.storage[name]

    def write_field(self, handle: int, name: str, value: HostValue) -> None:
        with self._lock:
            obj = self.objects[self.normalize(handle)]
            decl = self.registry.field_decl(obj.type_name, name)
            if decl is None or name not in obj.storage:
                raise UnknownField(f"{obj.type_name!r} has no field {name!r}")
            self._check_kind(decl.kind, value, f"field {obj.type_name}.{name}")
            obj.storage[name] = value

    def read_global(self, qualified: str) -> HostValue:
        with self._lock:
            decl = self.registry.find_global(qualified)
            if decl is None:
                raise UnknownGlobal(f"unknown global {qualified!r}")
            if qualified not in self.globals:
                self.globals[qualified] = decl.initial
            return self.globals[qualified]

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
            obj = self.objects.get(self.aliases.get(value.value, -1))
            if obj is None:
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
        """
        if len(args) != len(signature.params):
            raise HostExecError(
                f"arity mismatch: body expects {len(signature.params)}, got {len(args)}"
            )
        self_addr = self.normalize(self_handle) if self_handle is not None else None
        result = self._run_statements(signature.body, self_addr, args, create_globals=False)
        if result is None:
            if signature.returns == K_VOID:
                return VOID
            raise HostExecError("control reached the end of a non-void body")
        return self._coerce_return(signature.returns, result)

    def run_macro_statements(self, statements: tuple[Stmt, ...]) -> HostValue:
        """Top-level macro statement list: no self, no params, globals auto-create."""
        result = self._run_statements(statements, None, [], create_globals=True)
        return VOID if result is None else result

    def _coerce_return(self, declared: ValueKind, value: HostValue) -> HostValue:
        value = self._implicit(declared, value)
        if declared.tag != value.tag:
            raise HostExecError(f"body returned {value.tag}, signature declares {kind_str(declared)}")
        if declared.tag == TAG_ENUM and value.enum_name != declared.name:
            raise HostExecError(f"body returned enum {value.enum_name}, expected {declared.name}")
        return value

    def _run_statements(
        self,
        statements: tuple[Stmt, ...],
        self_addr: int | None,
        args: list[HostValue],
        create_globals: bool,
    ) -> HostValue | None:
        """Execute in order; returns the Return value or None when none ran.

        This is the body's one fault boundary: any other RjsError raised
        while it runs (a dangling handle, an unknown type, a kind mismatch)
        surfaces as a HostExecError with the same message. Running out of
        stack is the caller's fault and passes through (a script that
        recursed into this body), unless it happened in a body that this
        one started with `new` (a constructor that `new`s its own type).
        """
        try:
            for stmt in statements:
                match stmt:
                    case Return(value):
                        return VOID if value is None else self._eval(value, self_addr, args)
                    case SetField(name, expr):
                        if self_addr is None:
                            raise HostExecError("field write outside an instance context")
                        value = self._eval(expr, self_addr, args)
                        decl = self.registry.field_decl(self._type_of(self_addr), name)
                        if decl is None:
                            raise HostExecError(f"unknown field {name!r}")
                        self.write_field(self_addr, name, self._implicit(decl.kind, value))
                    case SetGlobal(name, expr):
                        value = self._eval(expr, self_addr, args)
                        self._set_global(name, value, create_globals)
                    case ExprStmt(expr):
                        self._eval(expr, self_addr, args)
        except HostExecError:
            raise
        except RjsError as exc:
            raise HostExecError(str(exc)) from exc
        return None

    def _type_of(self, canonical: int) -> str:
        with self._lock:
            return self.objects[canonical].type_name

    def _set_global(self, qualified: str, value: HostValue, create: bool) -> None:
        decl = self.registry.find_global(qualified)
        if decl is None:
            if not create:
                raise HostExecError(f"unknown global {qualified!r}")
            kind = self._kind_for_value(value)
            if kind is None:
                raise HostExecError(f"cannot infer a storage kind for global {qualified!r}")
            self.registry.declare_global(qualified, kind, value)
            with self._lock:
                self.globals[qualified] = value
            return
        self.write_global(qualified, self._implicit(decl.kind, value))

    def _kind_for_value(self, value: HostValue) -> ValueKind | None:
        match value.tag:
            case "i64" | "f64" | "bool" | "cstr" | "str":
                return ValueKind(value.tag)
            case "enum":
                return ValueKind(TAG_ENUM, value.enum_name)
            case "obj":
                if value.value == 0:
                    return None
                return ValueKind(TAG_OBJ, self._type_of(self.normalize(value.value)))  # type: ignore[arg-type]
            case _:
                return None

    def _implicit(self, declared: ValueKind, value: HostValue) -> HostValue:
        """Host-side widening before a store: i64 -> f64 and enum -> i64 only."""
        if declared.tag == TAG_F64 and value.tag == TAG_I64:
            return f64(float(value.value))  # type: ignore[arg-type]
        if declared.tag == TAG_I64 and value.tag == TAG_ENUM:
            return i64(value.value)  # type: ignore[arg-type]
        return value

    # -- expression evaluation ------------------------------------------------------

    def _eval(self, expr, self_addr: int | None, args: list[HostValue]) -> HostValue:
        match expr:
            case Const(value):
                return value
            case Param(index):
                if index >= len(args):
                    raise HostExecError(f"parameter index {index} out of range")
                return args[index]
            case SelfRef():
                if self_addr is None:
                    raise HostExecError("self reference outside an instance context")
                return ref(self_addr)
            case GetField(name):
                if self_addr is None:
                    raise HostExecError("field read outside an instance context")
                return self.read_field(self_addr, name)
            case GetGlobal(name):
                return self.read_global(name)
            case BinOp(op, left, right):
                return self._arith(op, self._eval(left, self_addr, args),
                                   self._eval(right, self_addr, args))
            case Builtin(name, arg_exprs):
                values = [self._eval(a, self_addr, args) for a in arg_exprs]
                return self._builtin(name, values)
            case New(type_name, arg_exprs):
                values = [self._eval(a, self_addr, args) for a in arg_exprs]
                try:
                    return ref(self.construct(type_name, values))
                except RecursionError:  # host bodies nest only here
                    raise HostExecError("stack exhausted while running a host body") from None
            case _:
                raise HostExecError(f"unknown expression node {expr!r}")

    @staticmethod
    def _numeric(value: HostValue) -> tuple[str, int | float] | None:
        """Numeric view: enums participate in arithmetic as their i64 value."""
        if value.tag == TAG_I64:
            return TAG_I64, value.value  # type: ignore[return-value]
        if value.tag == TAG_F64:
            return TAG_F64, value.value  # type: ignore[return-value]
        if value.tag == TAG_ENUM:
            return TAG_I64, value.value  # type: ignore[return-value]
        return None

    def _arith(self, op: str, left: HostValue, right: HostValue) -> HostValue:
        ln = self._numeric(left)
        rn = self._numeric(right)
        if ln is None or rn is None:
            raise HostExecError(f"operator {op!r} requires numeric operands, got {left.tag}/{right.tag}")
        ltag, lv = ln
        rtag, rv = rn
        if ltag == TAG_I64 and rtag == TAG_I64:
            return self._arith_i64(op, lv, rv)  # type: ignore[arg-type]
        return self._arith_f64(op, float(lv), float(rv))

    @staticmethod
    def _arith_i64(op: str, a: int, b: int) -> HostValue:
        if op in ("/", "%") and b == 0:
            raise HostExecError("integer division by zero")
        match op:
            case "+":
                return i64(a + b)
            case "-":
                return i64(a - b)
            case "*":
                return i64(a * b)
            case "/":
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                return i64(quotient)  # truncation toward zero
            case "%":
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                return i64(a - wrap_i64(quotient * b))  # sign follows the dividend
            case _:
                raise HostExecError(f"unknown operator {op!r}")

    @staticmethod
    def _arith_f64(op: str, a: float, b: float) -> HostValue:
        if op == "%":
            raise HostExecError("operator '%' requires integer operands")
        if op == "/" and b == 0.0:
            raise HostExecError("floating-point division by zero")
        match op:
            case "+":
                return f64(a + b)
            case "-":
                return f64(a - b)
            case "*":
                return f64(a * b)
            case "/":
                return f64(a / b)
            case _:
                raise HostExecError(f"unknown operator {op!r}")

    def _builtin(self, name: str, values: list[HostValue]) -> HostValue:
        bounds = BUILTINS.get(name)
        if bounds is None:
            raise HostExecError(f"unknown builtin {name!r}")
        low, high = bounds
        if len(values) < low or (high is not None and len(values) > high):
            raise HostExecError(f"builtin {name!r} called with {len(values)} argument(s)")
        match name:
            case "sqrt":
                num = self._numeric(values[0])
                if num is None:
                    raise HostExecError("sqrt requires a numeric argument")
                x = float(num[1])
                if x < 0:
                    raise HostExecError(f"sqrt of negative value {format_host(values[0])}")
                return f64(math.sqrt(x))
            case "floor":
                num = self._numeric(values[0])
                if num is None or not math.isfinite(float(num[1])):
                    raise HostExecError("floor requires a finite numeric argument")
                return f64(float(math.floor(float(num[1]))))
            case "concat":
                parts = []
                for v in values:
                    if v.tag not in ("cstr", "str"):
                        raise HostExecError(f"concat requires string arguments, got {v.tag}")
                    parts.append(v.value)
                return strobj("".join(parts))  # type: ignore[arg-type]
            case "strlen":
                if values[0].tag not in ("cstr", "str"):
                    raise HostExecError(f"strlen requires a string argument, got {values[0].tag}")
                return i64(len(values[0].value))  # type: ignore[arg-type]
            case "to_str":
                return strobj(format_host(values[0]))
            case "sleep_ms":
                num = self._numeric(values[0])
                if (num is None or not math.isfinite(float(num[1]))
                        or float(num[1]) != int(num[1]) or num[1] < 0):
                    raise HostExecError("sleep_ms requires a non-negative integer")
                time.sleep(int(num[1]) / 1000.0)
                return VOID
            case "alias":
                if values[0].tag != TAG_OBJ:
                    raise HostExecError(f"alias requires an object reference, got {values[0].tag}")
                return ref(self.make_alias(values[0].value))  # type: ignore[arg-type]
            case _:
                raise HostExecError(f"unknown builtin {name!r}")

    # -- host-side exact overload match (for New) -------------------------------------

    def _match_exact(
        self, signatures: list[MethodSignature], args: list[HostValue]
    ) -> MethodSignature | None:
        for sig in signatures:
            if len(sig.params) != len(args):
                continue
            if all(self._kind_fault(k, v, "argument") is None for k, v in zip(sig.params, args)):
                return sig
        return None

    def _kinds_of(self, args: list[HostValue]) -> str:
        return ", ".join(a.tag for a in args)
