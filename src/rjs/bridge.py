"""The adapter between script values and the host system.

Responsibilities: expose the registry's names, up to the last refresh,
as properties of a root object, manufacture identity-cached proxies over
normalized addresses, convert values in both directions, resolve
overloads by conversion cost, and route invocations either inline or to
the dispatcher (a trailing callable always becomes the completion
callback). All of this runs on the interpreter domain; async results
are converted at delivery time inside the pump.

Script-side values are plain Python values: float (the single numeric
kind), str, bool, None, callables, and the small marker types below.
"""

from __future__ import annotations

import functools
import math
import sys
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterable, TextIO

from .dispatcher import CallTask, Dispatcher, report_fault, run_call
from .errors import (
    Ambiguous,
    ConversionError,
    LoadError,
    NoMatch,
    PrecisionError,
    ScriptNameError,
    ScriptTypeError,
)
from .heap import Heap
from .model import (
    TAG_ENUM,
    TAG_OBJ,
    GlobalDecl,
    HostTypeDescriptor,
    HostValue,
    MethodSignature,
    NamespaceNode,
    OverloadSet,
    Registry,
    ValueKind,
    boolean,
    cstr,
    enumval,
    f64,
    i64,
    kind_str,
    join_path,
    ref,
    sig_str,
    strobj,
)
from .registry import eval_macro, merge, parse_manifest

MAX_SAFE_INTEGER = 2**53


# ---------------------------------------------------------------------------
# script-side value markers
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class NsRef:
    """Reference to a namespace by path; resolved against the names scripts see."""

    path: str


@dataclass(slots=True, unsafe_hash=True)
class TypeRef:
    qualified: str


@dataclass(slots=True, unsafe_hash=True)
class FnRef:
    path: str


@dataclass(slots=True, unsafe_hash=True)
class Proxy:
    """Script-side stand-in for one host object: identity, no data copies."""

    canonical: int
    type_name: str

    def __str__(self) -> str:
        return f"<{self.type_name} @{self.canonical:#x}>"


@dataclass(slots=True, unsafe_hash=True)
class MethodRef:
    """A method looked up on a proxy (bound) or on a type (static access)."""

    owner: Proxy | None
    type_name: str
    name: str


def weak_method(method: Callable[..., Any]) -> Callable[..., Any]:
    """`method` as a callable that does not keep its object alive.

    Hooks that point back at their owner (the dispatcher's converter and
    error sink, the interpreter's builtins) are held this way, so that a
    discarded bridge or interpreter is freed when its last reference goes
    instead of waiting for a full garbage collection.
    """
    ref = weakref.WeakMethod(method)
    name = method.__qualname__

    def call(*args: Any) -> Any:
        bound = ref()
        if bound is None:
            raise ReferenceError(f"{name} called after its object was discarded")
        return bound(*args)

    return call


def split_callback(args: list[Any]) -> tuple[list[Any], Callable[[Any], Any] | None]:
    """Separate the completion callback from the call arguments.

    Any callable script value in the trailing position is the callback.
    """
    if args and callable(args[-1]):
        return args[:-1], args[-1]
    return args, None


# ---------------------------------------------------------------------------
# root object
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class RootObject:
    """Top-level object of the bindings: a snapshot of the registry.

    Scripts see the names whose declaration number (`Registry.order`) is
    below `cursor`; `version_seen` is the registry version at the last
    refresh.
    """

    version_seen: int = 0
    cursor: int = 0


def build_root(registry: Registry) -> RootObject:
    """Expose every namespace, type, function and global as nested properties."""
    root = RootObject()
    refresh(root, registry)
    return root


def refresh(root: RootObject, registry: Registry) -> int:
    """Show scripts the names declared since the last refresh; returns how many."""
    added = len(registry.order) - root.cursor
    root.cursor += added
    root.version_seen = registry.version
    return added


# ---------------------------------------------------------------------------
# proxy factory
# ---------------------------------------------------------------------------

class ProxyFactory:
    """Identity cache: at most one Proxy per canonical address, ever."""

    def __init__(self) -> None:
        self.cache: dict[int, Proxy] = {}

    def proxy_for(self, heap: Heap, handle: int) -> Proxy:
        canonical, type_name = heap.identify(handle)
        proxy = self.cache.get(canonical)
        if proxy is None:
            proxy = Proxy(canonical, type_name)
            self.cache[canonical] = proxy
        return proxy


# ---------------------------------------------------------------------------
# invocation result
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class Invocation:
    """Either an immediate value (call_id None) or a pending call id."""

    call_id: int | None
    value: Any = None

    @property
    def pending(self) -> bool:
        return self.call_id is not None


@dataclass(slots=True, unsafe_hash=True)
class ResolvedCall:
    index: int
    signature: MethodSignature
    converted: list[HostValue]
    callback: Callable[[Any], Any] | None


class Bridge:
    """Glue object owning the root object, proxy cache and dispatcher.

    One Bridge per embedding context, with a heap of its own; several
    bridges may share a registry. The error sink receives faults from
    asynchronous calls (the completion callback itself only ever sees the
    success value); every sunk fault is also recorded on `async_faults`
    so batch mode can exit nonzero.
    """

    def __init__(
        self,
        registry: Registry | None = None,
        workers: int | None = None,
        diag: TextIO | None = None,
    ):
        self.registry = registry if registry is not None else Registry()
        self.heap = Heap(self.registry)
        self.factory = ProxyFactory()
        self.diag = diag if diag is not None else sys.stderr
        self.async_faults: list[tuple[int, Exception]] = []
        self.error_sink: Callable[[int, Exception], None] = functools.partial(report_fault, self.diag)
        self.dispatcher = Dispatcher(
            self.heap,
            workers=workers,
            converter=weak_method(self.to_script),
            error_sink=weak_method(self._sink),
            diag=self.diag,
        )
        self.root = build_root(self.registry)

    # -- error sink ------------------------------------------------------------

    def _sink(self, call_id: int, exc: Exception) -> None:
        self.async_faults.append((call_id, exc))
        self.error_sink(call_id, exc)

    # -- visible names -----------------------------------------------------------

    def refresh(self) -> int:
        return refresh(self.root, self.registry)

    def _visible(self, qualified: str) -> object | None:
        """The registry entry at `qualified` if a refresh has shown it, else None.

        The root namespace `""` has no declaration number and is always shown.
        """
        cursor = self.root.cursor
        if qualified and self.registry.order.get(qualified, cursor) >= cursor:
            return None
        return self.registry.entries[qualified]

    def node_at(self, path: str) -> NamespaceNode:
        """The registry's own node for the namespace at `path`, if scripts see it.

        Its child maps hold every name declared there, refreshed or not:
        what scripts see right after `loadlibrary` or `evalmacro`. A missed
        refresh shows when the new name is then used through `get_member`.
        """
        node = self._visible(path)
        if not isinstance(node, NamespaceNode):
            raise ScriptNameError(f"namespace {path!r} is not exposed")
        return node

    def _member(self, path: str, name: str) -> object | None:
        """What scripts see as `name` in the namespace at `path`; None if nothing.

        Raises when `path` is not a shown namespace. A shown member implies
        that it is: only a namespace has members, declared after it.
        """
        # one level per member, as in `root.A.B`
        entry = self._visible(join_path(path, name)) if name and "." not in name else None
        if entry is None:
            self.node_at(path)
        return entry

    # -- conversions ----------------------------------------------------------------

    def to_script(self, value: HostValue) -> Any:
        """Host -> script along the fixed table; object refs become proxies."""
        match value.tag:
            case "i64":
                n = value.value
                if abs(n) > MAX_SAFE_INTEGER:  # type: ignore[arg-type]
                    raise PrecisionError(f"{n} does not fit a binary64 mantissa")
                return float(n)  # type: ignore[arg-type]
            case "f64":
                return value.value
            case "bool":
                return value.value
            case "cstr" | "str":
                return str(value.value)
            case "enum":
                return float(value.value)  # type: ignore[arg-type]
            case "obj":
                if value.value == 0:
                    return None
                return self.factory.proxy_for(self.heap, value.value)  # type: ignore[arg-type]
            case _:
                return None

    def conversion_cost(self, value: Any, kind: ValueKind) -> tuple[int, HostValue] | None:
        """(cost, converted) when the table defines the conversion, else None."""
        if isinstance(value, bool):
            return (0, boolean(value)) if kind.tag == "bool" else None
        if isinstance(value, (int, float)):
            number = float(value)
            if kind.tag == "f64":
                return (0, f64(number)) if math.isfinite(number) else None
            if kind.tag == "i64":
                if number.is_integer() and -(2**63) <= number < 2**63:
                    return 1, i64(int(number))
                return None  # no silent truncation
            if kind.tag == TAG_ENUM:
                if number.is_integer() and self.registry.is_enum_value(
                    kind.name or "", int(number)
                ):
                    return 2, enumval(kind.name or "", int(number))
                return None
            return None
        if isinstance(value, str):
            if kind.tag == "cstr":
                return 0, cstr(value)
            if kind.tag == "str":
                return 1, strobj(value)
            if kind.tag == TAG_ENUM:
                enum_value = self.registry.enumerator_value(kind.name or "", value)
                if enum_value is not None:
                    return 2, enumval(kind.name or "", enum_value)
                return None
            return None
        if value is None:
            return (1, ref(0)) if kind.tag == TAG_OBJ else None
        if isinstance(value, Proxy):
            if kind.tag != TAG_OBJ:
                return None
            distance = self.registry.subtype_distance(value.type_name, kind.name or "")
            if distance is None:
                return None
            return distance, ref(value.canonical)
        return None

    def to_host(self, value: Any, kind: ValueKind) -> HostValue:
        result = self.conversion_cost(value, kind)
        if result is None:
            raise ConversionError(
                f"no conversion from {_script_kind_name(value)} to {kind_str(kind)}"
            )
        return result[1]

    # -- overload resolution -----------------------------------------------------------

    def resolve_overload(self, overloads: OverloadSet, args: list[Any]) -> ResolvedCall:
        """Split a trailing callable, then pick the unique minimum-cost overload."""
        args, callback = split_callback(args)
        index, signature, converted = self._score(overloads.name, enumerate(overloads.signatures), args)
        return ResolvedCall(index, signature, converted, callback)

    def _score(
        self, name: str, candidates: Iterable[tuple[int, MethodSignature]], args: list[Any]
    ) -> tuple[int, MethodSignature, list[HostValue]]:
        """(index, signature, converted args) of the unique cheapest candidate."""
        scored: list[tuple[int, int, MethodSignature, list[HostValue]]] = []
        for index, sig in candidates:
            if len(sig.params) != len(args):
                continue
            total = 0
            converted: list[HostValue] = []
            for value, kind in zip(args, sig.params):
                step = self.conversion_cost(value, kind)
                if step is None:
                    break
                total += step[0]
                converted.append(step[1])
            else:
                scored.append((total, index, sig, converted))
                continue
        if not scored:
            arg_kinds = ", ".join(_script_kind_name(a) for a in args)
            raise NoMatch(f"no overload of {name!r} accepts ({arg_kinds})")
        best = min(s[0] for s in scored)
        winners = [s for s in scored if s[0] == best]
        if len(winners) > 1:
            listing = "; ".join(sig_str(name, s[2]) for s in winners)
            raise Ambiguous(f"call of {name!r} is ambiguous between: {listing}")
        return winners[0][1:]

    # -- invocation ---------------------------------------------------------------------

    def invoke(self, target: Any, args: list[Any]) -> Invocation:
        """Call a function set, construct a type, or call a method on a proxy.

        Every call is resolved here, whether or not it ends in a callable:
        the target gives a name and candidate overloads, and `_score` picks
        one. Without a trailing callable the call runs inline and the
        converted result is returned; with one, a task is submitted and
        the fresh call id returned immediately. Both run through
        `dispatcher.run_call`.
        """
        self.dispatcher.check_domain("invoke")
        args, callback = split_callback(args)
        owner = construct_type = None
        match target:
            case FnRef(path):
                overloads = self.registry.lookup(path)
                if not isinstance(overloads, OverloadSet):
                    raise ScriptTypeError(f"{path!r} is not a function set")
                name, candidates = overloads.name, enumerate(overloads.signatures)
            case TypeRef(qualified):
                desc = self.registry.find_type(qualified)
                if desc is None:
                    raise ScriptNameError(f"unknown type {qualified!r}")
                name = construct_type = qualified
                if desc.ctors:
                    candidates = enumerate(desc.ctors)
                elif args:
                    raise NoMatch(f"{qualified!r} has no constructors taking arguments")
                else:
                    candidates = None  # Heap.construct default-constructs
            case MethodRef(owner, type_name, name):
                overloads = self.registry.method_set(type_name, name)
                if overloads is None:
                    raise ScriptNameError(f"{type_name!r} has no method {name!r}")
                candidates = enumerate(overloads.signatures)
                if owner is None:
                    candidates = [(i, s) for i, s in candidates if s.is_static]
                    if not candidates:
                        raise NoMatch(f"method {type_name}.{name} requires an instance")
            case _:
                raise ScriptTypeError(f"{_script_kind_name(target)} is not callable")
        if candidates is None:
            signature, converted = None, []
        else:
            _, signature, converted = self._score(name, candidates, args)
        self_addr = owner.canonical if owner is not None and not signature.is_static else None
        if callback is not None:
            task = CallTask(self_addr, signature, converted, construct_type)
            return Invocation(self.dispatcher.submit(task, callback))
        outcome = run_call(self.heap, self_addr, signature, converted, construct_type)
        return Invocation(None, self.to_script(outcome))

    # -- member access (used by the script evaluator) ---------------------------------------

    def get_member(self, value: Any, name: str) -> Any:
        match value:
            case NsRef(path):
                # the entry-point API cannot be shadowed by registry names
                if path == "" and name == "loadlibrary":
                    return BoundBuiltin("loadlibrary", self._script_loadlibrary)
                if path == "" and name == "evalmacro":
                    return BoundBuiltin("evalmacro", self._script_evalmacro)
                match self._member(path, name):
                    case NamespaceNode():
                        return NsRef(join_path(path, name))
                    case HostTypeDescriptor(qualified_name=qualified):
                        return TypeRef(qualified)
                    case OverloadSet():
                        return FnRef(join_path(path, name))
                    case GlobalDecl(qualified=qualified):
                        return self.to_script(self.heap.read_global(qualified))
                where = path or "the root object"
                raise ScriptNameError(f"{where} has no member {name!r}")
            case TypeRef(qualified):
                if self.registry.method_set(qualified, name) is not None:
                    return MethodRef(None, qualified, name)
                raise ScriptNameError(f"type {qualified!r} has no static member {name!r}")
            case Proxy(canonical, type_name):
                if self.registry.field_decl(type_name, name) is not None:
                    return self.to_script(self.heap.read_field(canonical, name))
                if self.registry.method_set(type_name, name) is not None:
                    return MethodRef(value, type_name, name)
                raise ScriptNameError(f"{type_name!r} has no member {name!r}")
            case _:
                raise ScriptTypeError(
                    f"{_script_kind_name(value)} has no members (reading {name!r})"
                )

    def set_member(self, value: Any, name: str, assigned: Any) -> None:
        """Write-through for globals and proxy fields; all else is read-only."""
        match value:
            case NsRef(path):
                entry = self._member(path, name)
                if isinstance(entry, GlobalDecl):
                    self.heap.write_global(entry.qualified, self.to_host(assigned, entry.kind))
                    return
                if entry is not None:
                    raise ScriptTypeError(f"property {name!r} is read-only")
                where = path or "the root object"
                raise ScriptNameError(f"{where} has no member {name!r}")
            case Proxy(canonical, type_name):
                decl = self.registry.field_decl(type_name, name)
                if decl is not None:
                    self.heap.write_field(canonical, name, self.to_host(assigned, decl.kind))
                    return
                if self.registry.method_set(type_name, name) is not None:
                    raise ScriptTypeError(f"method {name!r} is read-only")
                raise ScriptNameError(f"{type_name!r} has no member {name!r}")
            case _:
                raise ScriptTypeError(
                    f"{_script_kind_name(value)} has no members (assigning {name!r})"
                )

    # -- plugin loading and macros ---------------------------------------------------------

    def loadlibrary(self, path: str) -> int:
        """Merge a plugin file and refresh the root object; returns the new version."""
        self.dispatcher.check_domain("loadlibrary")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise LoadError(f"cannot read plugin {path!r}: {exc}") from exc
        ast = parse_manifest(text)
        version = merge(self.registry, ast, self.heap)
        self.refresh()
        return version

    def evalmacro(self, text: str) -> Any:
        """Evaluate macro text, refresh the root object, convert the macro's value."""
        self.dispatcher.check_domain("evalmacro")
        try:
            result = eval_macro(self.registry, self.heap, text)
        finally:
            self.refresh()  # declarations may have merged even on fault
        return self.to_script(result.value)

    def _script_loadlibrary(self, *args: Any) -> Any:
        if len(args) != 1 or not isinstance(args[0], str):
            raise ScriptTypeError("loadlibrary takes one string argument")
        return float(self.loadlibrary(args[0]))

    def _script_evalmacro(self, *args: Any) -> Any:
        if len(args) != 1 or not isinstance(args[0], str):
            raise ScriptTypeError("evalmacro takes one string argument")
        return self.evalmacro(args[0])

    # -- lifecycle ---------------------------------------------------------------------------

    def shutdown(self) -> None:
        self.dispatcher.shutdown()


@dataclass(slots=True, unsafe_hash=True)
class BoundBuiltin:
    """Host-provided callable exposed to script (root.loadlibrary and friends)."""

    name: str
    fn: Callable[..., Any]

    def __call__(self, *args: Any) -> Any:
        return self.fn(*args)


def _script_kind_name(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number" if math.isfinite(value) else "non-finite number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, Proxy):
        return f"proxy<{value.type_name}>"
    if isinstance(value, NsRef):
        return "namespace"
    if isinstance(value, TypeRef):
        return "type"
    if isinstance(value, FnRef):
        return "function"
    if isinstance(value, MethodRef):
        return "method"
    if callable(value):
        return "callable"
    return type(value).__name__
