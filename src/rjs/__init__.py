"""Reflective bindings runtime.

An introspectable host object system (typed composites, overloaded
methods, enums, globals) exposed to an embedded dynamically-typed
scripting language through a property tree, identity-cached proxies
over normalized addresses, a cost-based overload resolver, and a worker
pool that delivers completion callbacks only on the interpreter domain.
New metadata arrives at run time through plugin manifests and macros.
"""

from . import errors
from .bridge import (
    Bridge,
    FnRef,
    Invocation,
    MethodRef,
    NsRef,
    Proxy,
    ProxyFactory,
    RootObject,
    TypeRef,
    build_root,
    refresh,
)
from .dispatcher import CallTask, Completion, Dispatcher, resolve_worker_count
from .heap import Heap, HostObject
from .model import (
    HostValue,
    Listing,
    MethodSignature,
    OverloadSet,
    Registry,
    ValueKind,
    boolean,
    cstr,
    enum_kind,
    enumval,
    f64,
    i64,
    obj_kind,
    ref,
    strobj,
    VOID,
)
from .registry import (
    MacroResult,
    ManifestAST,
    eval_macro,
    merge,
    parse_manifest,
    serialize_manifest,
)
from .repl import ReplSession, Session, render_tree
from .script import Environment, Interpreter, parse, pretty, render_value, tokenize

__version__ = "0.1.0"

__all__ = [
    "Bridge",
    "CallTask",
    "Completion",
    "Dispatcher",
    "Environment",
    "FnRef",
    "Heap",
    "HostObject",
    "HostValue",
    "Interpreter",
    "Invocation",
    "Listing",
    "MacroResult",
    "ManifestAST",
    "MethodRef",
    "MethodSignature",
    "NsRef",
    "OverloadSet",
    "Proxy",
    "ProxyFactory",
    "Registry",
    "ReplSession",
    "RootObject",
    "Session",
    "TypeRef",
    "ValueKind",
    "VOID",
    "boolean",
    "build_root",
    "cstr",
    "enum_kind",
    "enumval",
    "errors",
    "eval_macro",
    "f64",
    "i64",
    "merge",
    "obj_kind",
    "parse",
    "parse_manifest",
    "pretty",
    "ref",
    "refresh",
    "render_tree",
    "render_value",
    "resolve_worker_count",
    "serialize_manifest",
    "strobj",
    "tokenize",
]
