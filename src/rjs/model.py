"""Data model of the introspectable host system.

Everything the registry knows about lives here: value kinds, host values,
the statement/expression nodes that give method bodies observable
semantics, type descriptors, the namespace tree and the Registry itself
(with read-only lookup/enumerate). Manifest parsing and mutation live in
`registry`, instance storage and body execution in `heap`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

from .errors import ConflictError, NotANamespace, NotFound, UnknownType, ValidationError

# ---------------------------------------------------------------------------
# value kinds
# ---------------------------------------------------------------------------

#: tags shared by ValueKind and HostValue; "obj" values are reference handles
TAG_I64 = "i64"
TAG_F64 = "f64"
TAG_BOOL = "bool"
TAG_CSTR = "cstr"
TAG_STR = "str"
TAG_ENUM = "enum"
TAG_OBJ = "obj"
TAG_VOID = "void"

SCALAR_TAGS = (TAG_I64, TAG_F64, TAG_BOOL, TAG_CSTR, TAG_STR, TAG_VOID)


@dataclass(frozen=True)
class ValueKind:
    """Host-side type of a field, parameter, return slot or global.

    `name` carries the enum name for tag "enum" and the qualified type
    name for tag "obj"; it is None for scalar tags.
    """

    tag: str
    name: str | None = None

    def __str__(self) -> str:
        return kind_str(self)


K_I64 = ValueKind(TAG_I64)
K_F64 = ValueKind(TAG_F64)
K_BOOL = ValueKind(TAG_BOOL)
K_CSTR = ValueKind(TAG_CSTR)
K_STR = ValueKind(TAG_STR)
K_VOID = ValueKind(TAG_VOID)


def enum_kind(name: str) -> ValueKind:
    return ValueKind(TAG_ENUM, name)


def obj_kind(qualified_name: str) -> ValueKind:
    return ValueKind(TAG_OBJ, qualified_name)


def kind_str(kind: ValueKind) -> str:
    """Human rendering: scalar tags verbatim, enum/object kinds by name."""
    if kind.tag in (TAG_ENUM, TAG_OBJ):
        return kind.name or "?"
    return kind.tag


# ---------------------------------------------------------------------------
# host values
# ---------------------------------------------------------------------------

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


def wrap_i64(n: int) -> int:
    """Two's-complement wrap into the 64-bit signed range."""
    return (n - I64_MIN) % 2**64 + I64_MIN


@dataclass(frozen=True)
class HostValue:
    """Tagged host-side value.

    value holds int (i64, obj handle, enum integer), float (f64), bool,
    or str (cstr/str); it is None for void. `enum_name` is set only for
    enum values. Handle 0 is the null object reference: it never maps to
    a live object and dereferencing it faults.
    """

    tag: str
    value: object = None
    enum_name: str | None = None


def i64(n: int) -> HostValue:
    return HostValue(TAG_I64, wrap_i64(int(n)))


def f64(x: float) -> HostValue:
    return HostValue(TAG_F64, float(x))


def boolean(b: bool) -> HostValue:
    return HostValue(TAG_BOOL, bool(b))


def cstr(s: str) -> HostValue:
    return HostValue(TAG_CSTR, s)


def strobj(s: str) -> HostValue:
    return HostValue(TAG_STR, s)


def enumval(enum_name: str, n: int) -> HostValue:
    return HostValue(TAG_ENUM, int(n), enum_name)


def ref(handle: int) -> HostValue:
    return HostValue(TAG_OBJ, int(handle))


VOID = HostValue(TAG_VOID)
NULL_REF = ref(0)


def format_number(x: float) -> str:
    """Shortest round-trip decimal for binary64, integral values without '.0'."""
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    if x == 0.0:
        return "0"
    text = repr(float(x))
    if text.endswith(".0"):
        return text[:-2]
    return text


def format_host(value: HostValue) -> str:
    """Canonical host rendering, used by the to_str builtin."""
    match value.tag:
        case "i64":
            return str(value.value)
        case "f64":
            return format_number(value.value)  # type: ignore[arg-type]
        case "bool":
            return "true" if value.value else "false"
        case "cstr" | "str":
            return str(value.value)
        case "enum":
            return str(value.value)
        case "obj":
            return "null" if value.value == 0 else f"<obj @{value.value:#x}>"
        case _:
            return "null"


# ---------------------------------------------------------------------------
# body AST: the observable semantics of host methods, ctors and macros
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: HostValue


@dataclass(frozen=True)
class Param:
    index: int


@dataclass(frozen=True)
class SelfRef:
    pass


@dataclass(frozen=True)
class GetField:
    name: str


@dataclass(frozen=True)
class GetGlobal:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / %
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Builtin:
    name: str
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class New:
    type_name: str
    args: tuple["Expr", ...]


Expr = Union[Const, Param, SelfRef, GetField, GetGlobal, BinOp, Builtin, New]


@dataclass(frozen=True)
class SetField:
    name: str
    value: Expr


@dataclass(frozen=True)
class SetGlobal:
    name: str  # qualified
    value: Expr


@dataclass(frozen=True)
class Return:
    value: Expr | None  # None returns void


@dataclass(frozen=True)
class ExprStmt:
    value: Expr


Stmt = Union[SetField, SetGlobal, Return, ExprStmt]

BIN_OPS = ("+", "-", "*", "/", "%")

#: builtin name -> (min arity, max arity or None for unbounded)
BUILTINS: dict[str, tuple[int, int | None]] = {
    "sqrt": (1, 1),
    "floor": (1, 1),
    "concat": (1, None),
    "strlen": (1, 1),
    "to_str": (1, 1),
    "sleep_ms": (1, 1),
    "alias": (1, 1),
}


# ---------------------------------------------------------------------------
# signatures and descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSignature:
    """One overload: parameter kinds, return kind and an executable body.

    `code` is `body` compiled by `heap.compile_body`, stored by the first
    `Heap.exec_body` and kept for the signature's life. It holds no heap
    or registry, so every bridge sharing the signature shares it; it
    takes no part in comparison, hashing or `repr`.
    """

    params: tuple[ValueKind, ...]
    returns: ValueKind = K_VOID
    is_static: bool = False
    body: tuple[Stmt, ...] = ()
    code: Callable | None = field(default=None, init=False, compare=False, repr=False)


@dataclass
class OverloadSet:
    """Ordered signatures sharing one method/function name.

    Pairs with identical (arity, param kinds) are rejected at merge time,
    so call-time scoring can always separate the members.
    """

    name: str
    signatures: list[MethodSignature] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.signatures)


def sig_str(name: str, sig: MethodSignature) -> str:
    params = ", ".join(kind_str(k) for k in sig.params)
    suffix = " [static]" if sig.is_static else ""
    if sig.returns == K_VOID:
        return f"{name}({params}) -> void{suffix}"
    return f"{name}({params}) -> {kind_str(sig.returns)}{suffix}"


@dataclass(frozen=True)
class FieldDecl:
    name: str
    kind: ValueKind
    initial: HostValue


@dataclass
class HostTypeDescriptor:
    """Introspection metadata for one host composite type."""

    qualified_name: str
    bases: tuple[str, ...] = ()
    fields: list[FieldDecl] = field(default_factory=list)
    methods: dict[str, OverloadSet] = field(default_factory=dict)
    constructors: OverloadSet = field(default_factory=lambda: OverloadSet("(ctor)"))


@dataclass
class GlobalDecl:
    name: str
    qualified: str
    kind: ValueKind
    initial: HostValue


@dataclass
class NamespaceNode:
    """One level of the exposed name hierarchy.

    The four child maps are kept mutually disjoint: a name identifies at
    most one of namespace, type, function set or global within a node.
    """

    name: str
    namespaces: dict[str, "NamespaceNode"] = field(default_factory=dict)
    types: dict[str, HostTypeDescriptor] = field(default_factory=dict)
    functions: dict[str, OverloadSet] = field(default_factory=dict)
    globals: dict[str, GlobalDecl] = field(default_factory=dict)


#: registry category -> the child map that holds it, in a NamespaceNode
#: and in the bridge's mirror of one
CHILD_MAPS = {"namespace": "namespaces", "type": "types", "function": "functions", "global": "globals"}


def category(entry: object) -> str:
    """The registry category of a namespace node, type, function set or global."""
    if isinstance(entry, NamespaceNode):
        return "namespace"
    if isinstance(entry, HostTypeDescriptor):
        return "type"
    if isinstance(entry, OverloadSet):
        return "function"
    return "global"


@dataclass
class Listing:
    """enumerate() result: child names per category, lexicographically sorted."""

    namespaces: list[str]
    types: list[str]
    functions: list[str]
    globals: list[str]


def split_path(path: str) -> list[str]:
    return path.split(".") if path else []


def join_path(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


@dataclass(frozen=True)
class TypeLayout:
    """Result of one walk up a type's inheritance graph.

    `chain` is the type followed by its ancestors, nearest first, each
    shared ancestor once; `distance` maps the type and every ancestor
    name to the fewest base steps that reach it; `fields` maps every
    declared or inherited field name to its declaration, root base first.
    """

    chain: list[HostTypeDescriptor]
    distance: dict[str, int]
    fields: dict[str, FieldDecl]


def walk_layout(
    desc: HostTypeDescriptor, find: Callable[[str], HostTypeDescriptor | None]
) -> TypeLayout:
    """Walk `desc`'s bases breadth-first, resolving each name with `find`.

    This is the only code that follows `HostTypeDescriptor.bases`. It
    raises UnknownType for a base `find` cannot resolve, ValidationError
    when the walk comes back to `desc`, and ConflictError when two types
    in the chain declare the same field: `desc` and an ancestor, or two
    ancestors on different paths.
    """
    name = desc.qualified_name
    chain = [desc]
    distance = {name: 0}
    for current in chain:  # the loop sees the ancestors appended below
        level = distance[current.qualified_name] + 1
        for base in current.bases:
            if base in distance:
                if base == name:
                    raise ValidationError(f"type {name!r} has a cyclic base chain")
                continue
            found = find(base)
            if found is None:
                raise UnknownType(f"type {name!r}: unknown base {base!r}")
            distance[base] = level
            chain.append(found)
    fields: dict[str, FieldDecl] = {}
    for ancestor in reversed(chain):  # root base first, `desc` last
        for decl in ancestor.fields:
            if decl.name in fields:
                if ancestor is desc:
                    raise ConflictError(f"type {name!r}: field {decl.name!r} shadows a base field")
                owner = next(a for a in reversed(chain) if decl.name in {f.name for f in a.fields})
                raise ConflictError(
                    f"type {name!r}: field {decl.name!r} is declared by both"
                    f" {owner.qualified_name!r} and {ancestor.qualified_name!r}"
                )
            fields[decl.name] = decl
    return TypeLayout(chain, distance, fields)


class Registry:
    """All introspection metadata: the namespace tree plus enum tables.

    `version` increases by exactly one on every successful mutation
    (plugin merge, macro evaluation) and never otherwise. `entries` maps
    every qualified name to its namespace node, type, function set or
    global (`""` to `root`), and `journal` gets one `(category, qualified)`
    entry per name in the order they were added. `declare` is the only
    writer of both and of the nodes' child maps; names are never removed,
    so the journal lists every name and the bridge mirrors it from a
    cursor. `busy_check`, when set, returns the number of in-flight
    asynchronous calls and gates mutations (the quiescence rule).
    """

    def __init__(self) -> None:
        self.root = NamespaceNode("")
        self.entries: dict[str, object] = {"": self.root}
        self.enums: dict[str, dict[str, int]] = {}
        self.version = 0
        self.journal: list[tuple[str, str]] = []
        self._layouts: dict[str, TypeLayout] = {}
        self._walked: dict[str, TypeLayout] = {}  # see `hand_over_layouts`
        self.busy_check = None  # optional () -> int, wired by the bridge

    # -- lookup / enumeration ------------------------------------------------

    def lookup(self, path: str):
        """Resolve a dot-separated qualified name.

        Returns a NamespaceNode, HostTypeDescriptor, OverloadSet or
        GlobalDecl. Raises NotFound carrying the longest prefix that names
        a namespace.
        """
        found = self.entries.get(path)
        if found is None:
            prefix = path
            while prefix:
                prefix = prefix.rpartition(".")[0]
                if isinstance(self.entries.get(prefix), NamespaceNode):
                    break
            raise NotFound(path, prefix)
        return found

    def enumerate(self, path: str) -> Listing:
        found = self.lookup(path)
        if not isinstance(found, NamespaceNode):
            raise NotANamespace(f"{path!r} is not a namespace")
        return Listing(
            namespaces=sorted(found.namespaces),
            types=sorted(found.types),
            functions=sorted(found.functions),
            globals=sorted(found.globals),
        )

    def namespace_at(self, path: str) -> NamespaceNode:
        found = self.lookup(path)
        if not isinstance(found, NamespaceNode):
            raise NotANamespace(f"{path!r} is not a namespace")
        return found

    def find_type(self, qualified_name: str) -> HostTypeDescriptor | None:
        try:
            found = self.lookup(qualified_name)
        except NotFound:
            return None
        return found if isinstance(found, HostTypeDescriptor) else None

    def find_global(self, qualified_name: str) -> GlobalDecl | None:
        try:
            found = self.lookup(qualified_name)
        except NotFound:
            return None
        return found if isinstance(found, GlobalDecl) else None

    # -- inheritance helpers ---------------------------------------------------

    def layout(self, qualified_name: str) -> TypeLayout | None:
        """The type's memoised layout, or None if no such type exists.

        It is built on first use, by `walk_layout` or taken from the
        layouts the latest merge walked, and kept for the life of the
        registry. That is exact, not merely per version: a merged
        type's bases and fields never change, every base exists when its
        type is merged, types are never removed or redeclared, and an
        extension only appends to `desc.methods` in place, which the
        descriptors in `chain` show. A name that is not found is never
        memoised. Worker threads reach this through `Heap.exec_body`; two
        threads may both build a layout, but the values are equal and a
        dict store is atomic under the GIL, so no lock is needed. The
        layout is shared; callers must not modify it.
        """
        layout = self._layouts.get(qualified_name)
        if layout is None:
            layout = self._walked.pop(qualified_name, None)
            if layout is None:
                desc = self.find_type(qualified_name)
                if desc is None:
                    return None
                layout = walk_layout(desc, self.find_type)
            self._layouts[qualified_name] = layout
        return layout

    def base_chain(self, qualified_name: str) -> list[HostTypeDescriptor]:
        """The type itself followed by its ancestors, nearest first.

        The list is the memoised one; callers must not modify it.
        """
        layout = self.layout(qualified_name)
        return layout.chain if layout is not None else []

    def subtype_distance(self, dynamic: str, target: str) -> int | None:
        """Fewest steps up the bases from `dynamic` to `target`, None if unrelated."""
        layout = self.layout(dynamic)
        if layout is None:
            return 0 if dynamic == target else None
        return layout.distance.get(target)

    def field_decl(self, qualified_name: str, field_name: str) -> FieldDecl | None:
        layout = self.layout(qualified_name)
        return layout.fields.get(field_name) if layout is not None else None

    def method_set(self, qualified_name: str, method_name: str) -> OverloadSet | None:
        """Nearest declaring type wins: a derived set hides a base set."""
        for desc in self.base_chain(qualified_name):
            if method_name in desc.methods:
                return desc.methods[method_name]
        return None

    def enumerator_value(self, enum_name: str, enumerator: str) -> int | None:
        return self.enums.get(enum_name, {}).get(enumerator)

    def is_enum_value(self, enum_name: str, value: int) -> bool:
        return value in self.enums.get(enum_name, {}).values()

    # -- mutation support (used by registry.merge and the macro executor) -----

    def declare(self, category: str, qualified: str, entry: object) -> None:
        """Add a new name: link it into its parent namespace, index it, journal it.

        The caller has checked that the name is free and its parent is a
        namespace.
        """
        parent, _, name = qualified.rpartition(".")
        getattr(self.entries[parent], CHILD_MAPS[category])[name] = entry
        self.entries[qualified] = entry
        self.journal.append((category, qualified))

    def hand_over_layouts(self, walked: dict[str, TypeLayout]) -> None:
        """Keep the layouts a merge walked for its new types until first use.

        `layout` then takes a type's layout from here instead of walking
        its ancestors a second time. Only the latest merge's layouts wait:
        this call drops the previous merge's unused ones. A macro's types
        are typically used at once, while a plugin declares many types a
        session never touches, and memoising all of those would hold a
        layout per declared type rather than per used one.
        """
        self._walked = walked

    def check_namespace_path(self, path: str) -> None:
        """Raise ConflictError if a prefix of `path` names something else."""
        walked = ""
        for part in split_path(path):
            walked = join_path(walked, part)
            existing = self.entries.get(walked)
            if existing is None:
                return  # the rest of the path is new
            if not isinstance(existing, NamespaceNode):
                raise ConflictError(f"{walked!r} already declared as a {category(existing)}")

    def declare_global(self, qualified: str, kind: ValueKind, initial: HostValue) -> GlobalDecl:
        """Macro support: register a global without bumping the version."""
        namespace, _, name = qualified.rpartition(".")
        self.namespace_at(namespace)  # raises NotFound or NotANamespace
        existing = self.entries.get(qualified)
        if existing is not None:
            raise ConflictError(f"{qualified!r} already declared as a {category(existing)}")
        decl = GlobalDecl(name, qualified, kind, initial)
        self.declare("global", qualified, decl)
        return decl
