"""Data model of the introspectable host system.

Everything the registry knows about lives here: value kinds, host values,
the statement/expression nodes that give method bodies observable
semantics, type descriptors, the namespace tree and the Registry itself
(with read-only lookup/enumerate). Manifest parsing and mutation live in
`registry`, instance storage and body execution in `heap`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

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


@dataclass(slots=True, unsafe_hash=True)
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

#: scalar tag -> its one shared kind object
SCALAR_KINDS = {k.tag: k for k in (K_I64, K_F64, K_BOOL, K_CSTR, K_STR, K_VOID)}


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


@dataclass(slots=True, unsafe_hash=True)
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

@dataclass(slots=True, unsafe_hash=True)
class Const:
    value: HostValue


@dataclass(slots=True, unsafe_hash=True)
class Param:
    index: int


@dataclass(slots=True, unsafe_hash=True)
class SelfRef:
    pass


@dataclass(slots=True, unsafe_hash=True)
class GetField:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class GetGlobal:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class BinOp:
    op: str  # one of + - * / %
    left: "Expr"
    right: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Builtin:
    name: str
    args: tuple["Expr", ...]


@dataclass(slots=True, unsafe_hash=True)
class New:
    type_name: str
    args: tuple["Expr", ...]


Expr = Union[Const, Param, SelfRef, GetField, GetGlobal, BinOp, Builtin, New]


@dataclass(slots=True, unsafe_hash=True)
class SetField:
    name: str
    value: Expr


@dataclass(slots=True, unsafe_hash=True)
class SetGlobal:
    name: str  # qualified
    value: Expr


@dataclass(slots=True, unsafe_hash=True)
class Return:
    value: Expr | None  # None returns void


@dataclass(slots=True, unsafe_hash=True)
class ExprStmt:
    value: Expr


Stmt = Union[SetField, SetGlobal, Return, ExprStmt]


# ---------------------------------------------------------------------------
# signatures and descriptors
# ---------------------------------------------------------------------------

@dataclass(unsafe_hash=True)  # not slotted: a weak reference to it needs `weakref_slot` (3.11)
class MethodSignature:
    """One overload: parameter kinds, return kind and an executable body.

    `code` is `body` compiled by `heap.compile_body`, assigned by the first
    `Heap.exec_body` (the one store into a built record) and kept for life.
    It holds no heap or registry, so every bridge sharing the signature
    shares it; it takes no part in comparison, hashing or `repr`.
    """

    params: tuple[ValueKind, ...]
    returns: ValueKind = K_VOID
    is_static: bool = False
    body: tuple[Stmt, ...] = ()
    code: Callable | None = field(default=None, init=False, compare=False, repr=False)


@dataclass(slots=True)
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


@dataclass(slots=True, unsafe_hash=True)
class FieldDecl:
    name: str
    kind: ValueKind
    initial: HostValue


@dataclass(slots=True)
class HostTypeDescriptor:
    """Introspection metadata for one host composite type: its name, bases,
    field declarations and constructors, never assigned to once built.

    A type of a memoised plugin whose fields need no enum table and whose
    ancestors the plugin declares has one descriptor per process, built
    when the text is parsed and declared by every registry that loads it;
    any other type's is built by the merge that declares it. Methods are
    not here: a registry keeps each type's table in `Registry.methods`.
    """

    qualified_name: str
    bases: tuple[str, ...] = ()
    fields: tuple[FieldDecl, ...] = ()
    ctors: tuple[MethodSignature, ...] = ()


@dataclass(slots=True)
class GlobalDecl:
    name: str
    qualified: str
    kind: ValueKind
    initial: HostValue


@dataclass(slots=True)
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


#: registry category -> the child map that holds it in a NamespaceNode
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


@dataclass(slots=True)
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


@dataclass(slots=True)
class TypeLayout:
    """A type's place in the inheritance graph, built once: when its plugin
    is parsed, for a type whose descriptor the plugin shares, else when the
    merge that declares the type walks it.

    The type is `path[depth]`, and `path[depth::-1]` is the type followed by
    its ancestors, nearest first, each shared ancestor once. `fields` maps
    each field name declared on `path` to the index there of the type that
    declares it and its declaration. Within one pass (a parse, or one
    merge's walks) a type whose one base is the last entry of the base's
    path extends that path and its `fields` in place, so a chain declared
    root first shares one of each; entries past `depth` are other types'
    and are never read through this layout. After its pass a layout is
    never changed: a later type below it copies the base's part, so no two
    registries ever extend one list or map.

    While the type and every ancestor have at most one base, `distance` is
    None and `path` is Cohen's display: the ancestor `k` levels below the
    root is `path[k]`. Otherwise `distance` maps the type and every
    ancestor name to the fewest base steps that reach it.
    """

    path: list[HostTypeDescriptor]
    depth: int
    fields: dict[str, tuple[int, FieldDecl]]
    distance: dict[str, int] | None


def walk_layout(
    desc: HostTypeDescriptor,
    find: Callable[[str], TypeLayout | HostTypeDescriptor | None],
    own: Mapping[str, TypeLayout],
) -> TypeLayout:
    """Build `desc`'s layout, resolving each base name with `find`.

    This is the only code that follows `HostTypeDescriptor.bases`. `find`
    gives a base's layout when one is built, else its descriptor (a type
    later in the same manifest), else None. It raises UnknownType for a
    base `find` cannot resolve, ValidationError when the walk comes back
    to `desc`, and ConflictError when two types in the chain declare the
    same field: `desc` and an ancestor, or two ancestors on different
    paths.

    A type with one base whose layout is built goes one level below it:
    breadth-first order from it is itself followed by the base's order, so
    only its own fields are left to check. It extends the base's path and
    field map in place only when `own`, the layouts built earlier in the
    same pass, holds the base's layout and the base ends its path;
    otherwise it copies the base's part. Any other type is walked
    breadth-first.
    """
    name = desc.qualified_name
    base = find(desc.bases[0]) if len(desc.bases) == 1 else None
    if isinstance(base, TypeLayout):
        depth = base.depth + 1
        path, fields = base.path, base.fields
        if len(path) > depth or own.get(desc.bases[0]) is not base:  # not this pass's chain end: copy
            path = path[:depth]
            fields = {field_name: entry for field_name, entry in fields.items() if entry[0] < depth}
        distance = None if base.distance is None else {
            name: 0, **{ancestor: steps + 1 for ancestor, steps in base.distance.items()}}
    else:
        chain = [desc]
        distance = {name: 0}
        for current in chain:  # the loop sees the ancestors appended below
            level = distance[current.qualified_name] + 1
            for base_name in current.bases:
                if base_name in distance:
                    if base_name == name:
                        raise ValidationError(f"type {name!r} has a cyclic base chain")
                    continue
                found = find(base_name)
                if found is None:
                    raise UnknownType(f"type {name!r}: unknown base {base_name!r}")
                distance[base_name] = level
                chain.append(found.path[found.depth] if isinstance(found, TypeLayout) else found)
        path = chain[:0:-1]  # root base first, `desc` appended below
        depth = len(path)
        fields = {}
        for at, ancestor in enumerate(path):
            for decl in ancestor.fields:
                if decl.name in fields:
                    raise ConflictError(
                        f"type {name!r}: field {decl.name!r} is declared by both"
                        f" {path[fields[decl.name][0]].qualified_name!r} and {ancestor.qualified_name!r}"
                    )
                fields[decl.name] = (at, decl)
        if all(len(d.bases) <= 1 for d in chain):
            distance = None
    for decl in desc.fields:
        entry = fields.get(decl.name)
        if entry is not None and entry[0] < depth:
            raise ConflictError(f"type {name!r}: field {decl.name!r} shadows a base field")
    path.append(desc)  # past every stored layout's depth, so a later fault leaves nothing readable
    for decl in desc.fields:
        fields[decl.name] = (depth, decl)
    return TypeLayout(path, depth, fields, distance)


class Registry:
    """All introspection metadata: the namespace tree plus enum tables.

    `version` increases by exactly one on every successful mutation
    (plugin merge, macro evaluation) and never otherwise. `entries` maps
    every qualified name to its namespace node, type, function set or
    global (`""` to `root`), and `order` maps every name but `""` to its
    0-based declaration number. `declare` is the only writer of both and
    of the nodes' child maps; names are never removed, so a bridge shows
    scripts the names numbered below its cursor and moves the cursor on
    a refresh. It holds declarations only, never a heap's values.

    `layouts` maps every type to its layout, and `methods` maps each type
    that has methods to a read-only map of its overload sets; the merge
    (`registry._fold`) is the only writer of both. A layout is kept for
    the registry's life, since a merged type's bases and fields never
    change; a memoised plugin's shared types keep the layouts built when
    it was parsed. A new type with methods holds its plugin's table; an
    extension replaces the registry's entry with a new map and new sets
    for the names it touches, so no table or set is ever changed.

    `engines` holds each dispatcher on its heaps from its first
    asynchronous call until its last worker exits after its `shutdown`; no
    mutation while any has a call pending (quiescence).
    """

    def __init__(self) -> None:
        self.root = NamespaceNode("")
        self.entries: dict[str, object] = {"": self.root}
        self.enums: dict[str, dict[str, int]] = {}
        self.version = 0
        self.order: dict[str, int] = {}
        self.layouts: dict[str, TypeLayout] = {}
        self.methods: dict[str, Mapping[str, OverloadSet]] = {}
        self.engines: set = set()  # dispatchers; see `Dispatcher.submit`

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

    def base_chain(self, qualified_name: str) -> list[HostTypeDescriptor]:
        """The type itself followed by its ancestors, nearest first; empty if no such type."""
        layout = self.layouts.get(qualified_name)
        return layout.path[layout.depth :: -1] if layout is not None else []

    def subtype_distance(self, dynamic: str, target: str) -> int | None:
        """Fewest steps up the bases from `dynamic` to `target`, None if unrelated."""
        layout = self.layouts.get(dynamic)
        if layout is None:
            return 0 if dynamic == target else None
        if layout.distance is not None:
            return layout.distance.get(target)
        above = self.layouts.get(target)  # in a display, at its own depth on `dynamic`'s path
        if above is None or above.depth > layout.depth:
            return None
        return layout.depth - above.depth if layout.path[above.depth] is above.path[above.depth] else None

    def field_decl(self, qualified_name: str, field_name: str) -> FieldDecl | None:
        layout = self.layouts.get(qualified_name)
        if layout is not None:
            entry = layout.fields.get(field_name)
            if entry is not None and entry[0] <= layout.depth:
                return entry[1]
        return None

    def method_set(self, qualified_name: str, method_name: str) -> OverloadSet | None:
        """Nearest declaring type wins: a derived set hides a base set."""
        methods = self.methods
        for desc in self.base_chain(qualified_name):
            if desc.qualified_name in methods:  # most types declare no method
                table = methods[desc.qualified_name]
                if method_name in table:
                    return table[method_name]
        return None

    def enumerator_value(self, enum_name: str, enumerator: str) -> int | None:
        return self.enums.get(enum_name, {}).get(enumerator)

    def is_enum_value(self, enum_name: str, value: int) -> bool:
        return value in self.enums.get(enum_name, {}).values()

    # -- mutation support (used by registry.merge and the macro executor) -----

    def declare(self, category: str, qualified: str, name: str, entry: object) -> None:
        """Add a new name: link it into its parent namespace, index it, number it.

        `name` is the last part of `qualified`, the caller's own string (a
        memoised plugin's, shared). The caller has checked that the name
        is free and its parent is a namespace.
        """
        parent = qualified[: -len(name) - 1]  # "" for a top-level name
        getattr(self.entries[parent], CHILD_MAPS[category])[name] = entry
        self.entries[qualified] = entry
        self.order[qualified] = len(self.order)

    def declare_global(self, qualified: str, kind: ValueKind, initial: HostValue) -> GlobalDecl:
        """Macro support: register a global without bumping the version."""
        namespace, _, name = qualified.rpartition(".")
        self.namespace_at(namespace)  # raises NotFound or NotANamespace
        existing = self.entries.get(qualified)
        if existing is not None:
            raise ConflictError(f"{qualified!r} already declared as a {category(existing)}")
        decl = GlobalDecl(name, qualified, kind, initial)
        self.declare("global", qualified, name, decl)
        return decl
