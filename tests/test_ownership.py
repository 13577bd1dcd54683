"""The heap is the only writer of its own tables.

Objects, aliases, object storage and global values live in `Heap`; the
registry holds declarations only. This parses every runtime module and
fails on any store into, or `del` of, an item of an attribute with one
of those table names outside `heap.py`, and on a store of a global's
value anywhere in `heap.py` but `Heap.write_global`. Reading is allowed
anywhere. Likewise only an engine's lifecycle changes `Registry.engines`:
`Dispatcher.submit` adds, and the last worker to leave `Dispatcher._worker_loop`
discards. Only the merge (`registry._fold`) writes `Registry.layouts` and
`Registry.methods`, which `Registry.__init__` creates. `Registry.declare`,
the one writer of names, is called only by the merge (`registry._fold`) and
by `Registry.declare_global`. Only `model.walk_layout` follows a type's
`.bases`; besides it the attribute is read by `TypeSpec.is_extension`, by the
descriptor build in `registry._fold` (as its `bases=` argument), by the
manifest writer and by `repl.render_tree`. In the front ends (`cli.py` and
`repl.py`) only `Session.close` shuts an engine down or clears a scope's
bindings. And every rjs dataclass passes `slots=True`, so its instances carry
no `__dict__`, and none is frozen.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (REPO_ROOT / "src" / "rjs").glob("*.py") if p.name != "heap.py")
HEAP_TABLES = {"globals", "storage", "objects", "aliases"}


def _targets(node: ast.AST) -> list[ast.expr]:
    match node:
        case ast.Assign(targets=targets) | ast.Delete(targets=targets):
            return targets
        case ast.AugAssign(target=target) | ast.AnnAssign(target=target):
            return [target]
    return []


def _unpacked(target: ast.expr) -> list[ast.expr]:
    """The stored-to expressions of a target: `a, *b.c[k]` unpacks, a subscript does not."""
    match target:
        case ast.Tuple(elts=elts) | ast.List(elts=elts):
            return [leaf for elt in elts for leaf in _unpacked(elt)]
        case ast.Starred(value=value):
            return _unpacked(value)
    return [target]


def _stores(tree: ast.AST, tables: set[str]) -> list[ast.Subscript]:
    return [
        leaf
        for node in ast.walk(tree)
        for target in _targets(node)
        for leaf in _unpacked(target)
        if isinstance(leaf, ast.Subscript) and isinstance(leaf.value, ast.Attribute)
        and leaf.value.attr in tables
    ]


def heap_table_stores(source: str, filename: str = "<source>") -> list[str]:
    """`file:line` of each store into or `del` of an item of a heap table."""
    return [f"{filename}:{leaf.lineno}" for leaf in _stores(ast.parse(source, filename), HEAP_TABLES)]


@pytest.mark.parametrize("line", [
    "heap.globals[decl.qualified] = decl.initial",
    "self.heap.objects[1].storage['x'] = v",
    "del heap.aliases[handle]",
    "obj.storage[name] += 1",
    "heap.globals[name]: int = 1",
    "a, *heap.globals[name] = 1, 2",
])
def test_the_lint_sees_each_kind_of_store(line):
    assert heap_table_stores(line) == ["<source>:1"]


@pytest.mark.parametrize("line", [
    "value = heap.globals[name]",
    "node.globals = {}",
    "globals()[name] = 1",
    "heap.globals.get(name)",
    "seen[heap.globals[name]] = True",
])
def test_the_lint_passes_reads_and_other_stores(line):
    assert heap_table_stores(line) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_heap_stores_into_its_tables(path):
    assert heap_table_stores(path.read_text(encoding="utf-8"), path.name) == []


def test_write_global_is_the_one_store_of_a_global_value():
    tree = ast.parse((REPO_ROOT / "src" / "rjs" / "heap.py").read_text(encoding="utf-8"))
    storing = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and _stores(fn, {"globals"})
    }
    assert storing == {"write_global"}


# -- `Registry.engines` changes only on an engine's lifecycle ---------------------------

ENGINES_MUTATORS = {"add", "discard", "append", "remove", "clear", "update", "pop"}
ENGINES_ALLOWED = {
    ("Registry.__init__", "="),
    ("Dispatcher.submit", "add"),
    ("Dispatcher._worker_loop", "discard"),
}
ALL_SOURCES = sorted((REPO_ROOT / "src" / "rjs").glob("*.py"))


def _is_attr(node: ast.AST, attr: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == attr


def _scoped(tree: ast.AST, scope: str = "") -> Iterator[tuple[str, ast.AST]]:
    """(enclosing class.function, node) of each node under `tree` but the
    class and function definitions themselves."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scoped(node, f"{scope}.{node.name}".lstrip("."))
            continue
        yield scope, node
        yield from _scoped(node, scope)


def attribute_changes(tree: ast.AST, attr: str, mutators: set[str]) -> list[tuple[str, str, int]]:
    """(enclosing class.function, change, line) of each assignment to or `del` of an
    attribute named `attr` or of an item of one, and of each of `mutators` referenced
    on one."""
    found = []
    for scope, node in _scoped(tree):
        for target in _targets(node):
            for leaf in _unpacked(target):
                item = isinstance(leaf, ast.Subscript)
                if _is_attr(leaf.value if item else leaf, attr):
                    change = "del" if isinstance(node, ast.Delete) else "="
                    found.append((scope, f"{change}[]" if item else change, leaf.lineno))
        if isinstance(node, ast.Attribute) and node.attr in mutators and _is_attr(node.value, attr):
            found.append((scope, node.attr, node.lineno))
    return found


def engines_changes(tree: ast.AST) -> list[tuple[str, str, int]]:
    return attribute_changes(tree, "engines", ENGINES_MUTATORS)


def engines_violations(source: str, filename: str = "<source>") -> list[str]:
    """`file:line` and what of each change to `.engines` outside its lifecycle."""
    return [
        f"{filename}:{line} {scope or '<module>'} {change}"
        for scope, change, line in engines_changes(ast.parse(source, filename))
        if (scope, change) not in ENGINES_ALLOWED
    ]


@pytest.mark.parametrize("source, count", [
    ("class Dispatcher:\n    def __init__(self, heap):\n"
     "        heap.registry.engines.append(weakref.ref(self, heap.registry.engines.remove))", 2),
    ("def f(registry):\n    registry.engines = []", 1),
    ("def f(registry):\n    registry.engines |= {1}", 1),
    ("def f(registry):\n    registry.engines: set = set()", 1),
    ("def f(registry):\n    a, registry.engines = 1, set()", 1),
    ("def f(registry):\n    del registry.engines", 1),
    ("def f(registry):\n    registry.engines.clear()\n    registry.engines.update(())", 2),
    ("sink = registry.engines.discard", 1),
    ("class Dispatcher:\n    def submit(self):\n        self.heap.registry.engines.discard(self)", 1),
    ("class Dispatcher:\n    def shutdown(self):\n        self.heap.registry.engines.pop()", 1),
    ("class Dispatcher:\n    def shutdown(self):\n        self.heap.registry.engines.discard(self)", 1),
    ("class Dispatcher:\n    def submit(self):\n        def later():\n"
     "            self.heap.registry.engines.add(self)", 1),
    ("class Registry:\n    def merge(self):\n        self.engines = set()", 1),
])
def test_the_engines_lint_sees_each_change(source, count):
    assert len(engines_violations(source)) == count


@pytest.mark.parametrize("source", [
    "class Registry:\n    def __init__(self):\n        self.engines: set = set()",
    "class Dispatcher:\n    def submit(self):\n        self.heap.registry.engines.add(self)",
    "class Dispatcher:\n    def _worker_loop(self):\n        self.heap.registry.engines.discard(self)",
    "pending = sum(engine.pending_count() for engine in tuple(registry.engines))",
    "engines = set()\nengines.add(1)",
    "registry.engines_seen.add(1)",
    "assert registry.engines == set()",
])
def test_the_engines_lint_passes_reads_and_the_lifecycle(source):
    assert engines_violations(source) == []


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_only_an_engines_lifecycle_changes_registry_engines(path):
    assert engines_violations(path.read_text(encoding="utf-8"), path.name) == []


def test_each_lifecycle_change_of_registry_engines_is_in_place():
    found = {
        (scope, change)
        for path in ALL_SOURCES
        for scope, change, _ in engines_changes(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == ENGINES_ALLOWED


# -- only the merge writes `Registry.layouts` and `Registry.methods` ----------------------

LAYOUTS_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__", "__ior__"}
LAYOUTS_WRITER = "_fold"
LAYOUTS_CREATED = ("Registry.__init__", "=")


def merge_table_violations(source: str, attr: str, filename: str = "<source>") -> list[str]:
    """`file:line` and what of each change to `.layouts` or `.methods` (`attr`)
    outside the merge, but the registry's creation of the dict."""
    return [
        f"{filename}:{line} {scope or '<module>'} {change}"
        for scope, change, line in attribute_changes(ast.parse(source, filename), attr, LAYOUTS_MUTATORS)
        if scope != LAYOUTS_WRITER and (scope, change) != LAYOUTS_CREATED
    ]


@pytest.mark.parametrize("source, count", [
    ("registry.layouts['T'] = layout", 1),
    ("def f(registry):\n    registry.layouts.update(built)\n    registry.layouts.setdefault(q, l)", 2),
    ("def f(registry):\n    registry.layouts = {}", 1),
    ("def f(registry):\n    registry.layouts |= built", 1),
    ("def f(registry):\n    del registry.layouts[q]\n    registry.layouts.pop(q)", 2),
    ("def f(registry):\n    a, registry.layouts[q] = 1, l", 1),
    ("store = registry.layouts.__setitem__", 1),
    ("class Registry:\n    def base_chain(self, q):\n        self.layouts[q] = walk_layout(d, f)", 1),
    ("class Registry:\n    def __init__(self):\n        self.layouts[''] = None", 1),
    ("def _fold(registry):\n    pass\ndef later(registry):\n    registry.layouts.clear()", 1),
    ("class Heap:\n    def _fold(self):\n        self.registry.layouts.update(built)", 1),
])
def test_the_layouts_lint_sees_each_other_writer(source, count):
    assert len(merge_table_violations(source, "layouts")) == count


@pytest.mark.parametrize("source", [
    "class Registry:\n    def __init__(self):\n        self.layouts: dict = {}",
    "def _fold(registry, ast, heap):\n    registry.layouts.update(layouts)",
    "def _fold(registry, ast, heap):\n    def find(n):\n        return registry.layouts.get(n)",
    "layout = registry.layouts.get(name)",
    "layouts = {}\nlayouts[q] = walk_layout(d, f)\nlayouts.update(more)",
    "registry.layouts_seen = {}",
    "path = layout.path[layout.depth :: -1]",
])
def test_the_layouts_lint_passes_reads_and_the_merge(source):
    assert merge_table_violations(source, "layouts") == []


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_only_the_merge_writes_registry_layouts(path):
    assert merge_table_violations(path.read_text(encoding="utf-8"), "layouts", path.name) == []


def test_the_merge_writes_registry_layouts():
    found = {
        (scope, change)
        for path in ALL_SOURCES
        for scope, change, _ in attribute_changes(
            ast.parse(path.read_text(encoding="utf-8")), "layouts", LAYOUTS_MUTATORS)
    }
    assert found == {LAYOUTS_CREATED, (LAYOUTS_WRITER, "update")}


@pytest.mark.parametrize("source, count", [
    ("registry.methods['T'] = table", 1),
    ("def f(registry):\n    registry.methods.update(tables)\n    registry.methods.setdefault(q, t)", 2),
    ("def f(registry):\n    registry.methods = {}", 1),
    ("def f(registry):\n    del registry.methods[q]\n    registry.methods.pop(q)", 2),
    ("class Registry:\n    def method_set(self, q, m):\n        self.methods[q] = {}", 1),
    ("def _fold(registry):\n    pass\ndef later(registry):\n    registry.methods.clear()", 1),
    ("class Heap:\n    def _fold(self):\n        self.registry.methods |= tables", 1),
    ("def _with_methods(registry, desc):\n    desc.methods = dict(registry.methods)", 1),
])
def test_the_methods_lint_sees_each_other_writer(source, count):
    assert len(merge_table_violations(source, "methods")) == count


@pytest.mark.parametrize("source", [
    "class Registry:\n    def __init__(self):\n        self.methods: dict = {}",
    "def _fold(registry, ast, heap):\n    registry.methods.update(tables)",
    "table = registry.methods.get(name, {})",
    "class TypeSpec:\n    methods: tuple = ()",
    "methods = {}\nmethods[q] = table\nmethods.update(more)",
    "def _with_methods(table, methods):\n    for m in methods:\n        sets[m.name] = m",
])
def test_the_methods_lint_passes_reads_and_the_merge(source):
    assert merge_table_violations(source, "methods") == []


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_only_the_merge_writes_registry_methods(path):
    assert merge_table_violations(path.read_text(encoding="utf-8"), "methods", path.name) == []


def test_the_merge_writes_registry_methods():
    found = {
        (scope, change)
        for path in ALL_SOURCES
        for scope, change, _ in attribute_changes(
            ast.parse(path.read_text(encoding="utf-8")), "methods", LAYOUTS_MUTATORS)
    }
    assert found == {LAYOUTS_CREATED, (LAYOUTS_WRITER, "update")}


# -- `Registry.declare` is called by the merge and by a macro's new global only ---------

DECLARE_CALLERS = {"_fold", "Registry.declare_global"}


def declare_uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of each reference to an attribute named `declare`."""
    return [(scope, node.lineno) for scope, node in _scoped(tree)
            if isinstance(node, ast.Attribute) and node.attr == "declare"]


def declare_violations(source: str, filename: str = "<source>") -> list[str]:
    """`file:line` and scope of each reference to `.declare` outside its two callers."""
    return [
        f"{filename}:{line} {scope or '<module>'}"
        for scope, line in declare_uses(ast.parse(source, filename))
        if scope not in DECLARE_CALLERS
    ]


@pytest.mark.parametrize("source, count", [
    ("registry.declare('type', qualified, name, desc)", 1),
    ("def merge(registry):\n    registry.declare('type', q, n, d)\n    registry.declare('global', q, n, d)", 2),
    ("class Registry:\n    def ensure_namespace(self, path):\n        self.declare('namespace', path, path, n)", 1),
    ("add = registry.declare\nadd('type', q, n, d)", 1),
    ("def _fold(registry):\n    def later():\n        registry.declare('type', q, n, d)", 1),
    ("class Heap:\n    def _fold(self):\n        self.registry.declare('type', q, n, d)", 1),
    ("class Registry:\n    def declare_global(self):\n        pass\ndef f(r):\n    r.declare('global', q, n, d)", 1),
])
def test_the_declare_lint_sees_each_other_caller(source, count):
    assert len(declare_violations(source)) == count


@pytest.mark.parametrize("source", [
    "def _fold(registry, ast, heap):\n    registry.declare('namespace', path, name, node)",
    "class Registry:\n    def declare_global(self, q, k, i):\n        self.declare('global', q, n, d)",
    "class Registry:\n    def declare(self, category, qualified, name, entry):\n        pass",
    "decl = registry.declare_global(qualified, kind, initial)",
    "declare('type', q, n, d)\nregistry.declared = True",
])
def test_the_declare_lint_passes_its_callers_and_other_names(source):
    assert declare_violations(source) == []


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_only_the_merge_and_declare_global_call_registry_declare(path):
    assert declare_violations(path.read_text(encoding="utf-8"), path.name) == []


def test_each_caller_of_registry_declare_is_in_place():
    found = {
        scope
        for path in ALL_SOURCES
        for scope, _ in declare_uses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == DECLARE_CALLERS


# -- only the walk follows `.bases` -------------------------------------------------------

#: a reference passed as a `bases=` argument is listed as `scope(bases=)`
BASES_READERS = {
    "walk_layout",
    "TypeSpec.is_extension",
    "_fold(bases=)",  # the descriptor build, never a walk of its own
    "serialize_manifest",
    "render_tree.emit",
}


def bases_reads(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of each reference to an attribute named `bases`."""
    passed = {node.value for node in ast.walk(tree) if isinstance(node, ast.keyword) and node.arg == "bases"}
    return [(f"{scope}(bases=)" if node in passed else scope, node.lineno) for scope, node in _scoped(tree)
            if isinstance(node, ast.Attribute) and node.attr == "bases"]


def bases_violations(source: str, filename: str = "<source>") -> list[str]:
    """`file:line` and scope of each reference to `.bases` outside its allowed readers."""
    return [
        f"{filename}:{line} {scope or '<module>'}"
        for scope, line in bases_reads(ast.parse(source, filename))
        if scope not in BASES_READERS
    ]


@pytest.mark.parametrize("source, count", [
    ("names = desc.bases", 1),
    ("def _fold(registry, t):\n    for base in t.bases:\n        registry.find_type(base)", 1),
    ("def _fold(registry, t):\n    HostTypeDescriptor(bases=t.bases)\n    return t.bases[0]", 1),
    ("class Registry:\n    def layout(self, name):\n        return self.find_type(name).bases", 1),
    ("def walk_layout(desc, find):\n    def later():\n        return desc.bases", 1),
    ("class Other:\n    @property\n    def is_extension(self):\n        return not self.bases", 1),
    ("HostTypeDescriptor(bases=spec.bases)", 1),
    ("def render_tree(registry):\n    return [d.bases for d in registry.entries.values()]", 1),
])
def test_the_bases_lint_sees_each_other_reader(source, count):
    assert len(bases_violations(source)) == count


@pytest.mark.parametrize("source", [
    "def walk_layout(desc, find, known):\n    for base in desc.bases:\n        find(base)",
    "def _fold(registry, t):\n    HostTypeDescriptor(qualified_name=t.qualified, bases=t.bases)",
    "class TypeSpec:\n    @property\n    def is_extension(self):\n        return not self.bases",
    "def serialize_manifest(ast):\n    return [{'bases': t.bases} for t in ast.types]",
    "def render_tree(registry):\n    def emit(node, indent):\n        return desc.bases",
    "bases = spec.base_names\nHostTypeDescriptor(bases=bases)",
])
def test_the_bases_lint_passes_its_readers_and_other_names(source):
    assert bases_violations(source) == []


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_only_the_walk_follows_bases(path):
    assert bases_violations(path.read_text(encoding="utf-8"), path.name) == []


def test_each_reader_of_bases_is_in_place():
    found = {
        scope
        for path in ALL_SOURCES
        for scope, _ in bases_reads(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == BASES_READERS


# -- one path ends a session ----------------------------------------------------------------

SESSION_CLOSE = "Session.close"
FRONT_ENDS = [REPO_ROOT / "src" / "rjs" / name for name in ("cli.py", "repl.py")]


def session_ends(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(enclosing class.function, what, line) of each reference to a `.shutdown`
    and of each change to a `.bindings`: a store, or a reference to its `clear`."""
    shutdowns = [(scope, "shutdown", node.lineno) for scope, node in _scoped(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "shutdown"]
    cleared = [(scope, f"bindings {change}", line)
               for scope, change, line in attribute_changes(tree, "bindings", {"clear"})]
    return shutdowns + cleared


def session_end_violations(source: str, filename: str = "<source>") -> list[str]:
    """`file:line`, scope and what of each way of ending a session outside `Session.close`."""
    return [
        f"{filename}:{line} {scope or '<module>'} {what}"
        for scope, what, line in session_ends(ast.parse(source, filename))
        if scope != SESSION_CLOSE
    ]


@pytest.mark.parametrize("source, count", [
    ("def cmd_run(file):\n    try:\n        pass\n    finally:\n        bridge.shutdown()", 1),
    ("def cmd_run(file):\n    session.bridge.dispatcher.shutdown(wait=False)", 1),
    ("def cmd_repl(plugins):\n    session.env.bindings.clear()", 1),
    ("def cmd_repl(plugins):\n    session.env.bindings = {}\n    del scope.bindings['f']", 2),
    ("stop = bridge.shutdown\nstop()", 1),
    ("class ReplSession(Session):\n    def close(self):\n        self.bridge.shutdown()", 1),
    ("class Session:\n    def close(self):\n        def later():\n            self.env.bindings.clear()", 1),
    ("class Session:\n    def __exit__(self, *exc):\n        self.bridge.shutdown()", 1),
])
def test_the_session_end_lint_sees_each_other_ending(source, count):
    assert len(session_end_violations(source)) == count


@pytest.mark.parametrize("source", [
    "class Session:\n    def close(self, wait=True):\n        self.bridge.shutdown()\n"
    "        self.bridge.dispatcher.shutdown(wait=False)\n        self.env.bindings.clear()",
    "def cmd_run(file):\n    with closing(Session(Bridge(), out)) as session:\n        session.close(wait=False)",
    "value = session.env.bindings.get('f')",
    "names = sorted(env.bindings)\nbindings.clear()",
    "bridge.shutdown_requested = True",
])
def test_the_session_end_lint_passes_close_and_other_names(source):
    assert session_end_violations(source) == []


@pytest.mark.parametrize("path", FRONT_ENDS, ids=lambda p: p.name)
def test_only_session_close_ends_a_session(path):
    assert session_end_violations(path.read_text(encoding="utf-8"), path.name) == []


def test_session_close_shuts_down_and_clears_the_scope():
    found = {
        (scope, what)
        for path in FRONT_ENDS
        for scope, what, _ in session_ends(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {(SESSION_CLOSE, "shutdown"), (SESSION_CLOSE, "bindings clear")}


# -- every rjs dataclass is slotted and none is frozen ------------------------------------

#: `MethodSignature` keeps its `__dict__`: a test takes a weak reference to one,
#: and a slotted dataclass is weakly referenceable only with `weakref_slot=True`,
#: which needs Python 3.11, above the 3.10 floor in pyproject.toml.
UNSLOTTED = {"MethodSignature"}


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass")


def _slotted(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and any(
        keyword.arg == "slots" and isinstance(keyword.value, ast.Constant) and keyword.value.value is True
        for keyword in decorator.keywords
    )


def _frozen(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and any(
        keyword.arg == "frozen" and not (isinstance(keyword.value, ast.Constant) and keyword.value.value is False)
        for keyword in decorator.keywords
    )


def unslotted_dataclasses(source: str, filename: str = "<source>") -> list[str]:
    """`file:line Class` of each dataclass that does not pass `slots=True` or
    that does not leave `frozen` off: a frozen `__init__` stores each field
    through `object.__setattr__`, at about three plain stores' cost."""
    return [
        f"{filename}:{node.lineno} {node.name}"
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.ClassDef)
        for decorator in node.decorator_list
        if _is_dataclass(decorator)
        and (_frozen(decorator) or (node.name not in UNSLOTTED and not _slotted(decorator)))
    ]


@pytest.mark.parametrize("source", [
    "@dataclass\nclass A:\n    x: int",
    "@dataclass(frozen=True)\nclass A:\n    x: int",
    "@dataclass(slots=False)\nclass A:\n    x: int",
    "@dataclass(slots=SLOTS)\nclass A:\n    x: int",
    "@dataclasses.dataclass(eq=False)\nclass A:\n    x: int",
    "@functools.total_ordering\n@dataclass(order=True)\nclass A:\n    x: int",
    "def f():\n    @dataclass\n    class A:\n        x: int",
    "@dataclasses.dataclass(frozen=True, slots=True)\nclass A:\n    x: int",
    "@dataclass(slots=True, frozen=FROZEN)\nclass A:\n    x: int",
])
def test_the_slots_lint_sees_each_unslotted_dataclass(source):
    assert [entry.rsplit(" ", 1)[1] for entry in unslotted_dataclasses(source)] == ["A"]


def test_the_slots_lint_sees_a_frozen_exempt_class():
    source = "@dataclass(frozen=True)\nclass MethodSignature:\n    params: tuple"
    assert unslotted_dataclasses(source, "m.py") == ["m.py:2 MethodSignature"]


@pytest.mark.parametrize("source", [
    "@dataclass(slots=True)\nclass A:\n    x: int",
    "@dataclasses.dataclass(frozen=False, slots=True)\nclass A:\n    x: int",
    "@dataclass(slots=True, unsafe_hash=True)\nclass A:\n    x: int",
    "@functools.total_ordering\n@dataclass(order=True, slots=True)\nclass A:\n    x: int",
    "@dataclass(unsafe_hash=True)\nclass MethodSignature:\n    params: tuple",
    "class A:\n    __slots__ = ('x',)",
    "@other(slots=False)\nclass A:\n    x: int",
])
def test_the_slots_lint_passes_slotted_and_exempt_classes(source):
    assert unslotted_dataclasses(source) == []


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_every_rjs_dataclass_is_slotted(path):
    assert unslotted_dataclasses(path.read_text(encoding="utf-8"), path.name) == []
