"""Registry declaration order, the refresh snapshot and kept type layouts.

Random sequences of merges and macros are applied to one registry. After
each step, every name declared since the last refresh must stay hidden
from `get_member` and `set_member` until `refresh` shows it, and every
earlier name must resolve to its category's marker or value. The
inheritance answers must agree with walks over the test's own
record of what was declared, and the qualified-name index must agree
with a walk of the namespace tree. Manifests that declare several types
at once, in any order, must give the same answers and the same object
storage, whether the merge walked a type or built on its base's layout.
"""

from __future__ import annotations

import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest
import support
from rjs import Bridge, Registry
from rjs.bridge import FnRef, NsRef, TypeRef, refresh
from rjs.errors import NotFound, ScriptNameError, ScriptTypeError
from rjs.model import K_I64, FieldDecl, i64
from rjs.registry import eval_macro, merge, parse_manifest

METHOD_POOL = ("m0", "m1", "m2")


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def _split(qualified: str) -> tuple[str, str]:
    namespace, _, name = qualified.rpartition(".")
    return namespace, name


class World:
    """A bridge's registry plus the test's own record of every declaration in it."""

    def __init__(self) -> None:
        self.bridge = Bridge(workers=1, diag=io.StringIO())
        self.registry = self.bridge.registry
        self.heap = self.bridge.heap
        self.root = self.bridge.root
        self.namespaces = [""]
        self.bases: dict[str, list[str]] = {}
        self.methods: dict[str, dict[str, int]] = {}  # type -> method -> overload count
        self.fields: dict[str, tuple[str, int]] = {}  # field -> (declaring type, initial)
        self.functions: dict[str, int] = {}  # qualified -> overload count
        self.globals: list[str] = []
        self.values: dict[str, int] = {}  # global -> value last stored
        self.shown: set[str] = set()  # names declared before the last refresh
        self.serial = 0

    def names(self) -> set[str]:
        return {*self.namespaces[1:], *self.bases, *self.functions, *self.globals}

    def marker(self, qualified: str):
        """What `root.<qualified>` must read as."""
        if qualified in self.namespaces:
            return NsRef(qualified)
        if qualified in self.bases:
            return TypeRef(qualified)
        if qualified in self.functions:
            return FnRef(qualified)
        return float(self.values[qualified])

    def fresh(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}{self.serial}"

    def ancestors(self, qualified: str) -> set[str]:
        found, frontier = set(), [qualified]
        while frontier:
            name = frontier.pop()
            if name not in found:
                found.add(name)
                frontier.extend(self.bases[name])
        return found

    def nearest_declaring(self, qualified: str, method: str) -> str | None:
        queue, seen = [qualified], set()
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            if method in self.methods[name]:
                return name
            queue.extend(self.bases[name])
        return None

    def naive_chain(self, qualified: str) -> list[str]:
        chain, queue = [], [qualified]
        while queue:
            name = queue.pop(0)
            if name not in chain:
                chain.append(name)
                queue.extend(self.bases[name])
        return chain


# ---------------------------------------------------------------------------
# steps: each returns (manifest dict, names it adds)
# ---------------------------------------------------------------------------

def step_namespace(world: World, data) -> tuple[dict, int]:
    parent = data.draw(st.sampled_from(world.namespaces))
    path, levels = parent, data.draw(st.integers(1, 2))
    for _ in range(levels):
        path = _join(path, world.fresh("N"))
        world.namespaces.append(path)
    return {"namespaces": [path]}, levels


def step_type(world: World, data) -> tuple[dict, int]:
    namespace = data.draw(st.sampled_from(world.namespaces))
    qualified = _join(namespace, world.fresh("T"))
    bases: list[str] = []
    if world.bases:  # shared ancestors (diamonds) included
        bases = data.draw(st.lists(st.sampled_from(sorted(world.bases)), unique=True, max_size=3))
    return {"types": [type_spec(world, data, qualified, bases)]}, 1


def type_spec(world: World, data, qualified: str, bases: list[str]) -> dict:
    """A new type's manifest entry with fresh fields and drawn methods, recorded in `world`."""
    fields = []
    for _ in range(data.draw(st.integers(0, 2))):
        name = world.fresh("f")
        world.fields[name] = (qualified, world.serial)
        fields.append({"name": name, "kind": "i64", "initial": world.serial})
    methods = data.draw(st.lists(st.sampled_from(METHOD_POOL), unique=True, max_size=2))
    world.bases[qualified] = bases
    world.methods[qualified] = {m: 1 for m in methods}
    namespace, name = _split(qualified)
    return {"name": name, "namespace": namespace, "bases": bases,
            "fields": fields, "methods": [{"name": m} for m in methods]}


def step_types(world: World, data) -> tuple[dict, int]:
    """Several new types in one manifest: roots, single-base types (often a
    chain through the previous one) and diamonds, declared root-first,
    derived-first or shuffled."""
    specs: list[dict] = []
    for _ in range(data.draw(st.integers(2, 8))):
        qualified = _join(data.draw(st.sampled_from(world.namespaces)), world.fresh("T"))
        known = sorted(world.bases)
        shape = data.draw(st.sampled_from(("root", "single", "single", "diamond")))
        bases: list[str] = []
        if shape == "single" and specs and data.draw(st.booleans()):
            bases = [_join(specs[-1]["namespace"], specs[-1]["name"])]
        elif shape == "single" and known:
            bases = [data.draw(st.sampled_from(known))]
        elif shape == "diamond" and len(known) > 1:
            bases = data.draw(st.lists(st.sampled_from(known), min_size=2, max_size=3, unique=True))
        specs.append(type_spec(world, data, qualified, bases))
    order = data.draw(st.sampled_from(("root-first", "derived-first", "shuffled")))
    if order == "derived-first":
        specs.reverse()
    elif order == "shuffled":
        specs = data.draw(st.permutations(specs))
    return {"types": specs}, len(specs)


def step_extension(world: World, data) -> tuple[dict, int]:
    if not world.bases:
        return step_type(world, data)
    qualified = data.draw(st.sampled_from(sorted(world.bases)))
    method = data.draw(st.sampled_from(METHOD_POOL))
    arity = world.methods[qualified].get(method, 0)  # a fresh arity is always distinguishable
    world.methods[qualified][method] = arity + 1
    namespace, name = _split(qualified)
    spec = {"name": name, "namespace": namespace,
            "methods": [{"name": method, "params": ["i64"] * arity}]}
    return {"types": [spec]}, 0


def step_function(world: World, data) -> tuple[dict, int]:
    if world.functions and data.draw(st.booleans()):
        qualified = data.draw(st.sampled_from(sorted(world.functions)))
    else:
        qualified = _join(data.draw(st.sampled_from(world.namespaces)), world.fresh("F"))
    added = 0 if qualified in world.functions else 1
    arity = world.functions.get(qualified, 0)
    world.functions[qualified] = arity + 1
    namespace, name = _split(qualified)
    return {"functions": [{"name": name, "namespace": namespace,
                           "params": ["i64"] * arity}]}, added


def step_global(world: World, data) -> tuple[dict, int]:
    qualified = _join(data.draw(st.sampled_from(world.namespaces)), world.fresh("G"))
    world.globals.append(qualified)
    world.values[qualified] = world.serial
    namespace, name = _split(qualified)
    return {"globals": [{"name": name, "namespace": namespace, "kind": "i64",
                         "initial": world.serial}]}, 1


def step_macro_globals(world: World, data) -> tuple[dict, int]:
    """gset statements: fresh names declare globals, existing ones just store."""
    statements, added = [], 0
    for _ in range(data.draw(st.integers(1, 3))):
        if world.globals and data.draw(st.booleans()):
            qualified = data.draw(st.sampled_from(world.globals))
        else:
            qualified = _join(data.draw(st.sampled_from(world.namespaces)), world.fresh("g"))
            world.globals.append(qualified)
            added += 1
        world.values[qualified] = world.serial
        statements.append({"op": "gset", "name": qualified,
                           "value": {"op": "const", "value": world.serial}})
    return {"statements": statements}, added


STEPS = (step_namespace, step_type, step_extension, step_function, step_global,
         step_macro_globals)


def apply(world: World, manifest: dict, as_macro: bool) -> None:
    if as_macro or "statements" in manifest:
        eval_macro(world.registry, world.heap, json.dumps(manifest))
    else:
        merge(world.registry, parse_manifest(json.dumps(manifest)), world.heap)


def resolve(bridge: Bridge, qualified: str):
    """`root.A.B…`: one `get_member` per level, as a script reads it."""
    value = NsRef("")
    for part in qualified.split("."):
        value = bridge.get_member(value, part)
    return value


def check_snapshot(world: World, added: int) -> None:
    bridge, names = world.bridge, world.names()
    new = names - world.shown
    assert len(new) == added
    for qualified in new:  # declared, not yet refreshed: hidden both ways
        namespace, name = _split(qualified)
        with pytest.raises(ScriptNameError):
            resolve(bridge, qualified)
        hidden = "has no member" if namespace in world.shown or not namespace else "is not exposed"
        with pytest.raises(ScriptNameError, match=hidden):
            bridge.set_member(NsRef(namespace), name, 0.0)
    for qualified in world.shown:
        assert resolve(bridge, qualified) == world.marker(qualified)
    assert refresh(world.root, world.registry) == added
    assert world.root.version_seen == world.registry.version
    for qualified in new:
        assert resolve(bridge, qualified) == world.marker(qualified)
    for qualified in names:  # globals write through, everything else is read-only
        namespace, name = _split(qualified)
        if qualified in world.values:
            bridge.set_member(NsRef(namespace), name, world.marker(qualified))
        else:
            with pytest.raises(ScriptTypeError, match="read-only"):
                bridge.set_member(NsRef(namespace), name, 0.0)
    world.shown = names


def check_layouts(world: World) -> None:
    registry = world.registry
    for dynamic in world.bases:
        chain = [d.qualified_name for d in registry.base_chain(dynamic)]
        assert chain == world.naive_chain(dynamic)
        for target in world.bases:
            assert registry.subtype_distance(dynamic, target) == support.chain_distance(
                dynamic, target, world.bases)
        for method in METHOD_POOL:
            owner = world.nearest_declaring(dynamic, method)
            found = registry.method_set(dynamic, method)
            if owner is None:
                assert found is None
            else:
                assert found is registry.methods[owner][method]
                assert len(found) == world.methods[owner][method]
        above = world.ancestors(dynamic)
        for name, (owner, initial) in world.fields.items():
            expected = FieldDecl(name, K_I64, i64(initial)) if owner in above else None
            assert registry.field_decl(dynamic, name) == expected


def walk_tree(registry: Registry) -> dict[str, object]:
    """Every qualified name under `registry.root`, found by following child maps."""
    reached: dict[str, object] = {"": registry.root}
    frontier = [("", registry.root)]
    while frontier:
        path, node = frontier.pop()
        for children in (node.namespaces, node.types, node.functions, node.globals):
            for name, child in children.items():
                reached[_join(path, name)] = child
        frontier.extend((_join(path, name), child) for name, child in node.namespaces.items())
    return reached


def walked_prefix(registry: Registry, path: str) -> str:
    """The longest leading run of `path` that names nested namespaces."""
    node, walked = registry.root, []
    for part in path.split("."):
        if part not in node.namespaces:
            break
        node = node.namespaces[part]
        walked.append(part)
    return ".".join(walked)


def check_index(world: World) -> None:
    registry = world.registry
    reached = walk_tree(registry)
    for path, node in reached.items():
        assert registry.lookup(path) is node
    assert set(registry.entries) == set(reached)
    for path in reached:
        for absent in (_join(path, "Absent"), _join(path, "Absent.Deeper"), path + "."):
            with pytest.raises(NotFound) as caught:
                registry.lookup(absent)
            assert caught.value.prefix == walked_prefix(registry, absent)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_incremental_mirror_and_layouts_track_random_sequences(data):
    world = World()
    try:
        check_snapshot(world, 0)
        for _ in range(data.draw(st.integers(1, 14))):
            step = data.draw(st.sampled_from(STEPS))
            manifest, added = step(world, data)
            as_macro = data.draw(st.booleans())
            if as_macro and "statements" not in manifest and data.draw(st.booleans()):
                statements, more = step_macro_globals(world, data)  # declarations land first
                manifest.update(statements)
                added += more
            apply(world, manifest, as_macro)
            check_snapshot(world, added)
            check_layouts(world)
            check_index(world)
    finally:
        world.bridge.shutdown()


def check_storage(world: World) -> None:
    """A new object of each type holds every field of its chain, root base first,
    each type's own fields in declaration order, at its initial value."""
    for dynamic in world.bases:
        root_first = world.naive_chain(dynamic)[::-1]
        expected = [(name, i64(initial)) for owner in root_first
                    for name, (declared, initial) in world.fields.items() if declared == owner]
        handle = world.heap.construct(dynamic)
        assert list(world.heap.objects[handle].storage.items()) == expected
        world.heap.destroy(handle)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_layouts_built_in_multi_type_merges_equal_full_walks_and_oracles(data):
    """Whether a merge built a type's layout on its base's or walked it, every
    answer agrees with the test's own record: distances, chains, methods and
    field declarations (`check_layouts`) and storage order (`check_storage`)."""
    world = World()
    try:
        for _ in range(data.draw(st.integers(1, 8))):
            step = data.draw(st.sampled_from((step_types, step_types, step_extension, step_namespace)))
            manifest, _ = step(world, data)
            apply(world, manifest, data.draw(st.booleans()))
            check_layouts(world)
            check_storage(world)
    finally:
        world.bridge.shutdown()


@pytest.fixture
def world():
    made = World()
    yield made
    made.bridge.shutdown()


def test_extension_of_memoised_base_is_seen_and_hidden_by_nearest(world):
    merge(world.registry, parse_manifest(json.dumps({"types": [
        {"name": "Base"},
        {"name": "Derived", "bases": ["Base"], "methods": [{"name": "Own"}]},
    ]})), world.heap)
    registry = world.registry
    assert registry.method_set("Derived", "Late") is None  # memoises both layouts
    merge(registry, parse_manifest(json.dumps({"types": [
        {"name": "Base", "methods": [{"name": "Late"}, {"name": "Own"}]},
    ]})), world.heap)
    assert registry.method_set("Derived", "Late") is registry.methods["Base"]["Late"]
    assert registry.method_set("Derived", "Own") is registry.methods["Derived"]["Own"]


def test_unknown_type_is_not_memoised(world):
    registry = world.registry
    assert registry.base_chain("Later") == []
    assert registry.subtype_distance("Later", "Root") is None
    merge(registry, parse_manifest(json.dumps({"types": [
        {"name": "Root"}, {"name": "Later", "bases": ["Root"]},
    ]})), world.heap)
    assert [d.qualified_name for d in registry.base_chain("Later")] == ["Later", "Root"]
    assert registry.subtype_distance("Later", "Root") == 1


def test_extra_overload_is_not_a_new_name(world):
    registry = world.registry
    merge(registry, parse_manifest(json.dumps(
        {"functions": [{"name": "F", "namespace": "A.B"}]})), world.heap)
    assert registry.order == {"A": 0, "A.B": 1, "A.B.F": 2}
    merge(registry, parse_manifest(json.dumps(
        {"functions": [{"name": "F", "namespace": "A.B", "params": ["i64"]}]})), world.heap)
    assert registry.order == {"A": 0, "A.B": 1, "A.B.F": 2}
    assert refresh(world.root, registry) == 3
    assert refresh(world.root, registry) == 0
    assert resolve(world.bridge, "A.B") == NsRef("A.B")
    assert resolve(world.bridge, "A.B.F") == FnRef("A.B.F")
