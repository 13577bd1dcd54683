"""Independent oracles and generators used across the suite.

Everything here re-derives expected behaviour from first principles
(straight from the documented rules) without calling the code paths it
checks, so agreement is evidence and not tautology.
"""

from __future__ import annotations

import json
import math
import operator
import random
from typing import Any

from rjs import Proxy
from rjs.model import ValueKind

# ---------------------------------------------------------------------------
# overload-resolution oracle: exhaustive scorer over the documented cost table
# ---------------------------------------------------------------------------


def chain_distance(dynamic: str, target: str, type_bases: dict[str, list[str]]) -> int | None:
    level = 0
    frontier = {dynamic}
    seen: set[str] = set()
    while frontier:
        if target in frontier:
            return level
        nxt: set[str] = set()
        for name in frontier:
            if name in seen:
                continue
            seen.add(name)
            nxt.update(type_bases.get(name, []))
        frontier = nxt
        level += 1
    return None


def oracle_cost(
    value: Any,
    kind: ValueKind,
    enums: dict[str, dict[str, int]],
    type_bases: dict[str, list[str]],
) -> int | None:
    tag = kind.tag
    if isinstance(value, bool):
        return 0 if tag == "bool" else None
    if isinstance(value, (int, float)):
        v = float(value)
        if v != v or v in (float("inf"), float("-inf")):
            return None  # no kind takes a non-finite number
        if tag == "f64":
            return 0
        if tag == "i64":
            return 1 if v == int(v) and -(2**63) <= v < 2**63 else None
        if tag == "enum":
            if v != int(v):
                return None
            return 2 if int(v) in enums.get(kind.name or "", {}).values() else None
        return None
    if isinstance(value, str):
        if tag == "cstr":
            return 0
        if tag == "str":
            return 1
        if tag == "enum":
            return 2 if value in enums.get(kind.name or "", {}) else None
        return None
    if value is None:
        return 1 if tag == "obj" else None
    if isinstance(value, Proxy):
        if tag != "obj":
            return None
        return chain_distance(value.type_name, kind.name or "", type_bases)
    return None


def oracle_classify(
    param_lists: list[tuple[ValueKind, ...]],
    args: list[Any],
    enums: dict[str, dict[str, int]],
    type_bases: dict[str, list[str]],
) -> tuple[str, Any]:
    """("ok", winner_index) | ("ambiguous", {indices}) | ("nomatch", None)."""
    totals: dict[int, int] = {}
    for index, params in enumerate(param_lists):
        if len(params) != len(args):
            continue
        total = 0
        for value, kind in zip(args, params):
            cost = oracle_cost(value, kind, enums, type_bases)
            if cost is None:
                total = -1
                break
            total += cost
        if total >= 0:
            totals[index] = total
    if not totals:
        return "nomatch", None
    best = min(totals.values())
    winners = {i for i, t in totals.items() if t == best}
    if len(winners) > 1:
        return "ambiguous", winners
    return "ok", winners.pop()


# ---------------------------------------------------------------------------
# alias-chain oracle
# ---------------------------------------------------------------------------


def follow_aliases(creation_log: dict[int, int], handle: int) -> int:
    """Resolve a handle by iteratively following recorded creation targets."""
    seen: set[int] = set()
    current = handle
    while current in creation_log and creation_log[current] != current:
        assert current not in seen, "alias cycle in test setup"
        seen.add(current)
        current = creation_log[current]
    return current


# ---------------------------------------------------------------------------
# manifest-name walker (merge completeness / enumerate agreement)
# ---------------------------------------------------------------------------


def manifest_names(ast) -> dict[str, set[str]]:
    namespaces: set[str] = set()

    def note(path: str) -> None:
        parts = path.split(".")
        for i in range(1, len(parts) + 1):
            namespaces.add(".".join(parts[:i]))

    for path in ast.namespaces:
        note(path)
    for spec in (*ast.types, *ast.functions, *ast.globals):
        if spec.namespace:
            note(spec.namespace)
    return {
        "namespace": namespaces,
        "type": {t.qualified for t in ast.types},
        "function": {f.qualified for f in ast.functions},
        "global": {g.qualified for g in ast.globals},
    }


# ---------------------------------------------------------------------------
# host-body oracle: a reference evaluator over manifest JSON bodies
# ---------------------------------------------------------------------------
#
# Values are (tag, payload) pairs and kinds are manifest JSON ("i64" or
# {"obj": "T"}). Nothing here calls rjs: the rules are restated from the
# manifest format and the heap's documented semantics.


class BodyFault(Exception):
    """A fault a host body raises; the message is the HostExecError's."""


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _wrap64(n: int) -> int:
    return (n + 2**63) % 2**64 - 2**63


def _kind_tag(kind) -> str:
    return next(iter(kind)) if isinstance(kind, dict) else kind


def _kind_name(kind) -> str:
    return next(iter(kind.values())) if isinstance(kind, dict) else kind


def render_host(value: tuple) -> str:
    """The to_str rendering of a host value."""
    tag, payload = value
    if tag == "f64":
        if math.isnan(payload):
            return "NaN"
        if math.isinf(payload):
            return "Infinity" if payload > 0 else "-Infinity"
        if payload == 0:
            return "0"
        text = repr(payload)
        return text[:-2] if text.endswith(".0") else text
    if tag == "bool":
        return "true" if payload else "false"
    if tag == "obj":
        return "null" if payload == 0 else f"<obj @{payload:#x}>"
    if tag == "void":
        return "null"
    return str(payload)


class BodyOracle:
    """One type with fields and no constructors, its globals, and a heap.

    `fields` and `globals` map a name to its kind and initial value;
    `first_address` is the next handle the heap will hand out.
    """

    def __init__(self, type_name: str, fields: dict, globals_: dict, first_address: int):
        self.type_name = type_name
        self.kinds = {name: kind for name, (kind, _) in fields.items()}
        self.initial = {name: value for name, (_, value) in fields.items()}
        self.global_kinds = {name: kind for name, (kind, _) in globals_.items()}
        self.globals = {name: value for name, (_, value) in globals_.items()}
        self.objects: dict[int, dict] = {}
        self.next_address = first_address

    def construct(self) -> int:
        address = self.next_address
        self.next_address += 1
        self.objects[address] = dict(self.initial)
        return address

    def call(self, self_addr: int, returns, body: list, args: list[tuple]) -> tuple:
        """Run a method body; returns its value or raises BodyFault."""
        for stmt in body:
            op = stmt["op"]
            if op == "ret":
                if "value" not in stmt:
                    return self._coerce(returns, ("void", None))
                return self._coerce(returns, self.eval(stmt["value"], self_addr, args))
            if op == "set":
                value = self.eval(stmt["value"], self_addr, args)
                name = stmt["field"]
                if name not in self.kinds:
                    raise BodyFault(f"unknown field {name!r}")
                self.objects[self_addr][name] = self._store(
                    self.kinds[name], value, f"field {self.type_name}.{name}")
            elif op == "gset":
                value = self.eval(stmt["value"], self_addr, args)
                name = stmt["name"]
                if name not in self.global_kinds:
                    raise BodyFault(f"unknown global {name!r}")
                self.globals[name] = self._store(self.global_kinds[name], value, f"global {name}")
            else:
                self.eval(stmt, self_addr, args)
        if returns == "void":
            return ("void", None)
        raise BodyFault("control reached the end of a non-void body")

    def _store(self, kind, value: tuple, what: str) -> tuple:
        value = self._widen(kind, value)
        tag = _kind_tag(kind)
        if tag != value[0]:
            raise BodyFault(f"{what} expects {_kind_name(kind)}, got {value[0]}")
        if tag == "obj" and value[1] != 0 and value[1] not in self.objects:
            raise BodyFault(f"{what}: handle {value[1]:#x} is dangling")
        return value

    def _coerce(self, returns, value: tuple) -> tuple:
        value = self._widen(returns, value)
        if _kind_tag(returns) != value[0]:
            raise BodyFault(f"body returned {value[0]}, signature declares {_kind_name(returns)}")
        return value

    @staticmethod
    def _widen(kind, value: tuple) -> tuple:
        return ("f64", float(value[1])) if kind == "f64" and value[0] == "i64" else value

    def eval(self, expr: dict, self_addr: int, args: list[tuple]) -> tuple:
        op = expr["op"]
        if op == "const":
            raw = expr["value"]
            if raw is None:
                return ("void", None)
            tag = {bool: "bool", int: "i64", float: "f64", str: "cstr"}[type(raw)]
            return (tag, raw)
        if op == "param":
            return args[expr["index"]]
        if op == "self":
            return ("obj", self_addr)
        if op == "get":
            name = expr["field"]
            if name not in self.kinds:
                raise BodyFault(f"{self.type_name!r} has no field {name!r}")
            return self.objects[self_addr][name]
        if op == "gget":
            name = expr["name"]
            if name not in self.globals:
                raise BodyFault(f"unknown global {name!r}")
            return self.globals[name]
        if op == "bin":
            left = self.eval(expr["l"], self_addr, args)
            right = self.eval(expr["r"], self_addr, args)
            return self._arith(expr["o"], left, right)
        if op == "builtin":
            values = [self.eval(a, self_addr, args) for a in expr["args"]]
            return self._builtin(expr["name"], values)
        if op == "new":
            values = [self.eval(a, self_addr, args) for a in expr["args"]]
            name = expr["type"]
            if name != self.type_name:
                raise BodyFault(f"unknown type {name!r}")
            if values:
                self.next_address += 1  # the handle is taken before the check fails
                raise BodyFault(f"{name!r} has no constructors taking arguments")
            return ("obj", self.construct())
        raise AssertionError(f"generator produced unknown op {op!r}")

    @staticmethod
    def _arith(op: str, left: tuple, right: tuple) -> tuple:
        if left[0] not in ("i64", "f64") or right[0] not in ("i64", "f64"):
            raise BodyFault(f"operator {op!r} requires numeric operands, got {left[0]}/{right[0]}")
        a, b = left[1], right[1]
        if left[0] == right[0] == "i64":
            if op in "/%" and b == 0:
                raise BodyFault("integer division by zero")
            if op in "/%":
                quotient = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
                exact = quotient if op == "/" else a - _wrap64(quotient * b)
            else:
                exact = _OPS[op](a, b)
            return ("i64", _wrap64(exact))
        if op == "%":
            raise BodyFault("operator '%' requires integer operands")
        if op == "/" and b == 0:
            raise BodyFault("floating-point division by zero")
        result = _OPS[op](float(a), float(b))
        if not math.isfinite(result):
            raise BodyFault(f"operator {op!r} gives a non-finite f64")
        return ("f64", result)

    @staticmethod
    def _builtin(name: str, values: list[tuple]) -> tuple:
        first = values[0]
        numeric = first[0] in ("i64", "f64")
        if name == "sqrt":
            if not numeric:
                raise BodyFault("sqrt requires a numeric argument")
            if first[1] < 0:
                raise BodyFault(f"sqrt of negative value {render_host(first)}")
            return ("f64", math.sqrt(first[1]))
        if name == "floor":
            if not numeric or not math.isfinite(first[1]):
                raise BodyFault("floor requires a finite numeric argument")
            return ("f64", float(math.floor(first[1])))
        if name == "concat":
            for tag, _ in values:
                if tag not in ("cstr", "str"):
                    raise BodyFault(f"concat requires string arguments, got {tag}")
            return ("str", "".join(text for _, text in values))
        if name == "strlen":
            if first[0] not in ("cstr", "str"):
                raise BodyFault(f"strlen requires a string argument, got {first[0]}")
            return ("i64", len(first[1]))
        if name == "to_str":
            return ("str", render_host(first))
        raise AssertionError(f"generator produced unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

OVERLOAD_FIXTURE = {
    "enums": {
        "E1": {"ea": 1, "eb": 2, "ec": 5},
        "E2": {"zero": 0, "two": 2},
    },
    "types": [
        {"name": "Base", "fields": [{"name": "tag", "kind": "i64", "initial": 0}]},
        {"name": "Mid", "bases": ["Base"]},
        {"name": "Leaf", "bases": ["Mid"]},
        {"name": "Other"},
    ],
}

OVERLOAD_TYPE_BASES = {"Base": [], "Mid": ["Base"], "Leaf": ["Mid"], "Other": []}


def load_overload_fixture(bridge):
    """Merge the scoring corpus and return (proxies by type, enum tables)."""
    from rjs.registry import merge, parse_manifest

    merge(bridge.registry, parse_manifest(json.dumps(OVERLOAD_FIXTURE)), bridge.heap)
    bridge.refresh()
    proxies = {
        name: bridge.factory.proxy_for(bridge.heap, bridge.heap.construct(name))
        for name in ("Base", "Mid", "Leaf", "Other")
    }
    return proxies, OVERLOAD_FIXTURE["enums"]


def random_kind(rng: random.Random) -> ValueKind:
    choice = rng.randrange(11)
    if choice < 5:
        return ValueKind(("i64", "f64", "bool", "cstr", "str")[choice])
    if choice < 7:
        return ValueKind("enum", ("E1", "E2")[choice - 5])
    return ValueKind("obj", ("Base", "Mid", "Leaf", "Other")[choice - 7])


def random_arg(rng: random.Random, proxies: dict[str, Proxy]) -> Any:
    pool = [
        0.0,
        1.0,
        2.0,
        5.0,
        2.5,
        -3.0,
        1e20,
        "ea",
        "zero",
        "plain",
        "",
        True,
        False,
        None,
        proxies["Base"],
        proxies["Mid"],
        proxies["Leaf"],
        proxies["Other"],
    ]
    return rng.choice(pool)


def random_param_lists(rng: random.Random) -> list[tuple[ValueKind, ...]]:
    """1-4 signatures, pairwise distinguishable by (arity, kinds)."""
    lists: list[tuple[ValueKind, ...]] = []
    seen: set[tuple] = set()
    for _ in range(rng.randint(1, 4)):
        for _attempt in range(20):
            params = tuple(random_kind(rng) for _ in range(rng.randint(0, 3)))
            key = tuple((k.tag, k.name) for k in params)
            if key not in seen:
                seen.add(key)
                lists.append(params)
                break
    return lists


# ---------------------------------------------------------------------------
# manifest front-end pin: deterministic texts, valid and faulty
# ---------------------------------------------------------------------------
#
# `tests/golden/manifest_outcomes.json` records what parsing (and, for a
# valid text, serializing) each of these texts gives. The texts are built
# from plain JSON with `random.Random(seed)` only, so they are the same on
# every run and every Python version.

#: one manifest that holds every entry kind and every body op
PIN_BASE = {
    "namespaces": ["N"],
    "enums": {"E": {"a": 1, "b": 2}},
    "types": [
        {"name": "B", "namespace": "N", "fields": [{"name": "e", "kind": {"enum": "E"}, "initial": "a"}]},
        {"name": "T", "namespace": "N", "bases": ["N.B"],
         "fields": [{"name": "x", "kind": "f64", "initial": 1.5}, {"name": "p", "kind": {"obj": "N.T"}}],
         "methods": [{"name": "M", "static": False, "params": ["f64", "cstr"], "returns": "f64", "body": [
             {"op": "set", "field": "x", "value": {"op": "param", "index": 0}},
             {"op": "self"},
             {"op": "ret", "value": {"op": "bin", "o": "+", "l": {"op": "get", "field": "x"},
                                     "r": {"op": "const", "value": 2}}}]}],
         "ctors": [{"params": ["f64"], "body": [
             {"op": "set", "field": "x", "value": {"op": "param", "index": 0}}]}]},
    ],
    "functions": [{"name": "F", "namespace": "N", "static": True, "params": ["i64"], "returns": {"obj": "N.T"},
                   "body": [{"op": "builtin", "name": "sqrt", "args": [{"op": "param", "index": 0}]},
                            {"op": "ret", "value": {"op": "new", "type": "N.T",
                                                    "args": [{"op": "const", "value": 1.0}]}}]}],
    "globals": [{"name": "g", "namespace": "N", "kind": "i64", "initial": 3}],
    "statements": [{"op": "gset", "name": "N.g", "value": {"op": "gget", "name": "N.g"}}, {"op": "ret"}],
}

_MISSING = object()
#: the invalid values a fault puts in a key; `_MISSING` deletes the key
PIN_FAULTS = (_MISSING, -1, "!", [{}, {}])
PIN_UNKNOWN_KEY = "zz"


def _fault_name(value: object) -> str:
    return "missing" if value is _MISSING else json.dumps(value)


def _object_slots(container, key, path: str):
    """(path, container, key) of every JSON object under container[key], outermost first."""
    node = container[key]
    if isinstance(node, dict):
        yield path, container, key
        for k in node:
            yield from _object_slots(node, k, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for i in range(len(node)):
            yield from _object_slots(node, i, f"{path}[{i}]")


def _faulted(node: dict, faults: dict) -> dict:
    """`node` with `faults` applied; the faulted keys come first, in order."""
    out = {k: v for k, v in faults.items() if v is not _MISSING}
    out.update((k, v) for k, v in node.items() if k not in faults)
    return out


def pair_fault_texts(base: dict = PIN_BASE) -> list[tuple[str, str, str]]:
    """(object path, label, text): two faults put into one object of `base`.

    For every object, every ordered pair of its keys plus one unknown key
    gets every pair of `PIN_FAULTS`, so each pair of faults appears in
    both key orders. Texts that come out the same are kept once.
    """
    box = [base]
    seen: set[str] = set()
    out = []
    for path, container, key in list(_object_slots(box, 0, "")):
        node = container[key]
        keys = [*node, PIN_UNKNOWN_KEY]
        for first in keys:
            for second in keys:
                if first == second:
                    continue
                for a in PIN_FAULTS:
                    for b in PIN_FAULTS:
                        container[key] = _faulted(node, {first: a, second: b})
                        text = json.dumps(box[0])
                        container[key] = node
                        if text not in seen:
                            seen.add(text)
                            label = f"{path or 'manifest'}: {first}={_fault_name(a)} {second}={_fault_name(b)}"
                            out.append((path or "manifest", label, text))
    return out


def _random_kind(rng: random.Random, enums: list[str], types: list[str]) -> object:
    choice = rng.randrange(7)
    if choice < 5:
        return ("i64", "f64", "bool", "cstr", "str")[choice]
    if choice == 5:
        return {"enum": rng.choice(enums or ["Elsewhere"])}
    return {"obj": rng.choice(types or ["Elsewhere"])}


def _random_initial(rng: random.Random, kind: object, enums: dict) -> object:
    if isinstance(kind, dict):
        if "obj" in kind:
            return None
        table = enums.get(kind["enum"], {"x": 0})
        return rng.choice([*table, *table.values()])
    return {"i64": rng.randint(-9, 9), "f64": rng.choice([0.5, -2.25, 3]), "bool": rng.random() < 0.5,
            "cstr": "c", "str": "s"}[kind]


def _random_expr(rng: random.Random, arity: int, instance: bool, depth: int) -> dict:
    ops = ["const", "gget"] + ["param"] * (arity > 0) + ["self", "get"] * instance
    if depth < 3:
        ops += ["bin", "builtin", "new"]
    op = rng.choice(ops)
    if op == "const":
        return {"op": op, "value": rng.choice([rng.randint(-9, 9), 1.5, "s", True, None])}
    if op == "gget":
        return {"op": op, "name": rng.choice(["g", "NS0.g"])}
    if op == "param":
        return {"op": op, "index": rng.randrange(arity)}
    if op == "self":
        return {"op": op}
    if op == "get":
        return {"op": op, "field": "f0"}
    if op == "bin":
        return {"op": op, "o": rng.choice("+-*/%"), "l": _random_expr(rng, arity, instance, depth + 1),
                "r": _random_expr(rng, arity, instance, depth + 1)}
    if op == "builtin":
        name = rng.choice(["sqrt", "floor", "strlen", "to_str", "alias", "concat"])
        count = rng.randint(1, 3) if name == "concat" else 1
        return {"op": op, "name": name,
                "args": [_random_expr(rng, arity, instance, depth + 1) for _ in range(count)]}
    return {"op": "new", "type": "T0", "args": [_random_expr(rng, arity, instance, depth + 1)
                                               for _ in range(rng.randint(0, 2))]}


def _random_body(rng: random.Random, arity: int, instance: bool) -> list:
    body = []
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(["set", "gset", "ret", "expr"] if instance else ["gset", "ret", "expr"])
        value = _random_expr(rng, arity, instance, 0)
        if op == "set":
            body.append({"op": op, "field": "f0", "value": value})
        elif op == "gset":
            body.append({"op": op, "name": "g", "value": value})
        elif op == "ret":
            body.append({"op": op, "value": value} if rng.random() < 0.7 else {"op": op})
        else:
            body.append(value)
    return body


def _random_callable(rng: random.Random, params: list, instance: bool, returns: object) -> dict:
    entry: dict = {"params": params}
    if returns is not None:
        entry["returns"] = returns
    entry["body"] = _random_body(rng, len(params), instance)
    return entry


def _random_returns(rng: random.Random, enums: list[str]) -> object:
    """A return kind, or None to leave the key out."""
    return rng.choice([None, "void", _random_kind(rng, enums, ["T0"])])


def random_manifest(rng: random.Random) -> dict:
    """A manifest in the documented format, valid as far as the draws allow."""
    out: dict = {}
    namespaces = [f"NS{i}" for i in range(rng.randint(0, 2))]
    if namespaces:
        out["namespaces"] = namespaces
    enums = {f"E{i}": {f"e{j}": rng.randint(-3, 3) for j in range(rng.randint(1, 3))}
             for i in range(rng.randint(0, 2))}
    if enums:
        out["enums"] = enums
    homes = ["", *namespaces]
    types: list[dict] = []
    for i in range(rng.randint(0, 3)):
        home = rng.choice(homes)
        entry: dict = {"name": f"T{i}"}
        if home:
            entry["namespace"] = home
        bases = [t["namespace"] + "." + t["name"] if t.get("namespace") else t["name"]
                 for t in types if rng.random() < 0.4]
        if bases:
            entry["bases"] = bases
        fields = []
        for j in range(rng.randint(0, 2)):
            kind = _random_kind(rng, [*enums], ["T0"])
            field_entry = {"name": f"f{j}", "kind": kind}
            if (isinstance(kind, dict) and "enum" in kind) or rng.random() < 0.5:
                field_entry["initial"] = _random_initial(rng, kind, enums)
            fields.append(field_entry)
        if fields:
            entry["fields"] = fields
        methods = []
        for j in range(rng.randint(0, 2)):
            static = rng.random() < 0.3
            params = [_random_kind(rng, [*enums], ["T0"])] + ["i64"] * j  # overloads differ in arity
            method = {"name": rng.choice(["Get", "Set"]),
                      **_random_callable(rng, params, not static, _random_returns(rng, [*enums]))}
            if static or rng.random() < 0.2:
                method["static"] = static
            methods.append(method)
        if methods:
            entry["methods"] = methods
        ctors = []
        for j in range(rng.randint(0, 2)):
            ctors.append(_random_callable(rng, ["f64"] * j, True, None))
        if ctors:
            entry["ctors"] = ctors
        types.append(entry)
    if types:
        out["types"] = types
    functions = []
    for i in range(rng.randint(0, 2)):
        params = [_random_kind(rng, [*enums], ["T0"]) for _ in range(rng.randint(0, 2))]
        fn = {"name": f"fn{i}", **_random_callable(rng, params, False, _random_returns(rng, [*enums]))}
        home = rng.choice(homes)
        if home:
            fn["namespace"] = home
        functions.append(fn)
    if functions:
        out["functions"] = functions
    globals_ = []
    for i in range(rng.randint(0, 2)):
        kind = _random_kind(rng, [*enums], ["T0"])
        entry = {"name": f"g{i}", "kind": kind}
        if (isinstance(kind, dict) and "enum" in kind) or rng.random() < 0.5:
            entry["initial"] = _random_initial(rng, kind, enums)
        home = rng.choice(homes)
        if home:
            entry["namespace"] = home
        globals_.append(entry)
    if globals_:
        out["globals"] = globals_
    if rng.random() < 0.3:
        out["statements"] = _random_body(rng, 0, False)
    return out


def random_manifest_texts(seed: int, count: int) -> list[str]:
    """Seeded random manifests; about half carry one or two faults in one object."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        manifest = random_manifest(rng)
        box = [manifest]
        faults = rng.choice((0, 0, 1, 2))
        if faults:
            _, container, key = rng.choice(list(_object_slots(box, 0, "")))
            node = container[key]
            keys = rng.sample([*node, PIN_UNKNOWN_KEY], min(faults, len(node) + 1))
            container[key] = _faulted(node, {k: rng.choice(PIN_FAULTS) for k in keys})
        texts.append(json.dumps(box[0]))
    return texts


# ---------------------------------------------------------------------------
# script front-end pin: deterministic sources, accepted and faulty
# ---------------------------------------------------------------------------
#
# `tests/golden/script_outcomes.json` records what parsing each of these
# sources gives. They are grammar-built programs, about two in three then
# mutated a character at a time, so that every lexer and parser message
# fires. Nesting stays a few levels deep, so no outcome depends on the
# stack. Only `random.Random(seed)` draws them, so they are the same on
# every run and every Python version.

_SCRIPT_NAMES = ("a", "b", "acc", "root", "print", "x_1", "é", "A٣", "_t")
_SCRIPT_NUMBERS = ("0", "7", "42", "3.5", "0.25", "1e3", "2E-2", "6.5e+1", "٣", "٣.5")
_SCRIPT_STRINGS = ('""', '"s"', '"hist 0"', '"a\\nb"', '"q\\"t"', '"\\\\"', '"tab\\t\\r"', '"é"')
_SCRIPT_BLANKS = (" ", " ", " ", "", "  ", "\t", " // note\n", "\n", "\r\n", " // \"x\\\n  ")
#: what a mutation inserts or writes over a character: every character class the lexer tells apart
_SCRIPT_NOISE = (*".,;(){}=+-*/%", '"', "\\", "e", "E", "1", "x", " ", "\n", "\t", "#", "²", "½", "٣",
                 "é", "/", "let", "fn", "true", "null", "\\q", '"\\', "1e", "1e+", "//")


def _script_expr(rng: random.Random, depth: int) -> str:
    roll = rng.randrange(11 if depth < 3 else 5)
    if roll == 0:
        return rng.choice(_SCRIPT_NUMBERS)
    if roll == 1:
        return rng.choice(_SCRIPT_STRINGS)
    if roll == 2:
        return rng.choice(("true", "false", "null"))
    if roll in (3, 4):
        return rng.choice(_SCRIPT_NAMES)
    blank = rng.choice(_SCRIPT_BLANKS)
    if roll == 5:
        return f"{_script_expr(rng, depth + 1)}.{rng.choice(_SCRIPT_NAMES)}"
    if roll == 6:
        args = [_script_expr(rng, depth + 1) for _ in range(rng.randrange(3))]
        return f"{_script_expr(rng, depth + 1)}({(',' + blank).join(args)})"
    if roll in (7, 8):
        op = rng.choice("+-*/%")
        return f"{_script_expr(rng, depth + 1)}{blank}{op}{blank}{_script_expr(rng, depth + 1)}"
    if roll == 9:
        return f"({_script_expr(rng, depth + 1)})"
    params = [rng.choice(_SCRIPT_NAMES) for _ in range(rng.randrange(3))]  # a repeat is a fault
    body = blank.join(_script_statement(rng, depth + 1) for _ in range(rng.randrange(3)))
    return f"fn({', '.join(params)}){blank}{{{blank}{body}{blank}}}"


def _script_statement(rng: random.Random, depth: int) -> str:
    roll = rng.randrange(3)
    value = _script_expr(rng, depth)
    if roll == 0:
        return f"let {rng.choice(_SCRIPT_NAMES)} = {value};"
    if roll == 1:
        target = rng.choice(_SCRIPT_NAMES)
        if rng.random() < 0.5:
            target = f"{_script_expr(rng, depth + 1)}.{target}"
        return f"{target} = {value};"
    return f"{value};"


def _mutated(rng: random.Random, source: str) -> str:
    """`source` with one to three characters deleted, inserted, written over or cut off."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(source) + 1)
        roll = rng.randrange(4)
        if roll == 0:
            source = source[:at] + source[at + 1:]
        elif roll == 1:
            source = source[:at] + rng.choice(_SCRIPT_NOISE) + source[at:]
        elif roll == 2:
            source = source[:at] + rng.choice(_SCRIPT_NOISE) + source[at + 1:]
        else:
            source = source[:at]
    return source


def random_script_sources(seed: int, count: int) -> list[str]:
    """Seeded script sources; about two in three carry character-level faults."""
    rng = random.Random(seed)
    sources = []
    for _ in range(count):
        blanks = [rng.choice(_SCRIPT_BLANKS) for _ in range(3)]
        source = blanks[0] + blanks[1].join(_script_statement(rng, 0) for _ in range(rng.randint(1, 3)))
        source += blanks[2]
        sources.append(_mutated(rng, source) if rng.random() < 0.65 else source)
    return sources
