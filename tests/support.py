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
