"""Seeded input generators and their independent oracles.

Nothing here imports rjs. Every expected value is tallied straight from
the documented behaviour of the inputs (the sample plugin's method
bodies, the benchmark plugin's bodies, the macro text), so agreement
with what rjs prints is evidence rather than tautology. Every input is
a pure function of the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# EColor as declared by plugins/sample.plugin: the input, not the code under test.
ECOLOR = {"kWhite": 0, "kBlack": 1, "kGray": 920, "kRed": 632, "kGreen": 416, "kBlue": 600}


def render_int(value: float) -> str:
    """How rjs prints an integral number: no fraction, no exponent."""
    if value != int(value):
        raise ValueError(f"oracle value {value!r} is not integral")
    return str(int(value))


# ---------------------------------------------------------------------------
# batch_sync: call-heavy scripts for `rjs run` with plugins/sample.plugin
# ---------------------------------------------------------------------------

#: Statement kinds in the body of every script and how many of each. The
#: counts are fixed so that every seed has the same cost profile; the seed
#: picks order, receivers and arguments.
BATCH_MIX = {
    "fill1": 10,  # TH1.Fill(f64)
    "fill2": 10,  # TH1.Fill(f64, f64)
    "fill_label": 10,  # TH1.Fill(cstr, f64)
    "ref_fill": 6,  # Ref() alias through ProxyFactory, then Fill
    "uid_set": 4,  # TObject.SetUniqueID, three levels above TH1D
    "uid_read": 4,  # TObject.GetUniqueID
    "uid_field_write": 4,  # inherited field write
    "uid_field_read": 4,  # inherited field read
    "entries_read": 4,  # TH1.GetEntries mid-script
    "class_name": 3,  # TObject.ClassName through three bases
    "title_set": 3,  # TNamed.SetTitle
    "color_set": 5,  # enum by name
    "color_read": 3,
    "vec_write": 4,  # proxy field write
    "vec_read": 4,  # proxy field read
    "global_write": 4,
    "global_read": 4,
    "sq": 3,  # namespaced free functions
    "sqrt": 2,
    "floor": 2,
    "closure_add": 4,
    "closure_fill": 4,
    "add_point": 4,
    "ctor_hist": 2,  # constructors
    "ctor_vec": 2,
    "ctor_xyz": 1,
    "write_object": 3,  # obj parameter: subtype distance TH1D -> TObject
}

BATCH_PROLOGUE = 10  # the `let` lines every script starts with
BATCH_EPILOGUE = 2  # the final print lines
BATCH_STATEMENTS = BATCH_PROLOGUE + sum(BATCH_MIX.values()) + BATCH_EPILOGUE

PYTHAGOREAN = ((3, 4, 0), (0, 3, 4), (5, 12, 0), (6, 8, 0), (2, 3, 6), (1, 4, 8))


@dataclass
class BatchScript:
    source: str
    statements: int
    expected: str  # exact text the script prints


def batch_script(seed: int, index: int) -> BatchScript:
    rng = random.Random(f"batch_sync:{seed}:{index}")
    kinds = [k for k, n in BATCH_MIX.items() for _ in range(n)]
    rng.shuffle(kinds)

    entries = [0, 0]
    sumw = [0, 0]
    uid = [0, 0]
    title = ["hist 0", "hist 1"]
    color = ECOLOR["kWhite"]
    vec = {"x": 1, "y": 2, "z": 3}
    g_debug = 0
    points = 0
    file_size = 0
    acc = 0
    names = ""

    lines = [
        'let h0 = root.TH1D("h0", "hist 0");',
        'let h1 = root.TH1D("h1", "hist 1");',
        "let g = root.TGraph();",
        "let c = root.TCanvas();",
        "let v = root.TVector3(1, 2, 3);",
        'let f = root.TFile("out.root");',
        "let acc = 0;",
        'let names = "";',
        "let add = fn(a, b) { a + b; };",
        "let fill = fn(hh, x, w) { hh.Fill(x, w); };",
    ]
    assert len(lines) == BATCH_PROLOGUE

    def x_arg() -> str:
        return f"{rng.randrange(0, 200) / 2:g}"

    for kind in kinds:
        i = rng.randrange(2)
        h = f"h{i}"
        k = rng.randrange(1, 50)
        w = rng.randrange(1, 5)
        if kind == "fill1":
            lines.append(f"{h}.Fill({x_arg()});")
            entries[i] += 1
            sumw[i] += 1
        elif kind == "fill2":
            lines.append(f"{h}.Fill({x_arg()}, {w});")
            entries[i] += 1
            sumw[i] += w
        elif kind == "fill_label":
            lines.append(f'{h}.Fill("bin{k}", {w});')
            entries[i] += 1
            sumw[i] += w
        elif kind == "ref_fill":
            lines.append(f"{h}.Ref().Fill({x_arg()});")
            entries[i] += 1
            sumw[i] += 1
        elif kind == "uid_set":
            lines.append(f"{h}.SetUniqueID({k});")
            uid[i] = k
        elif kind == "uid_read":
            lines.append(f"acc = acc + {h}.GetUniqueID();")
            acc += uid[i]
        elif kind == "uid_field_write":
            lines.append(f"{h}.fUniqueID = {k};")
            uid[i] = k
        elif kind == "uid_field_read":
            lines.append(f"acc = acc + {h}.fUniqueID;")
            acc += uid[i]
        elif kind == "entries_read":
            lines.append(f"acc = acc + {h}.GetEntries();")
            acc += entries[i]
        elif kind == "class_name":
            lines.append(f"names = names + {h}.ClassName();")
            names += "TObject"
        elif kind == "title_set":
            lines.append(f'{h}.SetTitle("t{k}");')
            title[i] = f"t{k}"
        elif kind == "color_set":
            name = rng.choice(sorted(ECOLOR))
            lines.append(f'c.SetFillColor("{name}");')
            color = ECOLOR[name]
        elif kind == "color_read":
            lines.append("acc = acc + c.GetFillColor();")
            acc += color
        elif kind == "vec_write":
            axis = rng.choice("xyz")
            lines.append(f"v.{axis} = {k};")
            vec[axis] = k
        elif kind == "vec_read":
            axis = rng.choice("xyz")
            lines.append(f"acc = acc + v.{axis};")
            acc += vec[axis]
        elif kind == "global_write":
            lines.append(f"root.gDebug = {k};")
            g_debug = k
        elif kind == "global_read":
            lines.append("acc = acc + root.gDebug;")
            acc += g_debug
        elif kind == "sq":
            lines.append(f"acc = acc + root.ROOT.Math.Sq({k});")
            acc += k * k
        elif kind == "sqrt":
            lines.append(f"acc = acc + root.ROOT.Math.Sqrt({k * k});")
            acc += k
        elif kind == "floor":
            lines.append(f"acc = acc + root.ROOT.Math.Floor({k}.5);")
            acc += k
        elif kind == "closure_add":
            lines.append(f"acc = add(acc, {k});")
            acc += k
        elif kind == "closure_fill":
            lines.append(f"fill({h}, {x_arg()}, {w});")
            entries[i] += 1
            sumw[i] += w
        elif kind == "add_point":
            lines.append(f"acc = acc + g.AddPoint({x_arg()}, {x_arg()});")
            points += 1
            acc += points
        elif kind == "ctor_hist":
            lines.append(f'acc = acc + root.TH1D("tmp{k}", "tmp").Fill({w}, {w});')
            acc += 1
        elif kind == "ctor_vec":
            a, b, cc = rng.choice(PYTHAGOREAN)
            lines.append(f"acc = acc + root.TVector3({a}, {b}, {cc}).Mag2();")
            acc += a * a + b * b + cc * cc
        elif kind == "ctor_xyz":
            a, b, cc = rng.choice(PYTHAGOREAN)
            lines.append(f"acc = acc + root.ROOT.Math.XYZVector({a}, {b}, {cc}).R();")
            acc += round((a * a + b * b + cc * cc) ** 0.5)
        elif kind == "write_object":
            lines.append(f"acc = acc + f.WriteObject({h});")
            file_size += 1
            acc += file_size
        else:  # pragma: no cover - BATCH_MIX and this chain are edited together
            raise AssertionError(kind)

    lines.append(
        "print(h0.GetEntries(), h0.GetSumOfWeights(), h1.GetEntries(), "
        "h1.GetSumOfWeights(), root.gDebug, g.fNpoints, acc);"
    )
    lines.append("print(h0.GetTitle(), h1.GetTitle(), names);")
    expected = (
        " ".join(render_int(n) for n in (entries[0], sumw[0], entries[1], sumw[1], g_debug, points, acc))
        + "\n"
        + f"{title[0]} {title[1]} {names}\n"
    )
    return BatchScript("\n".join(lines) + "\n", len(lines), expected)


# ---------------------------------------------------------------------------
# async_chain: closed-loop callback chains over bench/async.plugin
# ---------------------------------------------------------------------------

IO_SHARE = 0.75  # 3:1 mix of the sleep_ms(1) body and the CPU body


def async_expected(function: str, x: int) -> int:
    """Results of the two bodies in bench/async.plugin."""
    if function == "Bench.Io":
        return x + 1
    if function == "Bench.Cpu":
        return (x * 3 + 7) * (x + 2) - x * 5
    raise ValueError(function)


class AsyncChainInputs:
    """The call sequence of one chain: which body, with which argument.

    Each call's argument is derived from the previous call's expected
    result, so a chain is a fixed sequence for a given seed no matter how
    many calls the timed phase gets through.
    """

    def __init__(self, seed: int, chain: int):
        self._rng = random.Random(f"async_chain:{seed}:{chain}")
        self._x = self._rng.randrange(1000)

    def next_call(self) -> tuple[str, int, int]:
        function = "Bench.Io" if self._rng.random() < IO_SHARE else "Bench.Cpu"
        x = self._x
        expected = async_expected(function, x)
        self._x = expected % 1000
        return function, x, expected


# ---------------------------------------------------------------------------
# registry_growth: prefilled inheritance chains plus one macro per step
# ---------------------------------------------------------------------------

GROW_NS = "Grow"


def grow_chain_type(chain: int, depth: int) -> str:
    return f"{GROW_NS}.C{chain}_{depth}"


def grow_plugins(chains: int, depth: int, files: int) -> list[str]:
    """Manifests declaring `chains` inheritance chains `depth` types deep.

    Every chain root declares `fAcc` and `Add(f64)`; every level below
    adds one field, so constructing a deep type initialises more fields
    and calling `Add` walks the whole chain.
    """
    types = []
    for c in range(chains):
        for d in range(depth):
            spec: dict = {"name": f"C{c}_{d}", "namespace": GROW_NS}
            if d == 0:
                spec["fields"] = [{"name": "fAcc", "kind": "f64", "initial": 0.0}]
                spec["methods"] = [{
                    "name": "Add", "params": ["f64"], "returns": "f64",
                    "body": [
                        {"op": "set", "field": "fAcc", "value": {
                            "op": "bin", "o": "+",
                            "l": {"op": "get", "field": "fAcc"},
                            "r": {"op": "param", "index": 0}}},
                        {"op": "ret", "value": {"op": "get", "field": "fAcc"}},
                    ],
                }]
            else:
                spec["bases"] = [grow_chain_type(c, d - 1)]
                spec["fields"] = [{"name": f"f{d}", "kind": "i64", "initial": d}]
            types.append(spec)
    per_file = -(-len(types) // files)
    docs = []
    for i in range(files):
        doc: dict = {"types": types[i * per_file:(i + 1) * per_file]}
        if i == 0:
            doc["namespaces"] = [GROW_NS]
        docs.append(json.dumps(doc))
    return docs


@dataclass
class GrowStep:
    type_name: str  # unqualified name the macro declares
    macro: str
    macro_value: int  # what the macro's `ret` yields
    script: str
    expected: str  # what the script prints


def grow_steps(seed: int, session: int, steps: int, chains: int, depth: int) -> list[GrowStep]:
    """Step k declares a type `depth_k` levels deep, cycling 1..depth."""
    rng = random.Random(f"registry_growth:{seed}:{session}")
    out = []
    for k in range(steps):
        level = k % depth + 1
        base = grow_chain_type(rng.randrange(chains), level - 1)
        name = f"S{session}_{k}"
        value = rng.randrange(1_000_000)
        macro = json.dumps({
            "types": [{"name": name, "namespace": GROW_NS, "bases": [base]}],
            "statements": [{"op": "ret", "value": {"op": "const", "value": value}}],
        })
        a, b = rng.randrange(1000), rng.randrange(1000)
        script = f"let o = root.{GROW_NS}.{name}(); o.fAcc = {a}; print(o.Add({b}));"
        out.append(GrowStep(name, macro, value, script, render_int(a + b) + "\n"))
    return out
