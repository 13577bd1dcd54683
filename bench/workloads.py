"""The three workloads, driven against rjs and checked against gen.py.

Each workload function does its set-up (timed on its own, several
times), then runs operations until `seconds` of timed work have passed,
and returns an Outcome. Timed work excludes the benchmark's own input
generation and oracle checks. The rjs entry points are looked up on
their modules at call time (`rjs.cli.cmd_run`, `rjs.script.parse`) so
that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
from array import array
import io
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import rjs
import rjs.cli
import rjs.script
from rjs.bridge import FnRef

import gen

BENCH_DIR = Path(__file__).resolve().parent
SAMPLE_PLUGIN = BENCH_DIR.parent / "plugins" / "sample.plugin"
ASYNC_PLUGIN = BENCH_DIR / "async.plugin"

MAX_NOTES = 5
BATCH_SETUP_EVERY = 4  # one timed set-up after every this many script runs
BATCH_WARMUP_RUNS = 2
ASYNC_SETUPS = 30  # half before the chains start, half after they finish
GROW_PLUGIN_FILES = 4


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    """Operations attempted and failed, and the run's timed work.

    Latencies are kept in a flat array so that the benchmark's own memory
    barely grows with the number of operations, which peak_rss_mb counts.
    """

    attempted: int = 0
    failed: int = 0
    ops: int = 0  # operations inside timed work
    seconds: float = 0.0  # timed work
    latencies_s: array = field(default_factory=lambda: array("d"))
    setups_s: list[float] = field(default_factory=list)
    worker_count: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, ops: int, seconds: float, latency_s: float) -> None:
        """Record timed work done one operation (or script) at a time."""
        self.ops += ops
        self.seconds += seconds
        self.latencies_s.append(latency_s)

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        if len(self.notes) < MAX_NOTES:
            self.notes.append(why)

    def ops_per_s(self) -> float:
        return self.ops / self.seconds if self.seconds else 0.0


def _timed_setup(plugins: list[Path], tracer=None) -> tuple[rjs.Bridge, float]:
    """`Bridge()` plus every plugin load."""
    with tracer.setup_phase() if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        bridge = rjs.Bridge()
        for path in plugins:
            bridge.loadlibrary(str(path))
        return bridge, time.perf_counter() - start


# ---------------------------------------------------------------------------
# batch_sync
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchParams:
    scripts: int = 16  # distinct generated scripts, run in turn

    def record(self) -> dict:
        return {"scripts": self.scripts, "statements_per_script": gen.BATCH_STATEMENTS,
                "mix": gen.BATCH_MIX, "setup_every": BATCH_SETUP_EVERY,
                "plugin": "plugins/sample.plugin", "overload_set_width": 3}


def batch_sync(seed: int, seconds: float, workdir: Path, p: BatchParams = BatchParams(),
               tracer=None, scripts: list[gen.BatchScript] | None = None) -> Outcome:
    """`rjs run` on generated scripts; one operation is one statement.

    A latency sample is one whole `rjs run`, what a batch user waits for.
    """
    if scripts is None:
        scripts = [gen.batch_script(seed, i) for i in range(p.scripts)]
    paths = []
    for i, script in enumerate(scripts):
        path = workdir / f"batch_{i}.rjs"
        path.write_text(script.source, encoding="utf-8")
        paths.append(str(path))
    out = Outcome()
    elapsed = 0.0
    run = 0
    while run < BATCH_WARMUP_RUNS or elapsed < seconds:
        script, path = scripts[run % len(scripts)], paths[run % len(scripts)]
        stdout, diag = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.set_op(run)
        start = time.perf_counter()
        code = rjs.cli.cmd_run(path, [str(SAMPLE_PLUGIN)], out=stdout, diag=diag)
        took = time.perf_counter() - start
        out.attempted += script.statements
        if code != 0 or stdout.getvalue() != script.expected:
            out.fail(script.statements, f"script {run % len(scripts)}: exit {code}, "
                     f"printed {stdout.getvalue()!r}, expected {script.expected!r}, "
                     f"diagnostics {diag.getvalue()!r}")
        if run >= BATCH_WARMUP_RUNS:
            elapsed += took
            out.add(script.statements, took, took)
        if run % BATCH_SETUP_EVERY == 0:
            # set-ups are spread over the run so they sample the same machine states
            bridge, took = _timed_setup([SAMPLE_PLUGIN], tracer)
            out.setups_s.append(took)
            out.worker_count = bridge.dispatcher.worker_count
            bridge.shutdown()
        run += 1
    return out


# ---------------------------------------------------------------------------
# async_chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsyncParams:
    chains: int = field(default_factory=nproc)

    def record(self) -> dict:
        return {"chains": self.chains, "calls_in_flight": self.chains, "setups": ASYNC_SETUPS,
                "io_share": gen.IO_SHARE, "plugin": "bench/async.plugin"}


def async_chain(seed: int, seconds: float, workdir: Path, p: AsyncParams = AsyncParams(),
                tracer=None, expect=gen.async_expected) -> Outcome:
    """Closed-loop chains of async calls; one operation is one call.

    Every callback checks its value and thread, then submits its chain's
    next call until the timed phase is over; the interpreter thread
    delivers callbacks with `dispatcher.drain`. A latency sample runs from
    just before `invoke` to the start of the callback.
    """
    out = Outcome()
    _async_setups(ASYNC_SETUPS // 2, out, tracer)
    bridge, took = _timed_setup([ASYNC_PLUGIN], tracer)
    out.setups_s.append(took)
    out.worker_count = bridge.dispatcher.worker_count
    faults: list[str] = []
    bridge.error_sink = lambda call_id, exc: faults.append(f"call #{call_id}: {exc!r}")

    home = threading.get_ident()
    inputs = [gen.AsyncChainInputs(seed, c) for c in range(p.chains)]
    deliveries = bytearray()  # callbacks seen, by call token
    done_at, latencies = array("d"), array("d")
    submitted = 0

    def launch(chain: int) -> None:
        nonlocal submitted
        function, x, _ = inputs[chain].next_call()
        expected = expect(function, x)
        token = submitted
        submitted += 1
        deliveries.append(0)
        sent = time.perf_counter()

        def callback(value):
            now = time.perf_counter()
            deliveries[token] = min(deliveries[token] + 1, 2)
            if deliveries[token] > 1:
                out.fail(1, f"call {token} delivered twice")
            elif threading.get_ident() != home:
                out.fail(1, f"call {token} delivered off the interpreter thread")
            elif value != float(expected):
                out.fail(1, f"{function}({x}) gave {value!r}, expected {expected}")
            done_at.append(now)
            latencies.append(now - sent)
            if now < stop_at:
                launch(chain)

        bridge.invoke(FnRef(function), [float(x), callback])

    start = time.perf_counter()
    stop_at = start + seconds
    try:
        for chain in range(p.chains):
            launch(chain)
        if not bridge.dispatcher.drain((seconds + 60) * 1000):
            out.fail(0, "drain timed out")  # the undelivered calls are counted below
    finally:
        bridge.shutdown()
    out.attempted = submitted
    missing = deliveries.count(0)
    if missing:
        out.fail(missing, f"{missing} call(s) never delivered")
    if faults:
        out.fail(len(faults), f"async faults: {faults[:3]}")
    _async_setups(ASYNC_SETUPS - ASYNC_SETUPS // 2 - 1, out, tracer)

    # calls overlap, so timed work is the wall time of the timed phase,
    # and an operation counts when its callback started inside it
    timed = array("d", (latency for done, latency in zip(done_at, latencies) if done < stop_at))
    out.ops, out.seconds, out.latencies_s = len(timed), seconds, timed
    return out


def _async_setups(n: int, out: Outcome, tracer) -> None:
    for _ in range(n):
        bridge, took = _timed_setup([ASYNC_PLUGIN], tracer)
        out.setups_s.append(took)
        bridge.shutdown()


# ---------------------------------------------------------------------------
# registry_growth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowParams:
    chains: int = 100
    depth: int = 30
    steps_per_session: int = 100

    def record(self) -> dict:
        return {"prefill_types": self.chains * self.depth, "chains": self.chains,
                "max_depth": self.depth, "plugin_files": GROW_PLUGIN_FILES,
                "steps_per_session": self.steps_per_session}


def registry_growth(seed: int, seconds: float, workdir: Path, p: GrowParams = GrowParams(),
                    tracer=None, steps_for=gen.grow_steps) -> Outcome:
    """A live session that keeps adding types; one operation is one step.

    Each session prefills a fresh Bridge from the generated plugins (its
    set-up), then runs up to `steps_per_session` steps: one `evalmacro`
    declaring a type deeper in a chain, and a script that constructs it,
    writes the field declared at the chain root and calls the root's method.
    """
    plugins = []
    for i, text in enumerate(gen.grow_plugins(p.chains, p.depth, GROW_PLUGIN_FILES)):
        path = workdir / f"grow_{i}.plugin"
        path.write_text(text, encoding="utf-8")
        plugins.append(path)
    out = Outcome()
    elapsed = 0.0
    session = 0
    while elapsed < seconds:
        bridge, took = _timed_setup(plugins, tracer)
        out.setups_s.append(took)
        out.worker_count = bridge.dispatcher.worker_count
        try:
            steps = steps_for(seed, session, p.steps_per_session, p.chains, p.depth)
            elapsed += _grow_session(bridge, steps, seconds - elapsed, out, tracer)
        finally:
            bridge.shutdown()
        session += 1
    return out


def _grow_session(bridge: rjs.Bridge, steps: list[gen.GrowStep], budget: float, out: Outcome,
                  tracer=None) -> float:
    interp = rjs.script.Interpreter(bridge, io.StringIO())
    mirrored = len(bridge.node_at(gen.GROW_NS).types)
    elapsed = 0.0
    for step in steps:
        if elapsed >= budget:
            break
        printed = io.StringIO()
        interp.out = printed
        out.attempted += 1
        if tracer is not None:
            tracer.set_op(out.attempted)
        start = time.perf_counter()
        try:
            value = bridge.evalmacro(step.macro)
            interp.run(rjs.script.parse(step.script))
        except Exception as exc:  # an operation that raises counts as failed; the run goes on
            took = time.perf_counter() - start
            out.fail(1, f"step {step.type_name}: {type(exc).__name__}: {exc}")
        else:
            took = time.perf_counter() - start
            types = bridge.node_at(gen.GROW_NS).types
            if value != step.macro_value:
                out.fail(1, f"macro {step.type_name} returned {value!r}, expected {step.macro_value}")
            elif printed.getvalue() != step.expected:
                out.fail(1, f"step {step.type_name} printed {printed.getvalue()!r}, expected {step.expected!r}")
            elif step.type_name not in types or len(types) != mirrored + 1:
                out.fail(1, f"mirror after {step.type_name}: {len(types)} types, expected {mirrored + 1}")
        mirrored = len(bridge.node_at(gen.GROW_NS).types)
        elapsed += took
        out.add(1, took, took)
    return elapsed


WORKLOADS = {
    "batch_sync": (batch_sync, BatchParams),
    "async_chain": (async_chain, AsyncParams),
    "registry_growth": (registry_growth, GrowParams),
}
