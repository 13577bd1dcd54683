"""Span tracer for the traced run, installed around rjs from outside.

`install(tracer)` wraps the public entry points of each rjs module at
run time and puts the wrapper under every name through which rjs looks
the function up (module globals such as `rjs.bridge.parse_manifest` and
`rjs.cli.parse`, or the class attribute for methods), so no call slips
past through a second binding. Nothing under src/ changes.

A span records name, start, end, parent span, op id and thread. Self
time is a span's duration minus the durations of its child spans on the
same thread; it is computed as spans close, and the raw spans are kept
in memory (up to a cap) and written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from stats import percentile, tail_quantile

import rjs
import rjs.bridge
import rjs.cli
import rjs.dispatcher
import rjs.heap
import rjs.model
import rjs.registry
import rjs.script

MAX_KEPT_SPANS = 50_000
SETUP = "setup:"  # name prefix of spans, counters and samples recorded during set-up


class _ThreadState:
    """Per-thread span stack and aggregates; merged when the run ends."""

    def __init__(self, ident: int, home: bool):
        self.ident = ident
        self.home = home
        self.op = 0
        self.stack: list[list] = []  # [span id, name, start, child time, parent id]
        self.count: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.nested: Counter = Counter()  # (parent name, child name) -> calls
        self.counters: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)


class Summary:
    """Merged aggregates of every thread."""

    def __init__(self, states: list[_ThreadState]):
        self.count: Counter = Counter()
        self.home_count: Counter = Counter()
        self.self_s: Counter = Counter()
        self.home_self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.nested: Counter = Counter()
        self.counters: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        for st in states:
            self.count.update(st.count)
            self.self_s.update(st.self_s)
            self.errors.update(st.errors)
            self.nested.update(st.nested)
            self.counters.update(st.counters)
            for name, values in st.samples.items():
                self.samples[name].extend(values)
            if st.home:
                self.home_count.update(st.count)
                self.home_self_s.update(st.self_s)

    def mean_self(self, name: str, home_only: bool = False) -> float:
        count = (self.home_count if home_only else self.count)[name]
        total = (self.home_self_s if home_only else self.self_s)[name]
        return total / count if count else 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.home = threading.get_ident()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.finished: dict[int, float] = {}  # call id -> worker finish time (monotonic)
        #: Prefix for everything recorded while it is set; workloads set it to
        #: SETUP around their timed set-ups so per-op figures exclude them.
        self.phase = ""

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            ident = threading.get_ident()
            st = _ThreadState(ident, ident == self.home)
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def enter(self, name: str) -> list:
        st = self._state()
        parent = st.stack[-1] if st.stack else None
        if parent is not None:
            st.nested[(self.phase + parent[1], self.phase + name)] += 1
        frame = [next(self._ids), name, self.clock(), 0.0, parent[0] if parent else 0]
        st.stack.append(frame)
        return frame

    def exit(self, frame: list, error: bool = False) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        st = self._state()
        st.stack.pop()
        span_id, name, start, child, parent_id = frame
        name = self.phase + name
        duration = end - start
        st.count[name] += 1
        st.self_s[name] += duration - child
        if error:
            st.errors[name] += 1
        if st.stack:
            st.stack[-1][3] += duration
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, name, start, end, parent_id, st.op, st.ident, error))
        return duration

    def set_op(self, op: int) -> None:
        self._state().op = op

    def add(self, counter: str, n: int = 1) -> None:
        self._state().counters[self.phase + counter] += n

    def peak(self, counter: str, value: int) -> None:
        counters = self._state().counters
        key = self.phase + counter
        counters[key] = max(counters[key], value)

    def sample(self, name: str, value: float) -> None:
        self._state().samples[self.phase + name].append(value)

    @contextmanager
    def setup_phase(self) -> Iterator[None]:
        self.phase = SETUP
        try:
            yield
        finally:
            self.phase = ""

    def summary(self) -> Summary:
        with self._lock:
            return Summary(list(self._states))

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op, thread, error in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "thread": thread, "error": error,
                }) + "\n")


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------

def _span(tracer: Tracer, name: str, fn: Callable, pre=None, post=None) -> Callable:
    """Wrap `fn` in a span. `pre(*args)` runs first and its value reaches
    `post(state, args, result)`, which runs after a successful call."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        state = pre(*args) if pre is not None else None
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(frame, error=True)
            raise
        tracer.exit(frame)
        if post is not None:
            post(state, args, result)
        return result

    return traced


def _module_sites(fn: Callable) -> list[tuple[Any, str]]:
    """Every rjs module attribute bound to `fn`: the names it is looked up by."""
    modules = [m for name, m in sorted(sys.modules.items()) if name == "rjs" or name.startswith("rjs.")]
    return [(m, attr) for m in modules for attr, value in vars(m).items() if value is fn]


#: Span names and the functions they wrap, as (owner, attribute) pairs.
#: Module-level functions are listed once and patched at every site.
#: `Bridge._score` is the scoring step that every overload resolution
#: (methods, statics, constructors) goes through; `Dispatcher._execute`
#: is the worker's entry point for one task.
METHOD_SPANS = {
    "script.eval": [(rjs.script.Interpreter, "run"), (rjs.script.Interpreter, "call_closure")],
    "bridge.get_member": [(rjs.bridge.Bridge, "get_member")],
    "bridge.set_member": [(rjs.bridge.Bridge, "set_member")],
    "bridge.invoke": [(rjs.bridge.Bridge, "invoke")],
    "bridge.resolve": [(rjs.bridge.Bridge, "_score")],
    "bridge.conversion": [(rjs.bridge.Bridge, "conversion_cost"), (rjs.bridge.Bridge, "to_host"),
                          (rjs.bridge.Bridge, "to_script")],
    "bridge.proxy": [(rjs.bridge.ProxyFactory, "proxy_for")],
    "bridge.shutdown": [(rjs.bridge.Bridge, "shutdown")],
    "heap.exec_body": [(rjs.heap.Heap, "exec_body")],
    "heap.construct": [(rjs.heap.Heap, "construct")],
    "heap.field": [(rjs.heap.Heap, "read_field"), (rjs.heap.Heap, "write_field")],
    "heap.global": [(rjs.heap.Heap, "read_global"), (rjs.heap.Heap, "write_global")],
    "heap.normalize": [(rjs.heap.Heap, "normalize")],
    "model.base_chain": [(rjs.model.Registry, "base_chain")],
    "model.lookup": [(rjs.model.Registry, "lookup")],
    "model.subtype_distance": [(rjs.model.Registry, "subtype_distance")],
    "dispatcher.submit": [(rjs.dispatcher.Dispatcher, "submit")],
    "dispatcher.exec": [(rjs.dispatcher.Dispatcher, "_execute")],
    "dispatcher.pump": [(rjs.dispatcher.Dispatcher, "process_events")],
    "dispatcher.drain": [(rjs.dispatcher.Dispatcher, "drain")],
}

FUNCTION_SPANS = {
    "script.tokenize": rjs.script.tokenize,
    "script.parse": rjs.script.parse,
    "bridge.refresh": rjs.bridge.refresh,
    "registry.parse_manifest": rjs.registry.parse_manifest,
    "registry.merge": rjs.registry.merge,
    "registry.eval_macro": rjs.registry.eval_macro,
    "cli.cmd_run": rjs.cli.cmd_run,
}

SPAN_NAMES = tuple(sorted([*METHOD_SPANS, *FUNCTION_SPANS]))


def _hooks(tracer: Tracer) -> dict[str, tuple]:
    """Extra counts taken at a few boundaries: (pre, post) by function name."""

    def count_tokens(_state, _args, tokens):
        tracer.add("script.tokens", len(tokens))

    def count_statements(interp, program, *rest):
        tracer.add("script.statements", len(program))

    def cache_size(factory, *rest):
        return len(factory.cache)

    def proxy_hit(before, args, _result):
        if len(args[0].cache) == before:
            tracer.add("bridge.proxy.hits")

    def stale(root, registry):
        return root.version_seen != registry.version

    def rebuilt(was_stale, _args, _result):
        if was_stale:
            tracer.add("bridge.refresh.rebuilds")

    def live_counts(bridge):
        tracer.peak("heap.objects.live", len(bridge.heap.objects))
        tracer.peak("bridge.proxy.live", len(bridge.factory.cache))

    def task_started(dispatcher, task):
        now = time.monotonic()
        tracer.sample("dispatcher.queue_wait_ms", (now - task.submitted_at) * 1e3)
        tracer.set_op(task.call_id)
        return now

    def task_finished(started, args, _result):
        now = time.monotonic()
        tracer.sample("dispatcher.exec_ms", (now - started) * 1e3)
        tracer.finished[args[1].call_id] = now

    def pumped(_state, _args, delivered):
        if delivered == 0:
            tracer.add("dispatcher.pump.empty")

    return {
        "tokenize": (None, count_tokens),
        "Interpreter.run": (count_statements, None),
        "ProxyFactory.proxy_for": (cache_size, proxy_hit),
        "refresh": (stale, rebuilt),
        "Bridge.shutdown": (live_counts, None),
        "Dispatcher._execute": (task_started, task_finished),
        "Dispatcher.process_events": (None, pumped),
    }


def _traced_submit(tracer: Tracer, submit: Callable) -> Callable:
    """Submit under a span, with the callback wrapped to time its delivery."""
    spanned = _span(tracer, "dispatcher.submit", submit)

    @functools.wraps(submit)
    def traced(dispatcher, task, callback):
        def delivered(value):
            finished = tracer.finished.pop(task.call_id, None)
            if finished is not None:
                tracer.sample("dispatcher.delivery_wait_ms", (time.monotonic() - finished) * 1e3)
            tracer.set_op(task.call_id)
            return callback(value)

        return spanned(dispatcher, task, delivered)

    return traced


@contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every traced function for the duration of the block.

    Objects created before the block keep whatever bound methods they
    captured, so callers create their Bridge inside it.
    """
    hooks = _hooks(tracer)
    undo: list[tuple[Any, str, Any]] = []
    try:
        for name, sites in METHOD_SPANS.items():
            for owner, attr in sites:
                original = owner.__dict__[attr]
                if name == "dispatcher.submit":
                    wrapped = _traced_submit(tracer, original)
                else:
                    wrapped = _span(tracer, name, original, *hooks.get(original.__qualname__, (None, None)))
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        for name, fn in FUNCTION_SPANS.items():
            sites = _module_sites(fn)
            if not sites:
                raise RuntimeError(f"no rjs module binds {fn.__qualname__} any more")
            wrapped = _span(tracer, name, fn, *hooks.get(fn.__qualname__, (None, None)))
            for owner, attr in sites:
                undo.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(s: Summary, ops: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    ops = max(ops, 1)

    def per_op(name: str) -> float:
        return s.count[name] / ops

    def us(name: str, home_only: bool = False) -> float:
        return s.mean_self(name, home_only) * 1e6

    def ms(name: str) -> float:
        return s.mean_self(name) * 1e3

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def dist(name: str, q: float) -> float:
        values = s.samples[name]
        return percentile(values, tail_quantile(len(values), q))

    m: dict[str, tuple[float, str]] = {
        "script.parse.self_s": (s.mean_self("script.parse"), "s"),
        "script.tokenize.tokens_per_s": (ratio(s.counters["script.tokens"], s.self_s["script.tokenize"]), "1/s"),
        "script.eval.self_us_per_stmt": (ratio(s.self_s["script.eval"], s.counters["script.statements"]) * 1e6, "us"),
        "bridge.get_member.calls_per_op": (per_op("bridge.get_member"), "1/op"),
        "bridge.get_member.self_us": (us("bridge.get_member"), "us"),
        "bridge.set_member.self_us": (us("bridge.set_member"), "us"),
        "bridge.invoke.self_us": (us("bridge.invoke"), "us"),
        "bridge.resolve.self_us": (us("bridge.resolve"), "us"),
        "bridge.resolve.conversions_per_call": (
            ratio(s.nested[("bridge.resolve", "bridge.conversion")], s.count["bridge.resolve"]), "1/call"),
        "bridge.conversion.self_us": (us("bridge.conversion"), "us"),
        "bridge.proxy.hit_ratio": (ratio(s.counters["bridge.proxy.hits"], s.count["bridge.proxy"]), "ratio"),
        "bridge.proxy.live": (float(s.counters["bridge.proxy.live"]), "count"),
        "bridge.refresh.self_ms": (ms("bridge.refresh"), "ms"),
        "bridge.refresh.rebuilds": (s.counters["bridge.refresh.rebuilds"] / ops, "1/op"),
        "heap.exec_body.self_us": (us("heap.exec_body", home_only=True), "us"),
        "heap.construct.self_us": (us("heap.construct"), "us"),
        "heap.field.self_us": (us("heap.field"), "us"),
        "heap.global.self_us": (us("heap.global"), "us"),
        "heap.normalize.calls_per_op": (per_op("heap.normalize"), "1/op"),
        "heap.objects.live": (float(s.counters["heap.objects.live"]), "count"),
        "model.base_chain.calls_per_op": (per_op("model.base_chain"), "1/op"),
        "model.base_chain.self_us": (us("model.base_chain"), "us"),
        "model.lookup.calls_per_op": (per_op("model.lookup"), "1/op"),
        "model.subtype_distance.self_us": (us("model.subtype_distance"), "us"),
        "registry.parse_manifest.self_ms": (ms(SETUP + "registry.parse_manifest"), "ms"),
        "registry.parse_manifest.op_self_ms": (ms("registry.parse_manifest"), "ms"),
        "registry.merge.self_ms": (ms(SETUP + "registry.merge"), "ms"),
        "registry.eval_macro.self_ms": (ms("registry.eval_macro"), "ms"),
        "dispatcher.submit.self_us": (us("dispatcher.submit"), "us"),
        "dispatcher.queue_wait_p50_ms": (dist("dispatcher.queue_wait_ms", 0.5), "ms"),
        "dispatcher.queue_wait_p99_ms": (dist("dispatcher.queue_wait_ms", 0.99), "ms"),
        "dispatcher.exec_ms": (dist("dispatcher.exec_ms", 0.5), "ms"),
        "dispatcher.delivery_wait_p50_ms": (dist("dispatcher.delivery_wait_ms", 0.5), "ms"),
        "dispatcher.delivery_wait_p99_ms": (dist("dispatcher.delivery_wait_ms", 0.99), "ms"),
        "dispatcher.pump.empty_ratio": (ratio(s.counters["dispatcher.pump.empty"], s.count["dispatcher.pump"]), "ratio"),
        "dispatcher.drain.self_us_per_op": (s.self_s["dispatcher.drain"] / ops * 1e6, "us"),
        "cli.cmd_run.self_ms": (ms("cli.cmd_run"), "ms"),
    }
    for name in SPAN_NAMES:
        m[f"{name}.errors"] = (float(s.errors[name]), "count")
    return m


#: What must have happened on each workload for its traced run to count:
#: span names that must have closed at least once (with the SETUP prefix
#: for spans that only the timed set-ups reach) and counters that must
#: be nonzero. A wrapper that stops seeing calls fails the run here.
#: Counters that an optimisation may rightly drive to zero (empty pumps,
#: proxy cache hits, mirror rebuilds) are reported but not guarded.
HEAVY = {
    "batch_sync": (
        ["cli.cmd_run", "script.tokenize", "script.parse", "script.eval", "bridge.get_member",
         "bridge.set_member", "bridge.invoke", "bridge.resolve", "bridge.conversion",
         "bridge.proxy", "bridge.refresh", "heap.exec_body", "heap.construct", "heap.field",
         "heap.global", "heap.normalize", "model.base_chain", "model.lookup",
         "model.subtype_distance", "registry.parse_manifest", "registry.merge"],
        ["script.tokens", "script.statements", "bridge.proxy.live", "heap.objects.live"],
    ),
    "async_chain": (
        ["dispatcher.submit", "dispatcher.exec", "dispatcher.pump", "dispatcher.drain",
         "bridge.invoke", "bridge.resolve", "bridge.conversion", "heap.exec_body",
         SETUP + "registry.parse_manifest", SETUP + "registry.merge"],
        [],
    ),
    "registry_growth": (
        ["registry.eval_macro", "registry.parse_manifest", SETUP + "registry.merge", "bridge.refresh",
         "model.base_chain", "model.lookup", "script.parse", "script.eval", "bridge.get_member",
         "bridge.set_member", "bridge.invoke", "heap.construct", "heap.field", "heap.exec_body"],
        ["script.statements", "heap.objects.live"],
    ),
}

SAMPLED = {"async_chain": ["dispatcher.queue_wait_ms", "dispatcher.exec_ms", "dispatcher.delivery_wait_ms"]}


def guard(workload: str, s: Summary) -> list[str]:
    """Names of heavy-layer spans, counters and samples that stayed at zero."""
    spans, counters = HEAVY[workload]
    missing = [f"span {n}" for n in spans if s.count[n] == 0]
    missing += [f"counter {n}" for n in counters if s.counters[n] == 0]
    missing += [f"samples {n}" for n in SAMPLED.get(workload, []) if not s.samples[n]]
    return missing
