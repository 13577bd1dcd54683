"""Asynchronous call engine.

A fixed pool of worker threads, started by the first submission,
consumes submitted tasks and posts completion messages onto a single
FIFO queue; callbacks are delivered only by an explicit pump
(`process_events` / `drain`) running on the interpreter domain, the
thread that created the engine. Workers execute host bodies and
constructor calls only; they never touch script values, proxies or the
root object.

Pool size comes from the RJS_WORKERS environment variable (default 4;
invalid values fall back to 4 with a warning on the diagnostic stream).
"""

from __future__ import annotations

import functools
import os
import queue
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, TextIO

from .errors import DomainError, EngineStopped, ScriptRecursionError, render_fault
from .heap import Heap
from .model import HostValue, MethodSignature, ref

DEFAULT_WORKERS = 4


def resolve_worker_count(explicit: int | None = None, diag: TextIO | None = None) -> int:
    if explicit is not None:
        return max(1, int(explicit))
    raw = os.environ.get("RJS_WORKERS")
    if raw is None:
        return DEFAULT_WORKERS
    try:
        n = int(raw)
        if n > 0:
            return n
    except ValueError:
        pass
    stream = diag if diag is not None else sys.stderr
    stream.write(f"warning: invalid RJS_WORKERS value {raw!r}; using {DEFAULT_WORKERS}\n")
    return DEFAULT_WORKERS


def report_fault(diag: TextIO, call_id: int, exc: Exception) -> None:
    """The default error sink: one line per failed call on `diag`."""
    diag.write(f"async call #{call_id} failed: {render_fault(exc)}\n")


@dataclass(slots=True)
class CallTask:
    """One unit of asynchronous work.

    Either `construct_type` is set (worker constructs an instance and runs
    `signature` as its constructor; see `Heap.construct` for None) or
    `signature` alone is set (worker executes the body against `target`,
    which is the canonical self address or None for static/free calls).
    """

    target: int | None = None
    signature: MethodSignature | None = None
    args: list[HostValue] = field(default_factory=list)
    construct_type: str | None = None
    call_id: int = 0  # stamped by submit
    submitted_at: float = 0.0


def run_call(
    heap: Heap,
    target: int | None,
    signature: MethodSignature | None,
    args: list[HostValue],
    construct_type: str | None,
) -> HostValue:
    """Run one resolved call, inline or on a worker: the fields of a `CallTask`."""
    if construct_type is not None:
        return ref(heap.construct(construct_type, args, signature))
    assert signature is not None
    return heap.exec_body(target, signature, args)


@dataclass(slots=True)
class Completion:
    call_id: int
    outcome: HostValue | None
    fault: Exception | None


class Dispatcher:
    """Worker pool plus the callback-association table and completion pump.

    The pool size is fixed at construction; its threads start on the
    first `submit`, so an engine that only ever runs sync calls starts none.
    It is in its heap's `Registry.engines` from then until the last of them
    exits after `shutdown`.
    """

    def __init__(
        self,
        heap: Heap,
        workers: int | None = None,
        converter: Callable[[HostValue], Any] | None = None,
        error_sink: Callable[[int, Exception], None] | None = None,
        diag: TextIO | None = None,
    ):
        self.heap = heap
        self._diag = diag if diag is not None else sys.stderr
        self.worker_count = resolve_worker_count(workers, self._diag)
        self._converter = converter if converter is not None else (lambda value: value)
        self._error_sink = error_sink if error_sink is not None else functools.partial(report_fault, self._diag)
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._completions: queue.SimpleQueue = queue.SimpleQueue()
        self._pending: dict[int, Callable[[Any], Any]] = {}
        self._lock = threading.Lock()
        self._next_id = 1
        self._stopped = False
        self._home_thread = threading.get_ident()
        self._threads: list[threading.Thread] = []  # started ones only
        self._exited = 0  # workers that have taken their stop sentinel

    # -- submission ---------------------------------------------------------

    def submit(self, task: CallTask, callback: Callable[[Any], Any]) -> int:
        """Enqueue a task and register its callback; returns immediately."""
        with self._lock:
            if self._stopped:
                raise EngineStopped("dispatcher has been shut down")
            # before the callback is registered: a failed start leaves no pending call
            while len(self._threads) < self.worker_count:
                thread = threading.Thread(target=self._worker_loop,
                                          name=f"rjs-worker-{len(self._threads)}", daemon=True)
                thread.start()
                self._threads.append(thread)
            self.heap.registry.engines.add(self)  # keeps nothing alive: its workers hold it until shutdown
            task.call_id = self._next_id
            self._next_id += 1
            self._pending[task.call_id] = callback
        task.submitted_at = time.monotonic()
        self._tasks.put(task)
        return task.call_id

    def pending_count(self) -> int:
        """Calls submitted but not yet delivered to their callbacks."""
        with self._lock:
            return len(self._pending)

    # -- worker side ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:  # shutdown sentinel
                break
            outcome: HostValue | None = None
            fault: Exception | None = None
            try:
                outcome = self._execute(task)
            except Exception as exc:  # faults travel to the error sink
                fault = exc
            self._completions.put(Completion(task.call_id, outcome, fault))
        with self._lock:  # no thread starts once stopped, so the count is final
            self._exited += 1
            last = self._exited == len(self._threads)
        if last:
            self.heap.registry.engines.discard(self)

    def _execute(self, task: CallTask) -> HostValue:
        return run_call(self.heap, task.target, task.signature, task.args, task.construct_type)

    # -- interpreter-domain pump -----------------------------------------------

    def check_domain(self, what: str) -> None:
        """Raise DomainError unless called on the thread that created the engine."""
        if threading.get_ident() != self._home_thread:
            raise DomainError(f"{what} must run on the interpreter domain")

    def process_events(self, max_events: int | None = None) -> int:
        """Deliver up to `max_events` completions in completion order.

        Successful outcomes are converted and handed to the registered
        callback; faults (and exceptions escaping the callback or the
        conversion) go to the error sink. The pump never raises for a
        misbehaving callback.
        """
        self.check_domain("process_events")
        delivered = 0
        while max_events is None or delivered < max_events:
            try:
                completion: Completion = self._completions.get_nowait()
            except queue.Empty:
                break
            delivered += self._deliver(completion)
        return delivered

    def drain(self, timeout_ms: float) -> bool:
        """Pump until no call is pending or the timeout elapses.

        Between pumps it blocks on the completion queue for the time that
        is left, so a completion is delivered as soon as it is posted.
        """
        self.check_domain("drain")
        deadline = time.monotonic() + timeout_ms / 1000.0
        while True:
            self.process_events()
            if self.pending_count() == 0:
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            try:
                # clamped: a longer wait overflows the platform's timeout
                completion = self._completions.get(timeout=min(remaining, threading.TIMEOUT_MAX))
            except queue.Empty:
                continue  # the next pass finds the deadline passed
            self._deliver(completion)

    def _deliver(self, completion: Completion) -> int:
        """Hand one completion to its callback or the error sink.

        Returns 1 when delivered, 0 when its call was already delivered.
        """
        with self._lock:
            callback = self._pending.pop(completion.call_id, None)
        if callback is None:  # pragma: no cover - exactly-once guard
            return 0
        if completion.fault is not None:
            self._route_error(completion.call_id, completion.fault)
        else:
            try:
                callback(self._converter(completion.outcome))
            except RecursionError:  # a callback that recursed past the stack
                self._route_error(completion.call_id, ScriptRecursionError())
            except Exception as exc:
                self._route_error(completion.call_id, exc)
        return 1

    def _route_error(self, call_id: int, exc: Exception) -> None:
        try:
            self._error_sink(call_id, exc)
        except Exception:  # pragma: no cover - sink must not kill the pump
            pass

    # -- lifecycle ----------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and post each started worker its stop sentinel.

        The last worker to exit takes the engine out of `Registry.engines`:
        completions stay deliverable through process_events but no longer
        gate merges. With `wait`, return once every worker has exited;
        without it, return at once, and a body still running finishes on
        its daemon thread, as `concurrent.futures.Executor.shutdown(wait=False)`
        leaves its work.
        """
        with self._lock:
            first = not self._stopped
            self._stopped = True
        if first:
            for _ in self._threads:
                self._tasks.put(None)
        if wait:
            for t in self._threads:
                t.join()
