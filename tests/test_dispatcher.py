"""Worker pool, completion delivery and quiescence support."""

from __future__ import annotations

import io
import json
import re
import sys
import threading
import time
import types

import pytest

import rjs.dispatcher
from rjs import CallTask, Dispatcher, FnRef, Heap, Registry, i64, merge, parse_manifest, resolve_worker_count
from rjs.errors import DomainError, EngineStopped, NotQuiescent
from rjs.model import Builtin, Const, ExprStmt, K_I64, MethodSignature, Param, Return


def sleep_body(ms: int, returns_param: bool = False) -> MethodSignature:
    stmts = [ExprStmt(Builtin("sleep_ms", (Const(i64(ms)),)))]
    if returns_param:
        return MethodSignature((K_I64,), K_I64, True, (*stmts, Return(Param(0))))
    return MethodSignature((), body=tuple(stmts))


def echo_body() -> MethodSignature:
    return MethodSignature((K_I64,), K_I64, True, (Return(Param(0)),))


@pytest.fixture
def engine():
    heap = Heap(Registry())
    d = Dispatcher(heap, workers=4)
    yield d
    d.shutdown()


def test_submit_returns_well_before_task_finishes(engine):
    start = time.monotonic()
    engine.submit(CallTask(signature=sleep_body(200)), lambda v: None)
    elapsed = time.monotonic() - start
    assert elapsed < 0.05
    assert engine.drain(2000)


def test_call_ids_are_distinct_and_increasing(engine):
    first = engine.submit(CallTask(signature=echo_body(), args=[i64(1)]), lambda v: None)
    second = engine.submit(CallTask(signature=echo_body(), args=[i64(2)]), lambda v: None)
    assert second > first > 0
    engine.drain(2000)


def test_submit_after_shutdown_rejected():
    engine = Dispatcher(Heap(Registry()), workers=1)
    engine.shutdown()
    with pytest.raises(EngineStopped):
        engine.submit(CallTask(signature=echo_body(), args=[i64(1)]), lambda v: None)


def test_process_events_empty_returns_zero(engine):
    assert engine.process_events() == 0


def test_process_events_respects_max(engine):
    done: list[int] = []
    for i in range(3):
        engine.submit(CallTask(signature=echo_body(), args=[i64(i)]),
                      lambda v: done.append(int(v.value)))
    deadline = time.monotonic() + 2.0
    while engine._completions.qsize() < 3 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert engine.process_events(2) == 2
    assert engine.process_events() == 1
    assert sorted(done) == [0, 1, 2]


def test_callbacks_receive_their_own_payloads(engine):
    received: dict[int, int] = {}
    for i in range(100):
        engine.submit(
            CallTask(signature=echo_body(), args=[i64(i)]),
            lambda v, want=i: received.__setitem__(want, int(v.value)),
        )
    assert engine.drain(5000)
    assert received == {i: i for i in range(100)}


def test_pending_count_counts_submitted_not_delivered(engine):
    assert engine.pending_count() == 0
    engine.submit(CallTask(signature=sleep_body(50)), lambda v: None)
    assert engine.pending_count() == 1
    assert engine.drain(2000)
    assert engine.pending_count() == 0


def test_drain_bounded_by_batch_schedule(engine):
    start = time.monotonic()
    for _ in range(5):
        engine.submit(CallTask(signature=sleep_body(50)), lambda v: None)
    assert engine.drain(5000)
    # ceil(5/4) * 50ms plus generous slack
    assert time.monotonic() - start < 1.0


def test_drain_timeout_returns_false(engine):
    engine.submit(CallTask(signature=sleep_body(500)), lambda v: None)
    assert engine.drain(1) is False
    assert engine.drain(5000) is True


def test_drain_blocks_on_the_queue_instead_of_sleeping(engine, monkeypatch):
    def no_sleep(_seconds):
        raise AssertionError("drain polled with time.sleep")

    fake_time = types.SimpleNamespace(monotonic=time.monotonic, sleep=no_sleep)
    monkeypatch.setattr(rjs.dispatcher, "time", fake_time)
    done: list[int] = []
    engine.submit(CallTask(signature=sleep_body(30, returns_param=True), args=[i64(7)]),
                  lambda v: done.append(int(v.value)))
    assert engine.drain(5000) is True
    assert done == [7]

    engine.submit(CallTask(signature=sleep_body(300)), lambda v: done.append(0))
    assert engine.drain(20) is False
    assert engine.pending_count() == 1 and done == [7]
    assert engine.drain(5000) is True
    assert done == [7, 0]


def test_completion_order_not_submission_order(engine):
    order: list[str] = []
    engine.submit(CallTask(signature=sleep_body(150)), lambda v: order.append("slow"))
    engine.submit(CallTask(signature=sleep_body(10)), lambda v: order.append("fast"))
    assert engine.drain(3000)
    assert order == ["fast", "slow"]


def test_parallelism_four_workers():
    heap = Heap(Registry())
    engine = Dispatcher(heap, workers=4)
    try:
        start = time.monotonic()
        for _ in range(4):
            engine.submit(CallTask(signature=sleep_body(100)), lambda v: None)
        assert engine.drain(5000)
        elapsed = time.monotonic() - start
        assert elapsed < 0.2, f"4 x 100ms on 4 workers took {elapsed:.3f}s"
    finally:
        engine.shutdown()


def test_shutdown_idle_is_immediate(engine):
    start = time.monotonic()
    engine.shutdown()
    assert time.monotonic() - start < 0.5


def test_shutdown_preserves_deliverable_completion():
    engine = Dispatcher(Heap(Registry()), workers=2)
    got: list[int] = []
    engine.submit(CallTask(signature=echo_body(), args=[i64(41)]),
                  lambda v: got.append(int(v.value)))
    engine.shutdown()  # waits for the in-flight task
    assert engine.process_events() == 1
    assert got == [41]


def test_double_shutdown_is_noop(engine):
    engine.shutdown()
    engine.shutdown()


def test_faults_go_to_error_sink_and_consume_callback():
    sunk: list[tuple[int, str]] = []
    engine = Dispatcher(
        Heap(Registry()),
        workers=1,
        error_sink=lambda call_id, exc: sunk.append((call_id, type(exc).__name__)),
    )
    try:
        bad = MethodSignature((), K_I64, True,
                              (Return(Builtin("sqrt", (Const(i64(-1)),))),))
        call_id = engine.submit(CallTask(signature=bad), lambda v: pytest.fail("ran"))
        assert engine.drain(2000)
        assert sunk == [(call_id, "HostExecError")]
        assert engine.pending_count() == 0
    finally:
        engine.shutdown()


def test_callback_exception_goes_to_sink_and_pump_continues():
    sunk: list[int] = []
    engine = Dispatcher(Heap(Registry()), workers=2,
                        error_sink=lambda call_id, exc: sunk.append(call_id))
    try:
        ok: list[int] = []

        def boom(v):
            raise RuntimeError("callback bug")

        bad_id = engine.submit(CallTask(signature=echo_body(), args=[i64(1)]), boom)
        engine.submit(CallTask(signature=echo_body(), args=[i64(2)]),
                      lambda v: ok.append(int(v.value)))
        assert engine.drain(2000)
        assert sunk == [bad_id]
        assert ok == [2]
    finally:
        engine.shutdown()


def test_pump_from_worker_thread_rejected(engine):
    failure: list[Exception] = []

    def pump_elsewhere():
        try:
            engine.process_events()
        except Exception as exc:
            failure.append(exc)

    t = threading.Thread(target=pump_elsewhere)
    t.start()
    t.join()
    assert failure and isinstance(failure[0], DomainError)


def test_converter_applied_on_delivery():
    engine = Dispatcher(Heap(Registry()), workers=1,
                        converter=lambda hv: int(hv.value) * 10)
    try:
        got: list[int] = []
        engine.submit(CallTask(signature=echo_body(), args=[i64(4)]), got.append)
        assert engine.drain(2000)
        assert got == [40]
    finally:
        engine.shutdown()


def test_worker_count_from_environment(monkeypatch):
    monkeypatch.setenv("RJS_WORKERS", "7")
    assert resolve_worker_count() == 7
    monkeypatch.setenv("RJS_WORKERS", "zero")
    import io

    diag = io.StringIO()
    assert resolve_worker_count(diag=diag) == 4
    assert "RJS_WORKERS" in diag.getvalue()
    monkeypatch.setenv("RJS_WORKERS", "-3")
    assert resolve_worker_count(diag=io.StringIO()) == 4
    monkeypatch.delenv("RJS_WORKERS")
    assert resolve_worker_count() == 4


def test_default_sink_reports_fault_on_diag():
    diag = io.StringIO()
    engine = Dispatcher(Heap(Registry()), workers=1, diag=diag)
    try:
        bad = MethodSignature((), K_I64, True,
                              (Return(Builtin("sqrt", (Const(i64(-1)),))),))
        call_id = engine.submit(CallTask(signature=bad), lambda v: pytest.fail("ran"))
        assert engine.drain(2000)
        assert diag.getvalue().startswith(f"async call #{call_id} failed: HostExecError: ")
    finally:
        engine.shutdown()


# -- the pool starts on the first submission ------------------------------------------


def new_workers(before: set[threading.Thread]) -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t not in before and t.name.startswith("rjs-worker-")]


def test_first_submit_starts_exactly_worker_count_threads():
    before = set(threading.enumerate())
    engine = Dispatcher(Heap(Registry()), workers=3)
    try:
        assert new_workers(before) == []
        engine.submit(CallTask(signature=echo_body(), args=[i64(1)]), lambda v: None)
        started = new_workers(before)
        assert sorted(t.name for t in started) == ["rjs-worker-0", "rjs-worker-1", "rjs-worker-2"]
        engine.submit(CallTask(signature=echo_body(), args=[i64(2)]), lambda v: None)
        assert new_workers(before) == started
        assert engine.drain(2000)
    finally:
        engine.shutdown()
    assert not any(t.is_alive() for t in started)


def test_shutdown_before_any_submit_starts_no_thread(bridge):
    bridge.evalmacro(json.dumps({"functions": [{
        "name": "Echo", "params": ["i64"], "returns": "i64",
        "body": [{"op": "ret", "value": {"op": "param", "index": 0}}]}]}))
    before = set(threading.enumerate())
    bridge.shutdown()
    with pytest.raises(EngineStopped):
        bridge.invoke(FnRef("Echo"), [1.0, lambda v: None])
    assert new_workers(before) == []
    assert bridge.dispatcher.pending_count() == 0


def test_concurrent_first_submits_never_start_more_than_worker_count():
    before = set(threading.enumerate())
    engine = Dispatcher(Heap(Registry()), workers=3)
    submitters, per_submitter = 8, 25
    gate = threading.Barrier(submitters)
    got: list[int] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def submit_all(base: int) -> None:
            gate.wait(timeout=5)
            for i in range(per_submitter):
                engine.submit(CallTask(signature=echo_body(), args=[i64(base + i)]),
                              lambda v: got.append(v.value))

        threads = [threading.Thread(target=submit_all, args=(s * per_submitter,))
                   for s in range(submitters)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        started = new_workers(before)
        assert len(started) == 3
        assert engine.drain(5000)
    finally:
        sys.setswitchinterval(interval)
        engine.shutdown()
    assert sorted(got) == list(range(submitters * per_submitter))
    assert not any(t.is_alive() for t in started)


def test_engines_join_and_leave_a_registry_under_concurrent_merges():
    registry = Registry()
    heap = Heap(registry)
    held = Dispatcher(heap, workers=1)  # idle until the end, so not a member
    churners, per_churner = 4, 300
    gate = threading.Barrier(churners + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        undrained: list[Dispatcher] = []

        def churn() -> None:
            gate.wait(timeout=5)
            for _ in range(per_churner):
                engine = Dispatcher(heap, workers=1)
                engine.submit(CallTask(signature=sleep_body(0)), lambda v: None)  # joins
                if not engine.drain(5000):
                    undrained.append(engine)
                engine.shutdown()  # leaves after its worker is joined

        threads = [threading.Thread(target=churn) for _ in range(churners)]
        for t in threads:
            t.start()
        gate.wait(timeout=5)
        applied = refused = 0
        while any(t.is_alive() for t in threads):
            version = registry.version
            text = json.dumps({"namespaces": [f"N{version + 1}"]})
            try:
                assert merge(registry, parse_manifest(text), heap) == version + 1
                applied += 1
            except NotQuiescent as exc:
                assert re.fullmatch(r"([1-9][0-9]*) asynchronous call\(s\) in flight", str(exc))
                assert registry.version == version
                refused += 1
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert undrained == [] and refused > 0 and registry.version == applied > 0
    assert registry.engines == set()
    held.submit(CallTask(signature=sleep_body(100)), lambda v: None)
    try:
        assert registry.engines == {held}
        with pytest.raises(NotQuiescent, match=r"^1 asynchronous call\(s\) in flight$"):
            merge(registry, parse_manifest('{"namespaces": ["Last"]}'), heap)
        assert held.drain(5000)
        assert merge(registry, parse_manifest('{"namespaces": ["Last"]}'), heap) == applied + 1
    finally:
        held.shutdown()
    assert registry.engines == set()
