"""Self-tests of the benchmark: oracles pass at tiny sizes and are not
vacuous, the tracer's arithmetic and wrappers are right.

    python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import pytest  # noqa: E402

import gen  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "batch_sync": workloads.BatchParams(scripts=2),
    "async_chain": workloads.AsyncParams(chains=2),
    "registry_growth": workloads.GrowParams(chains=3, depth=4, steps_per_session=6),
}
SECONDS = 0.1


def run_tiny(name: str, tmp_path: Path, tracer=None, **wrong) -> workloads.Outcome:
    run, _ = workloads.WORKLOADS[name]
    return run(7, SECONDS, tmp_path, TINY[name], tracer, **wrong)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_oracle(name, tmp_path):
    out = run_tiny(name, tmp_path)
    assert out.attempted > 0
    assert (out.failed, out.notes) == (0, [])
    assert out.ops and out.latencies_s and out.setups_s
    assert out.ops_per_s() > 0


def test_batch_sync_reports_a_wrong_expected_value(tmp_path):
    good = gen.batch_script(7, 0)
    bad = dataclasses.replace(good, expected=good.expected.replace(" ", " 1", 1))
    out = run_tiny("batch_sync", tmp_path, scripts=[bad])
    assert out.failed == out.attempted > 0
    assert "expected" in out.notes[0]


def test_async_chain_reports_a_wrong_expected_value(tmp_path):
    out = run_tiny("async_chain", tmp_path, expect=lambda function, x: gen.async_expected(function, x) + 1)
    assert out.failed == out.attempted > 0


def test_registry_growth_reports_a_wrong_expected_value(tmp_path):
    def wrong_steps(*args):
        steps = gen.grow_steps(*args)
        return [dataclasses.replace(steps[0], macro_value=steps[0].macro_value + 1), *steps[1:]]

    out = run_tiny("registry_growth", tmp_path, steps_for=wrong_steps)
    assert out.failed >= 1
    assert "returned" in out.notes[0]


def test_generators_are_deterministic_per_seed():
    assert gen.batch_script(5, 1) == gen.batch_script(5, 1)
    assert gen.batch_script(5, 1).source != gen.batch_script(6, 1).source
    assert gen.batch_script(5, 1).statements == gen.BATCH_STATEMENTS
    assert gen.grow_steps(5, 0, 4, 3, 4) == gen.grow_steps(5, 0, 4, 3, 4)
    a, b = gen.AsyncChainInputs(5, 0), gen.AsyncChainInputs(5, 0)
    assert [a.next_call() for _ in range(20)] == [b.next_call() for _ in range(20)]


def test_self_time_on_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    a = tracer.enter("a")  # 0 .. 10
    b = tracer.enter("b")  # 1 .. 4
    c = tracer.enter("c")  # 2 .. 3
    tracer.exit(c)
    tracer.exit(b)
    d = tracer.enter("d")  # 5 .. 6
    tracer.exit(d, error=True)
    tracer.exit(a)
    s = tracer.summary()
    assert dict(s.self_s) == {"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0}
    assert s.errors["d"] == 1 and s.errors["a"] == 0
    assert s.nested[("a", "b")] == s.nested[("b", "c")] == s.nested[("a", "d")] == 1
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["c"][4] == by_name["b"][0] and by_name["a"][4] == 0


def test_percentiles_leave_ten_samples_in_the_tail():
    values = list(range(1000))
    assert stats.percentile(values, stats.tail_quantile(1000, 0.99)) == 989
    q = stats.tail_quantile(500, 0.99)
    assert 500 - 1 - stats.percentile(list(range(500)), q) == 10
    assert stats.percentile(list(range(1, 102)), 0.5) == 51


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_sees_every_heavy_layer(name, tmp_path):
    originals = {attr: owner.__dict__[attr] for owner, attr in tracing.METHOD_SPANS["bridge.invoke"]}
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        out = run_tiny(name, tmp_path, tracer)
    assert (out.failed, out.notes) == (0, [])
    assert tracing.guard(name, tracer.summary()) == []
    assert {attr: owner.__dict__[attr] for owner, attr in tracing.METHOD_SPANS["bridge.invoke"]} == originals
    metrics = tracing.layer_metrics(tracer.summary(), out.attempted)
    assert all(value >= 0 for value, _ in metrics.values())


def test_guard_reports_a_layer_that_was_never_seen():
    missing = tracing.guard("async_chain", tracing.Tracer().summary())
    assert "span dispatcher.submit" in missing


def test_run_fails_without_the_rjs_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch_sync", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_prints_the_contract_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "async_chain", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
