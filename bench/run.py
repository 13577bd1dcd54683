"""rjs benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload batch_sync --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; rjs is imported from its src/ tree.
With --trace 0 it prints every end-to-end metric, with --trace 1 every
per-layer metric (see bench/README.md). Human-readable lines come first,
then a `record:` line with the run's parameters, then one JSON result
line. The exit code is nonzero when any operation failed its oracle.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _import_rjs():
    if not (SRC / "rjs" / "__init__.py").is_file():
        sys.exit(f"bench: no rjs sources at {SRC / 'rjs'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rjs

    if Path(rjs.__file__).resolve().parent != (SRC / "rjs").resolve():
        sys.exit(f"bench: imported rjs from {rjs.__file__}, not from this checkout")
    return rjs


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(outcome) -> tuple[dict, list[str]]:
    """End-to-end metrics plus the human-readable lines that describe them.

    latency_p99_ms and failed_frac are printed but are not result metrics:
    see bench/README.md.
    """
    latencies = list(outcome.latencies_s)
    tail_q = stats.tail_quantile(len(latencies), 0.99)
    metrics = {
        "setup_s": (statistics.median(outcome.setups_s), "s"),
        "ops_per_s": (outcome.ops_per_s(), "1/s"),
        "latency_p50_ms": (stats.percentile(latencies, 0.5) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    shown = dict(metrics)
    shown["latency_p99_ms"] = (stats.percentile(latencies, tail_q) * 1e3, "ms")
    shown["failed_frac"] = (outcome.failed / max(outcome.attempted, 1), "")
    notes = {
        "setup_s": f"median of {len(outcome.setups_s)} set-ups",
        "ops_per_s": f"{outcome.ops} ops in {outcome.seconds:.3f} s of timed work",
        "latency_p50_ms": f"n={len(latencies)}",
        "peak_rss_mb": "ru_maxrss",
        "latency_p99_ms": f"p{tail_q * 100:.4g} of n={len(latencies)}; printed only",
        "failed_frac": f"{outcome.failed} of {outcome.attempted} ops",
    }
    lines = [f"  {name:<16} {value:>14.6g} {unit:<4} ({notes[name]})" for name, (value, unit) in shown.items()]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch_sync", "async_chain", "registry_growth"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    rjs = _import_rjs()
    import workloads

    run, params_type = workloads.WORKLOADS[args.workload]
    params = params_type()
    out_dir = BENCH_DIR / "out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            import tracing

            untraced = run(args.seed, args.seconds / 2, workdir, params)
            tracer = tracing.Tracer()
            with tracing.install(tracer):
                traced = run(args.seed, args.seconds / 2, workdir, params, tracer)
            summary = tracer.summary()
            metrics = tracing.layer_metrics(summary, traced.ops)
            fast, slow = untraced.ops_per_s(), traced.ops_per_s()
            metrics["trace.ops_per_s_untraced"] = (fast, "1/s")
            metrics["trace.ops_per_s_traced"] = (slow, "1/s")
            metrics["trace.overhead_ratio"] = (fast / slow if slow else 0.0, "ratio")
            missing = tracing.guard(args.workload, summary)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            notes = untraced.notes + traced.notes + [f"traced run never saw {m}" for m in missing]
            worker_count = traced.worker_count
            lines = [f"  {name:<40} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
            lines.append(f"  spans: {len(tracer.spans)} kept, written to {spans_path.relative_to(ROOT)}")
        else:
            outcome = run(args.seed, args.seconds, workdir, params)
            metrics, lines = end_to_end(outcome)
            attempted, failed, notes = outcome.attempted, outcome.failed, outcome.notes
            worker_count = outcome.worker_count
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0 and not notes
    print(f"rjs bench {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed")
    for line in lines:
        print(line)
    for note in notes:
        print(f"  FAILURE: {note}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "machine": platform.machine(), "nproc": workloads.nproc(), "workers": worker_count,
        "rjs_version": rjs.__version__, "git_commit": git_commit(ROOT), "params": params.record(),
    }
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
