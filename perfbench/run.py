"""Repository benchmark: one command, three workloads, every verdict checked.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (reporting the median
set-up time), then runs its closed loop untraced for ``--seconds`` and
prints the end-to-end metrics.  ``--trace 1`` is the per-layer run: it
runs every workload in turn, each for a third of ``--seconds``, with
blocks of traced ops interleaved with untraced ones, prints a self-time
table per workload, writes the spans as JSONL under ``.perfbench/``, and
prints the per-layer metrics.  The last line of standard output is
always the JSON result; see ``perfbench/README.md`` for what each
workload and metric means.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no repro sources under {SRC}; run from a source checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import harness  # noqa: E402
from pipeline import Pipeline  # noqa: E402
from resweep import EditResweep  # noqa: E402
from wire import Wire  # noqa: E402

_IMPORTED = time.perf_counter()

WORKLOADS = {cls.name: cls for cls in (Pipeline, Wire, EditResweep)}

#: Set-ups per untraced run; ``setup_s`` is their median plus imports.
SETUP_REPEATS = 3

#: Gated metrics of the untraced run.  Throughput and the p50s are
#: printed too, but too unsteady on a shared box to gate (README,
#: "Steadiness"); the traced run reports them per workload.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p90_ms": "ms",
    "cold_p90_ms": "ms",
    "hot_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
UNGATED_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "cold_p50_ms": "ms",
    "hot_p50_ms": "ms",
}

PER_LAYER_UNITS = {
    "graphs.random_tree_ms": "ms",
    "graphs.csr_ms": "ms",
    "core.build_ms": "ms",
    "core.marker_ms": "ms",
    "core.prove_ms": "ms",
    "core.decide_ms": "ms",
    "core.batch_fallbacks": "count",
    "client.encode_ms": "ms",
    "client.request_kb": "KiB",
    "envelope.decode_ms": "ms",
    "service.submit_cold_ms": "ms",
    "service.submit_hot_ms": "ms",
    "service.validate_ms": "ms",
    "service.decide_ms": "ms",
    "http.overhead_cold_ms": "ms",
    "http.overhead_hot_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "selfstab.update_ms": "ms",
    "selfstab.verify_ms": "ms",
    "selfstab.views_built_per_op": "count",
    "selfstab.registers_read_per_op": "count",
    "core.decide_batch_nodes_per_op": "count",
}
for _name in WORKLOADS:
    for _metric, _unit in UNGATED_UNITS.items():
        PER_LAYER_UNITS[f"{_name}.{_metric}"] = _unit
    PER_LAYER_UNITS[f"{_name}.unattributed_ms"] = "ms"
    PER_LAYER_UNITS[f"{_name}.span_coverage_pct"] = "%"
    PER_LAYER_UNITS[f"{_name}.trace_overhead_pct"] = "%"


def set_up(cls, seed: int):
    """Set the workload up :data:`SETUP_REPEATS` times; keep the last.

    Returns the live workload and the median set-up time.  Earlier
    instances are closed before the next starts, so peak memory and the
    server child reflect one set-up.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = cls(seed)
        workload.setup()
        times.append(time.perf_counter() - t0)
        if rep < SETUP_REPEATS - 1:
            workload.close()
            del workload
            gc.collect()
    return workload, harness.median(times)


def untraced_run(name: str, seed: int, seconds: float) -> dict:
    workload, setup_s = set_up(WORKLOADS[name], seed)
    try:
        phase = harness.closed_loop(workload.op, seconds, workload.warmup_ops)
        failures = workload.finish()
        rss = workload.peak_rss_mb()
    finally:
        workload.close()
    values = harness.latency_stats(phase)
    values["setup_s"] = (_IMPORTED - _STARTED) + setup_s
    values["peak_rss_mb"] = rss
    print(f"-- {name}, seed {seed}: {phase.attempted} ops in {phase.wall_s:.2f} s")
    for metric, unit in {**END_TO_END_UNITS, **UNGATED_UNITS}.items():
        print(f"{metric:<18}{values[metric]:>14.4f} {unit}")
    print(
        f"samples: latency {values['latency_samples']}, "
        f"cold {values['cold_samples']}, hot {values['hot_samples']}"
    )
    attempted = workload.warmup_ops + phase.attempted
    failed = workload.warmup_failed + phase.failed
    return _result(attempted, failed, failures, values, END_TO_END_UNITS)


def traced_run(seed: int, seconds: float) -> dict:
    trace_path = ROOT / ".perfbench" / f"trace-seed{seed}.jsonl"
    trace_path.unlink(missing_ok=True)
    values: dict[str, float] = {}
    attempted = failed = 0
    failures: list[str] = []
    for name, cls in WORKLOADS.items():
        workload = cls(seed)
        workload.setup()
        tracer = harness.Tracer(name)
        try:
            phase, layers = workload.traced(seconds / len(WORKLOADS), tracer)
            failures += workload.finish()
        finally:
            workload.close()
        for label in dict.fromkeys(record["label"] for record in tracer.records):
            table, unattributed_ms, coverage_pct = harness.layer_table(tracer, label)
            print(table)
            if label == name:
                values[f"{name}.unattributed_ms"] = unattributed_ms
                values[f"{name}.span_coverage_pct"] = coverage_pct
        tracer.write_jsonl(trace_path)
        values.update(layers)
        stats = harness.latency_stats(phase)
        for metric in UNGATED_UNITS:
            values[f"{name}.{metric}"] = stats[metric]
        values[f"{name}.trace_overhead_pct"] = harness.overhead_pct(phase)
        attempted += workload.warmup_ops + phase.attempted
        failed += workload.warmup_failed + phase.failed
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    for metric, unit in PER_LAYER_UNITS.items():
        print(f"{metric:<34}{values[metric]:>12.4f} {unit}")
    return _result(attempted, failed, failures, values, PER_LAYER_UNITS)


def _result(attempted, failed, failures, values, units) -> dict:
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the server child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.trace:
        result = traced_run(args.seed, args.seconds)
    else:
        result = untraced_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
