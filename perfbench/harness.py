"""Shared machinery of the benchmark: spans, the closed loop, statistics.

Every workload module defines a class with the same small surface:

* ``setup()`` builds the instance, starts what must run, and warms up;
* ``op(i, span)`` performs operation ``i`` and returns the seconds it
  spent per latency class (``{"cold": s}``, ``{"hot": s}``, or both);
  a wrong verdict raises :class:`CheckFailed`;
* ``finish()`` runs the end-of-run checks and returns failure messages;
* ``peak_rss_mb()`` reads the peak RSS of the process doing the work;
* ``close()`` releases everything ``setup()`` acquired;
* ``traced(seconds, tracer)`` runs the traced phase and returns it with
  its per-layer metrics (by default via ``layer_metrics(tracer)``).

:class:`Workload` holds the defaults.

``span`` is either :meth:`Tracer.span` (traced ops) or :func:`null_span`
(untraced ops), so one op body serves both runs.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

#: Ops per block in a traced phase.  Even, so that each block holds
#: whole cold/hot pairs.
TRACE_BLOCK = 2


class CheckFailed(Exception):
    """An op's output disagreed with its correctness oracle."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def null_span(name: str) -> _NullSpan:
    """The untraced span: one shared object, no clock reads."""
    return _NULL_SPAN


class Tracer:
    """In-memory span recorder: name, start, end, parent and op id.

    ``label`` tags the records of the current phase (a workload name, or
    ``wire/in-process`` for the wire workload's in-process replay).
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.records: list[dict[str, Any]] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = len(self.records)
        record = {
            "label": self.label,
            "op": self.op_id,
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
        }
        self.records.append(record)
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, label: str | None = None) -> dict[int, dict[str, float]]:
        """Per op of ``label`` (default: all): layer -> self time (s).

        A span's self time is its duration minus its children's.  The
        op's own self time is reported under ``"op"``: the part of the
        op no layer span covers.
        """
        child_time: dict[int, float] = {}
        for record in self.records:
            parent = record["parent"]
            if parent is not None:
                duration = record["end"] - record["start"]
                child_time[parent] = child_time.get(parent, 0.0) + duration
        per_op: dict[int, dict[str, float]] = {}
        for record in self.records:
            if label is not None and record["label"] != label:
                continue
            own = record["end"] - record["start"] - child_time.get(record["id"], 0.0)
            layers = per_op.setdefault(record["op"], {})
            layers[record["name"]] = layers.get(record["name"], 0.0) + own
        return per_op

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as sink:
            for record in self.records:
                sink.write(json.dumps(record) + "\n")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Phase:
    """What one closed-loop phase measured."""

    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    classes: dict[str, list[float]] = field(default_factory=dict)
    traced: list[bool] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def untraced_latencies(self) -> list[float]:
        return [t for t, traced in zip(self.latencies, self.traced) if not traced]

    def traced_latencies(self) -> list[float]:
        return [t for t, traced in zip(self.latencies, self.traced) if traced]


def closed_loop(
    op: Callable[[int, Callable], dict[str, float]],
    seconds: float,
    first_op: int = 0,
    tracer: Tracer | None = None,
) -> Phase:
    """Run ops back to back for ``seconds``; one client, no think time.

    Garbage is collected before the clock starts.  The loop stops at the
    first even op count past the deadline, so cold and hot ops stay
    paired.  A failing op is counted and the run goes on.  With a
    tracer, each block of :data:`TRACE_BLOCK` ops is traced or not by a
    fixed-seed coin, so the traced and untraced halves see the same
    drift and the same mix of inputs, for the paired overhead figure.
    """
    coin = random.Random(first_op)
    gc.collect()
    phase = Phase()
    i = first_op
    start = time.perf_counter()
    deadline = start + seconds
    traced = False
    while True:
        if (i - first_op) % TRACE_BLOCK == 0:
            traced = tracer is not None and coin.random() < 0.5
        if traced:
            tracer.op_id = i
            span = tracer.span
        else:
            span = null_span
        t0 = time.perf_counter()
        split = _attempt(op, i, span)
        t1 = time.perf_counter()
        if split is None:
            phase.failed += 1
            split = {}
        phase.latencies.append(t1 - t0)
        phase.traced.append(traced)
        if not traced:
            for name, seconds_spent in split.items():
                phase.classes.setdefault(name, []).append(seconds_spent)
        i += 1
        phase.attempted += 1
        if t1 >= deadline and phase.attempted % 2 == 0:
            break
    phase.wall_s = time.perf_counter() - start
    return phase


def _attempt(op: Callable, i: int, span: Callable) -> dict[str, float] | None:
    """One op inside its ``op`` span; ``None`` (reported) if it failed."""
    try:
        with span("op"):
            return op(i, span)
    except Exception as error:  # counted as a failed op; the run goes on
        print(f"op {i} failed: {error!r}", file=sys.stderr)
        return None


def warm_up(op: Callable[[int, Callable], dict[str, float]], count: int) -> int:
    """Run and discard ops ``0..count-1``; returns how many failed."""
    return sum(_attempt(op, i, null_span) is None for i in range(count))


class Workload:
    """Defaults of the workload surface (see the module docstring)."""

    name = "?"
    warmup_ops = 4

    #: Warm-up ops that failed their check (counted as failed ops).
    warmup_failed = 0

    def setup(self) -> None:
        self.warmup_failed = warm_up(self.op, self.warmup_ops)

    def op(self, i: int, span) -> dict[str, float]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def close(self) -> None:
        pass

    def traced(self, seconds: float, tracer: Tracer) -> tuple[Phase, dict[str, float]]:
        """A traced phase and its per-layer metrics."""
        phase = closed_loop(self.op, seconds, self.warmup_ops, tracer)
        return phase, self.layer_metrics(tracer)

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        raise NotImplementedError


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def layer_table(trace: Tracer, label: str) -> tuple[str, float, float]:
    """Self-time table of one label's traced ops.

    Also returns the per-op median unattributed time (ms) — the op
    span's own self time, which no layer span covers — and the share of
    op time the layer spans cover (%), pooled over the ops.
    """
    per_op = trace.self_times(label)
    totals: dict[str, list[float]] = {}
    op_total = 0.0
    unattributed = []
    for layers in per_op.values():
        op_time = sum(layers.values())
        op_total += op_time
        unattributed.append(layers.get("op", 0.0))
        for name, seconds in layers.items():
            totals.setdefault(name, []).append(seconds)
    lines = [f"-- {label}: per-layer self time over {len(per_op)} traced ops"]
    lines.append(f"{'layer':<28}{'p50 ms':>10}{'total ms':>12}{'share %':>10}")
    for name, values in sorted(totals.items(), key=lambda kv: -sum(kv[1])):
        row = "(unattributed)" if name == "op" else name
        lines.append(
            f"{row:<28}{1000 * median(values):>10.3f}"
            f"{1000 * sum(values):>12.1f}"
            f"{100 * sum(values) / op_total if op_total else 0.0:>10.2f}"
        )
    coverage = 100.0 * (1 - sum(unattributed) / op_total) if op_total else 0.0
    lines.append(f"span coverage of op time: {coverage:.2f}%")
    return "\n".join(lines), 1000 * median(unattributed), coverage


def layer_ms(trace: Tracer, name: str) -> float:
    """Per-op median self time (ms) of one layer, over ops that entered it."""
    values = [
        layers[name] for layers in trace.self_times().values() if name in layers
    ]
    return 1000 * median(values)


def overhead_pct(phase: Phase) -> float:
    """Traced vs untraced p50 of the interleaved blocks, in percent."""
    untraced = median(phase.untraced_latencies())
    return 100 * (median(phase.traced_latencies()) / untraced - 1) if untraced else 0.0


def latency_stats(phase: Phase) -> dict[str, float]:
    """Throughput and latency percentiles of a phase's untraced ops.

    ``ops_per_s`` is untraced ops over the time spent in them; in an
    untraced run that is completed ops over the timed wall time, less
    the loop's microseconds of bookkeeping per op.
    """
    untraced = phase.untraced_latencies()
    values = {
        "ops_per_s": len(untraced) / sum(untraced),
        "latency_p50_ms": 1000 * median(untraced),
        "latency_p90_ms": 1000 * percentile(untraced, 90),
        "latency_samples": len(untraced),
    }
    for name in ("cold", "hot"):
        # Empty only when every op of the class failed (reported 0).
        samples = phase.classes.get(name) or [0.0]
        values[f"{name}_p50_ms"] = 1000 * median(samples)
        values[f"{name}_p90_ms"] = 1000 * percentile(samples, 90)
        values[f"{name}_samples"] = len(phase.classes.get(name, []))
    return values
