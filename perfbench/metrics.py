"""Metric names, units, and how each is computed from one round.

A *round* is one fixed batch of operations on a freshly built system
(see ``workloads.py``).  End-to-end metrics come from untraced rounds;
per-layer metrics from traced rounds, where the benchmark's wrappers
(``tracing.py``) record spans and the program's own counters are read
before and after the timed phase.  A run reports the median over its
rounds.  Per-layer metrics whose layer a workload does not exercise
read 0 there.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Iterable, Optional

#: (name, unit, better) — the end-to-end metrics every workload reports.
END_TO_END = (
    ("throughput", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("mem_kb_per_op", "kB", "lower"),
    ("setup_s", "s", "lower"),
)

#: (name, unit, better) — the per-layer metrics of a traced run; the README
#: says which end-to-end metric each should move, on which workload.
PER_LAYER = (
    ("core.actions_per_op", "count", "lower"),
    ("core.invoke_self_us", "us", "lower"),
    ("core.conflict_tests_per_op", "count", "lower"),
    ("core.conflict_test_us", "us", "lower"),
    ("core.case1_relief_per_op", "count", "higher"),
    ("core.case2_wait_per_op", "count", "lower"),
    ("core.toplevel_wait_per_op", "count", "lower"),
    ("core.relief_cache_hit_ratio", "ratio", "higher"),
    ("semantics.commute_probes_per_op", "count", "lower"),
    ("semantics.commute_cache_hit_ratio", "ratio", "higher"),
    ("txn.lock_blocks_per_op", "count", "lower"),
    ("txn.deadlocks", "count", "lower"),
    ("txn.subtxn_restarts", "count", "lower"),
    ("txn.history_discard_ms", "ms", "lower"),
    ("txn.lock_wait_ms", "ms", "lower"),
    ("runtime.steps_per_op", "count", "lower"),
    ("runtime.lock_acquire_us", "us", "lower"),
    ("runtime.lock_release_us", "us", "lower"),
    ("runtime.shard_contended_per_op", "count", "lower"),
    ("runtime.coordinations_per_op", "count", "lower"),
    ("storage.alloc_us", "us", "lower"),
    ("storage.wal_append_us", "us", "lower"),
    ("storage.fsyncs_per_op", "count", "lower"),
    ("storage.fsync_ms", "ms", "lower"),
    ("storage.wal_bytes_per_op", "B", "lower"),
    ("storage.bufferpool_hit_ratio", "ratio", "higher"),
    ("storage.writebacks_per_op", "count", "lower"),
    ("storage.disk_kb_per_op", "kB", "lower"),
    ("recovery.recover_ms", "ms", "lower"),
    ("recovery.records", "count", "lower"),
    ("recovery.boot_ms", "ms", "lower"),
    ("recovery.restart_s", "s", "lower"),
    ("server.admit_us", "us", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.service_ms", "ms", "lower"),
    ("wire.bytes_per_op", "B", "lower"),
    ("wire.roundtrip_ms", "ms", "lower"),
    ("cluster.route_ms", "ms", "lower"),
    ("cluster.hop_ms", "ms", "lower"),
    ("cluster.prepare_ms", "ms", "lower"),
    ("cluster.decide_ms", "ms", "lower"),
    ("cluster.decision_fanout_ms", "ms", "lower"),
    ("cluster.cross_shard_per_op", "count", "lower"),
    ("cluster.coordlog_kb", "kB", "lower"),
    ("trace.throughput", "1/s", "higher"),
)

UNITS = {name: unit for name, unit, __ in END_TO_END + PER_LAYER}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in 0..100)."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def summarize_spans(spans: Iterable[tuple], window: Optional[tuple[int, int]] = None) -> dict:
    """Fold span tuples (as recorded by ``tracing.Tracer``) into per-name
    totals and per-key fan-out intervals, keeping spans that start inside
    *window* (perf_counter ns, comparable across processes on Linux)."""
    names: dict[str, list[int]] = {}
    groups: dict[str, dict[str, list[int]]] = {}
    for __, name, __, key, start, end, active, self_ns in spans:
        if window is not None and not window[0] <= start <= window[1]:
            continue
        totals = names.setdefault(name, [0, 0, 0])
        totals[0] += 1
        totals[1] += active
        totals[2] += self_ns
        if key is not None:
            interval = groups.setdefault(name, {}).setdefault(str(key), [start, end])
            interval[0] = min(interval[0], start)
            interval[1] = max(interval[1], end)
    return {
        "names": names,
        "groups": {n: [e - s for s, e in by_key.values()] for n, by_key in groups.items()},
    }


def merge_summaries(parts: Iterable[dict]) -> dict:
    names: dict[str, list[int]] = {}
    groups: dict[str, list[int]] = {}
    for part in parts:
        for name, totals in part["names"].items():
            merged = names.setdefault(name, [0, 0, 0])
            for i in range(3):
                merged[i] += totals[i]
        for name, values in part["groups"].items():
            groups.setdefault(name, []).extend(values)
    return {"names": names, "groups": groups}


# ----------------------------------------------------------------------
# Per-layer metrics of one round
# ----------------------------------------------------------------------
def layer_metrics(
    ops: int,
    counters: dict[str, float],
    hists: dict[str, tuple[float, int]],
    spans: dict,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric for one traced round.

    *counters* are the program's counter deltas over the timed phase,
    *hists* its histogram (sum, count) deltas, *spans* a
    :func:`summarize_spans` result and *extra* the values the workload
    measured itself (wire bytes, disk use, restart times, ...).
    """
    c = lambda name: float(counters.get(name, 0))  # noqa: E731

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def ratio(hit: str, miss: str) -> float:
        total = c(hit) + c(miss)
        return c(hit) / total if total else 0.0

    def span_mean(name: str, scale: float, field: int = 1) -> float:
        totals = spans["names"].get(name)
        if not totals or not totals[0]:
            return 0.0
        return totals[field] / totals[0] / scale

    def group_mean_ms(*names: str) -> float:
        values = [v for n in names for v in spans["groups"].get(n, [])]
        return statistics.fmean(values) / 1e6 if values else 0.0

    block_sum, block_count = hists.get("thread.block_time", (0.0, 0))
    out = {
        "core.actions_per_op": per_op(c("kernel.actions")),
        "core.invoke_self_us": span_mean("core.invoke", 1e3, field=2),
        "core.conflict_tests_per_op": per_op(c("lock.conflict_tests")),
        "core.conflict_test_us": span_mean("core.test_conflict", 1e3),
        "core.case1_relief_per_op": per_op(c("conflict.case1_relief")),
        "core.case2_wait_per_op": per_op(c("conflict.case2_wait")),
        "core.toplevel_wait_per_op": per_op(c("conflict.toplevel_wait")),
        "core.relief_cache_hit_ratio": ratio("cache.relief_hits", "cache.relief_misses"),
        "semantics.commute_probes_per_op": per_op(
            c("cache.commute_hits") + c("cache.commute_misses") + c("cache.commute_bypasses")
        ),
        "semantics.commute_cache_hit_ratio": ratio("cache.commute_hits", "cache.commute_misses"),
        "txn.lock_blocks_per_op": per_op(c("lock.blocks")),
        "txn.deadlocks": c("kernel.deadlocks"),
        "txn.subtxn_restarts": c("kernel.subtxn_restarts"),
        "txn.history_discard_ms": span_mean("txn.history_discard", 1e6),
        "txn.lock_wait_ms": block_sum / block_count * 1e3 if block_count else 0.0,
        "runtime.steps_per_op": per_op(c("thread.steps")),
        "runtime.lock_acquire_us": span_mean("runtime.try_acquire", 1e3),
        "runtime.lock_release_us": span_mean("runtime.release_tree", 1e3),
        "runtime.shard_contended_per_op": per_op(c("shard.contended")),
        "runtime.coordinations_per_op": per_op(c("shard.coordinations")),
        "storage.alloc_us": span_mean("storage.allocate", 1e3),
        "storage.wal_append_us": span_mean("storage.wal_append", 1e3),
        "storage.fsyncs_per_op": per_op(c("wal.group_commit.syncs")),
        "storage.fsync_ms": span_mean("storage.wal_sync", 1e6),
        "storage.wal_bytes_per_op": per_op(c("wal.bytes_written")),
        "storage.bufferpool_hit_ratio": ratio("bufferpool.hits", "bufferpool.misses"),
        "storage.writebacks_per_op": per_op(c("bufferpool.writebacks")),
        "recovery.recover_ms": span_mean("recovery.recover", 1e6),
        "server.admit_us": span_mean("server.admit", 1e3),
        "cluster.route_ms": span_mean("cluster.route", 1e6),
        "cluster.hop_ms": span_mean("cluster.link.shard-submit", 1e6),
        "cluster.prepare_ms": group_mean_ms("cluster.link.2pc-prepare"),
        "cluster.decide_ms": span_mean("cluster.decide", 1e6),
        "cluster.decision_fanout_ms": group_mean_ms(
            "cluster.link.2pc-commit", "cluster.link.2pc-abort"
        ),
        "cluster.cross_shard_per_op": per_op(c("cluster.cross_shard")),
    }
    for name, __, __ in PER_LAYER:
        out.setdefault(name, float(extra.get(name, 0.0)))
    return out


# ----------------------------------------------------------------------
# Aggregation over rounds
# ----------------------------------------------------------------------
def end_to_end(rounds: list[dict[str, Any]]) -> dict[str, float]:
    """End-to-end metrics of a run: medians over its rounds.  Each round
    has at least 600 operations, so its 95th percentile has at least 30
    samples beyond it."""
    latencies = [sorted(r["latencies_ms"]) for r in rounds]
    return {
        "throughput": statistics.median(r["ok"] / r["timed_s"] for r in rounds),
        "latency_p50_ms": statistics.median(percentile(v, 50) for v in latencies),
        "latency_p95_ms": statistics.median(percentile(v, 95) for v in latencies),
        "cpu_ms_per_op": statistics.median(r["cpu_s"] * 1e3 / r["attempted"] for r in rounds),
        "mem_kb_per_op": statistics.median(r["mem_kb"] / r["attempted"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
    }


def per_layer(rounds: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of a traced run: medians over its rounds."""
    out = {
        name: statistics.median(r["layers"][name] for r in rounds)
        for name, __, __ in PER_LAYER
        if name != "trace.throughput"
    }
    out["trace.throughput"] = statistics.median(r["ok"] / r["timed_s"] for r in rounds)
    return out


def as_result(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
