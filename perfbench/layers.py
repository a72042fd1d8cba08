"""The per-layer metrics: definitions, predictions, and their computation.

Each entry of :data:`PER_LAYER` names a metric, its unit, which way is
better, and the end-to-end metric and workload it is predicted to move;
on the other workloads the prediction is no change. ``BENCHMARK.json``
lists the same names, units and directions (a test keeps them equal).

Times named ``*_s`` are the total seconds spent inside the layer's
wrapped calls during one pass, children included, summed over the
processes that ran them; ``simulator.self_s`` excludes the wrapped calls
the simulator makes, and ``parallel.cpu_s`` is the CPU time of the pool
workers. ``*_ms`` figures are medians per call (per request for
``engine.self_ms`` and ``cache.key_ms``). ``parallel.utilization`` is
shard busy time over (workers x map wall time). Counts are per pass; all
of them depend only on the requests, so they must repeat exactly from
pass to pass and from run to run with the same seed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

SPAN_FIELDS = ("id", "parent", "layer", "request", "start", "end", "self_s")

# (name, unit, better, predicted end-to-end metric and workload)
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("engine.self_ms", "ms", "lower", "req_p50_ms on cached-mix"),
    ("cache.hit_ratio", "ratio", "higher", "wall_s and req_p90_ms on cached-mix"),
    ("cache.hits", "count", "higher", "wall_s and req_p90_ms on cached-mix"),
    ("cache.gets", "count", "lower", "wall_s and req_p90_ms on cached-mix"),
    ("cache.get_ms", "ms", "lower", "req_p50_ms on cached-mix"),
    ("cache.put_ms", "ms", "lower", "wall_s and req_p90_ms on cached-mix"),
    ("cache.key_ms", "ms", "lower", "req_p50_ms on cached-mix"),
    ("cache.bytes_written", "bytes", "lower", "wall_s on cached-mix"),
    ("parallel.maps", "count", "lower", "wall_s on sweep and bounds"),
    ("parallel.shards", "count", "lower", "wall_s on sweep and bounds"),
    ("parallel.map_s", "s", "lower", "wall_s on sweep and bounds"),
    ("parallel.utilization", "ratio", "higher", "wall_s on sweep and bounds"),
    ("parallel.cpu_s", "s", "lower", "wall_s on sweep and bounds"),
    ("parallel.child_peak_rss_mb", "MB", "lower", "pool-worker memory (outside peak_rss_mb) on sweep and bounds"),
    ("resilience.trials", "count", "lower", "wall_s on sweep"),
    ("resilience.filter_calls", "count", "lower", "wall_s on sweep"),
    ("resilience.filter_s", "s", "lower", "wall_s on sweep"),
    ("net.deliver_calls", "count", "lower", "wall_s on sweep"),
    ("net.deliver_s", "s", "lower", "wall_s on sweep"),
    ("simulator.runs", "count", "lower", "wall_s and req_p50_ms on clean-run; wall_s on sweep"),
    ("simulator.rounds", "count", "lower", "wall_s and req_p50_ms on clean-run; wall_s on sweep"),
    ("simulator.deliveries", "count", "lower", "wall_s and req_p50_ms on clean-run; wall_s on sweep"),
    ("simulator.self_s", "s", "lower", "wall_s and req_p50_ms on clean-run; wall_s on sweep"),
    ("algorithms.calls", "count", "lower", "wall_s on clean-run and sweep"),
    ("algorithms.s", "s", "lower", "wall_s on clean-run and sweep"),
    ("costs.record_calls", "count", "lower", "wall_s on clean-run"),
    ("costs.record_s", "s", "lower", "wall_s on clean-run"),
    ("lowerbounds.search_s", "s", "lower", "wall_s on bounds"),
    ("lowerbounds.assignments", "count", "lower", "wall_s on bounds"),
    ("information.estimate_s", "s", "lower", "wall_s on bounds"),
    ("information.samples", "count", "lower", "wall_s on bounds"),
    ("partitions.build_s", "s", "lower", "wall_s and peak_rss_mb on bounds"),
    ("partitions.joins", "count", "lower", "wall_s and peak_rss_mb on bounds"),
    ("partitions.rows", "count", "lower", "wall_s and peak_rss_mb on bounds"),
    ("kernels.rank_s", "s", "lower", "wall_s and peak_rss_mb on bounds"),
    ("kernels.rank_calls", "count", "lower", "wall_s and peak_rss_mb on bounds"),
    ("kernels.cells", "count", "lower", "wall_s and peak_rss_mb on bounds"),
    ("trace.overhead", "ratio", "lower", "none: traced wall_s over untraced wall_s"),
)

#: Counts that depend only on the requests, never on timing.
DETERMINISTIC = tuple(name for name, unit, _b, _p in PER_LAYER if unit == "count")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def pass_metrics(tracer, extra: Dict[str, float]):
    """``(metrics, counters)`` for the traced pass that just ended."""
    stats = tracer.stats
    totals = tracer.totals

    def calls(layer: str) -> int:
        return int(stats.get(layer, (0, 0.0, 0.0))[0])

    def total(layer: str) -> float:
        return stats.get(layer, (0, 0.0, 0.0))[1]

    engine_self, gets, puts = [], [], []
    key_by_request: Dict[int, float] = defaultdict(float)
    for _id, _parent, layer, request, start, end, own in tracer.spans:
        if layer == "engine.execute":
            engine_self.append(own * 1e3)
        elif layer == "cache.get":
            gets.append((end - start) * 1e3)
        elif layer == "cache.put":
            puts.append((end - start) * 1e3)
        elif layer == "cache.key":
            key_by_request[request] += (end - start) * 1e3
    capacity = totals.get("parallel.capacity_s", 0.0)
    metrics = {
        "engine.self_ms": _median(engine_self),
        "cache.hit_ratio": totals.get("cache.hits", 0) / calls("cache.get") if calls("cache.get") else 0.0,
        "cache.hits": int(totals.get("cache.hits", 0)),
        "cache.gets": calls("cache.get"),
        "cache.get_ms": _median(gets),
        "cache.put_ms": _median(puts),
        "cache.key_ms": _median(list(key_by_request.values())),
        "cache.bytes_written": extra["cache.bytes_written"],
        "parallel.maps": calls("parallel.map"),
        "parallel.shards": int(totals.get("parallel.shards", 0)),
        "parallel.map_s": total("parallel.map"),
        "parallel.utilization": totals.get("parallel.busy_s", 0.0) / capacity if capacity else 0.0,
        "parallel.cpu_s": extra["parallel.cpu_s"],
        "parallel.child_peak_rss_mb": tracer.child_rss_kb / 1024.0,
        "resilience.trials": int(totals.get("resilience.trials", 0)),
        "resilience.filter_calls": calls("resilience.filter"),
        "resilience.filter_s": total("resilience.filter"),
        "net.deliver_calls": calls("net.deliver"),
        "net.deliver_s": total("net.deliver"),
        "simulator.runs": calls("simulator.run"),
        "simulator.rounds": int(totals.get("simulator.rounds", 0)),
        "simulator.deliveries": int(totals.get("simulator.deliveries", 0)),
        "simulator.self_s": stats.get("simulator.run", (0, 0.0, 0.0))[2],
        "algorithms.calls": calls("algorithms.call"),
        "algorithms.s": total("algorithms.call"),
        "costs.record_calls": calls("costs.record"),
        "costs.record_s": total("costs.record"),
        "lowerbounds.search_s": total("lowerbounds.search"),
        "lowerbounds.assignments": int(totals.get("lowerbounds.assignments", 0)),
        "information.estimate_s": total("information.estimate"),
        "information.samples": int(totals.get("information.samples", 0)),
        "partitions.build_s": total("partitions.build"),
        "partitions.joins": calls("partitions.join"),
        "partitions.rows": int(totals.get("partitions.rows", 0)),
        "kernels.rank_s": total("kernels.rank"),
        "kernels.rank_calls": calls("kernels.rank"),
        "kernels.cells": int(totals.get("kernels.cells", 0)),
    }
    counters = {name: metrics[name] for name in DETERMINISTIC}
    return metrics, counters


def summarize(per_pass: List[Dict[str, float]], overhead: float):
    """The printed per-layer metrics: the median over traced passes."""
    out = {}
    for name, unit, _better, _predicts in PER_LAYER:
        if name == "trace.overhead":
            value = overhead
        else:
            value = statistics.median(p[name] for p in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out
