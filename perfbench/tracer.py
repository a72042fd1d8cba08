"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions of each layer (module attributes
and class methods) for the duration of a traced pass and restores them
afterwards. Coarse layers record one span per call -- name, start, end,
parent span, request id and self time -- kept in memory and written out
when the run ends. Hot per-call layers (fault filter, delivery,
algorithm steps, cost ledger, partition joins) are only accumulated as
call count, total time and self time. A layer's self time is its
duration minus the time of the wrapped calls made inside it.

Work inside pool workers is collected through the executor's span
stitching: while a traced request runs, a ``repro.obs.spans`` recorder
is installed, so pooled maps capture each worker's span tree and graft
it under the parent's ``parallel.shard`` span. The worker-side task
wrapper resets the forked copy of the tracer, runs the task and adds one
``perfbench.worker`` node carrying that task's totals, which
:meth:`Tracer.harvest` folds back in.
"""

from __future__ import annotations

import resource
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The tracer whose wrappers are installed. Pool workers are forked, so
#: the worker-side task wrapper finds its copy here.
_ACTIVE: Optional["Tracer"] = None

WORKER_NODE = "perfbench.worker"

Post = Callable[[Dict[str, float], tuple, dict, Any, float], None]


def _count_hit(totals, args, kwargs, result, elapsed):
    if result is not None:
        totals["cache.hits"] = totals.get("cache.hits", 0) + 1


def _count_map(totals, args, kwargs, result, elapsed):
    executor = args[0]
    payloads = args[2] if len(args) > 2 else kwargs["payloads"]
    shards = len(payloads)
    totals["parallel.shards"] = totals.get("parallel.shards", 0) + shards
    capacity = min(executor.workers, max(1, shards)) * elapsed
    totals["parallel.capacity_s"] = totals.get("parallel.capacity_s", 0.0) + capacity


def _count_rounds(totals, args, kwargs, result, elapsed):
    instance = args[1] if len(args) > 1 else kwargs["instance"]
    rounds = result.rounds_executed
    n = instance.n
    totals["simulator.rounds"] = totals.get("simulator.rounds", 0) + rounds
    totals["simulator.deliveries"] = (
        totals.get("simulator.deliveries", 0) + n * (n - 1) * rounds
    )


def _count_trials(totals, args, kwargs, result, elapsed):
    # _sweep_cell(simulator, factory, rounds, n, kt, kind, rate, trials, ...)
    trials = args[7] if len(args) > 7 else kwargs["trials"]
    totals["resilience.trials"] = totals.get("resilience.trials", 0) + int(trials)


def _count_assignments(totals, args, kwargs, result, elapsed):
    totals["lowerbounds.assignments"] = (
        totals.get("lowerbounds.assignments", 0) + result.class_size
    )


def _count_samples(totals, args, kwargs, result, elapsed):
    totals["information.samples"] = totals.get("information.samples", 0) + result.samples


def _count_rows(totals, args, kwargs, result, elapsed):
    totals["partitions.rows"] = totals.get("partitions.rows", 0) + len(result[1])


def _count_cells(totals, args, kwargs, result, elapsed):
    matrix = args[0] if args else kwargs["matrix"]
    cells = len(matrix) * (len(matrix[0]) if len(matrix) else 0)
    totals["kernels.cells"] = totals.get("kernels.cells", 0) + cells


def _targets() -> List[Tuple[Any, str, str, bool, Optional[Post]]]:
    """``(owner, attribute, layer, hot, post)`` for every wrapped call."""
    import repro.engine.core as engine_core
    from repro.cache import keys as cache_keys
    from repro.cache.store import ResultCache
    from repro.core.algorithm import NodeAlgorithm
    from repro.core.simulator import Simulator
    from repro.costs.ledger import CostLedger
    from repro.information import sampling
    from repro.lowerbounds import exhaustive
    from repro.net.channel import NetworkManager
    from repro.parallel.executor import ParallelExecutor
    from repro.partitions import linalg, matrices
    from repro.resilience import harness
    from repro.resilience.faults import FaultRun

    targets: List[Tuple[Any, str, str, bool, Optional[Post]]] = [
        (engine_core, "execute", "engine.execute", False, None),
        (cache_keys, "request_key", "cache.key", False, None),
        (cache_keys, "kind_fingerprint", "cache.key", False, None),
        (ResultCache, "get", "cache.get", False, _count_hit),
        (ResultCache, "put", "cache.put", False, None),
        (ParallelExecutor, "map", "parallel.map", False, _count_map),
        (Simulator, "run", "simulator.run", False, _count_rounds),
        (harness, "_sweep_cell", "resilience.cell", False, _count_trials),
        (FaultRun, "filter_delivery", "resilience.filter", True, None),
        (NetworkManager, "deliver", "net.deliver", True, None),
        (CostLedger, "record", "costs.record", True, None),
        (exhaustive, "universal_bound_id_oblivious", "lowerbounds.search", False, _count_assignments),
        (sampling, "estimate_protocol_information", "information.estimate", False, _count_samples),
        (matrices, "build_m_matrix", "partitions.build", False, _count_rows),
        (matrices, "build_e_matrix", "partitions.build", False, _count_rows),
        (matrices, "joins_to_top", "partitions.join", True, None),
        (linalg, "rank_mod_p", "kernels.rank", False, _count_cells),
        (linalg, "rank_bareiss", "kernels.rank", False, _count_cells),
    ]
    pending = list(NodeAlgorithm.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method in ("broadcast", "receive"):
            if method in cls.__dict__:
                targets.append((cls, method, "algorithms.call", True, None))
    return targets


class Tracer:
    """Wraps the layers' public calls and accumulates what they do.

    ``stats[layer]`` is ``[calls, total_seconds, self_seconds]``;
    ``totals`` holds the counters the post hooks derive from arguments
    and results; ``spans`` holds one tuple per coarse call:
    ``(span_id, parent_id, layer, request_id, start, end, self_seconds)``.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.totals: Dict[str, float] = {}
        self.spans: List[Tuple[int, int, str, int, float, float, float]] = []
        self.request_id = 0
        self.child_rss_kb = 0
        self._stack: List[List[float]] = [[0.0]]
        self._current = 0
        self._next_id = 1
        self._saved: List[Tuple[Any, str, Any]] = []
        self._timed_task: Optional[Callable] = None

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        global _ACTIVE
        from repro.parallel import executor

        for owner, attr, layer, hot, post in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, hot, post))
        self._timed_task = executor._timed_task
        self._saved.append((executor, "_timed_task", self._timed_task))
        executor._timed_task = _worker_task
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    def _wrap(self, layer: str, fn: Callable, hot: bool, post: Optional[Post]) -> Callable:
        perf = time.perf_counter
        stack = self._stack
        stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
        totals = self.totals

        if hot:
            def hot_wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - frame[0]

            return hot_wrapper

        def wrapper(*args, **kwargs):
            parent = self._current
            span_id = self._next_id
            self._next_id += 1
            self._current = span_id
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                stack.pop()
                stack[-1][0] += elapsed
                own = elapsed - frame[0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += own
                self._current = parent
                self.spans.append((span_id, parent, layer, self.request_id, start, end, own))
            if post is not None:
                post(totals, args, kwargs, result, elapsed)
            return result

        return wrapper

    # -- accounting -----------------------------------------------------
    def reset(self) -> None:
        """Zero every accumulator in place (the wrappers hold references)."""
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        self.totals.clear()
        self.spans.clear()
        self.child_rss_kb = 0
        del self._stack[1:]
        self._stack[0][0] = 0.0
        self._current = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "stats": {layer: list(stat) for layer, stat in self.stats.items()},
            "totals": dict(self.totals),
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        for layer, (calls, total, own) in snapshot["stats"].items():
            stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += own
        for name, value in snapshot["totals"].items():
            self.totals[name] = self.totals.get(name, 0) + value

    def harvest(self, recorder) -> None:
        """Fold worker totals and shard busy time from a span recorder."""
        busy = 0.0
        for root in recorder.roots:
            for node in root.walk():
                if node.name == WORKER_NODE:
                    self.merge(node.attrs)
                    self.child_rss_kb = max(self.child_rss_kb, node.attrs["maxrss_kb"])
                elif node.name == "parallel.shard":
                    busy += node.attrs.get("worker_seconds", node.duration_seconds)
        self.totals["parallel.busy_s"] = self.totals.get("parallel.busy_s", 0.0) + busy


def _worker_task(fn, capture, payload):
    """Pool-side stand-in for the executor's task wrapper.

    Runs in a forked worker: resets the inherited tracer, runs the task
    through the original wrapper and appends this task's totals to the
    span roots the parent stitches under its ``parallel.shard`` span.
    """
    tracer = _ACTIVE
    tracer.reset()
    value, elapsed, roots = tracer._timed_task(fn, capture, payload)
    if roots is not None:
        attrs = tracer.snapshot()
        attrs["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        roots.append(
            {
                "name": WORKER_NODE,
                "attrs": attrs,
                "duration_seconds": elapsed,
                "children": [],
            }
        )
    return value, elapsed, roots
