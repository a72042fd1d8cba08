"""Benchmark of the library seam ``repro.engine.execute(EngineRequest)``.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

One client sends requests in a closed loop: each request is sent only
after the previous one returned. A *pass* sends the workload's whole
request stream (see ``workloads.py``); passes repeat until ``--seconds``
of timed passes have run (at least two). Set-up -- importing the
engine and one warm-up request per kind the workload uses -- is timed
apart from the passes, in this process and again in fresh processes, and
reported as the median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass and then traced passes, and prints the per-layer metrics
(see ``layers.py``). Outputs are checked after each pass, outside the
timed window. The last line of standard output is the result object; the
line before it carries provenance, and the full record (per-pass
figures, counters, spans in traced runs) is written under
``.perfbench-out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import layers
import workloads
from workloads import Request, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MIN_PASSES = 2
#: Set-up samples per run: this process plus fresh probe processes.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


# ----------------------------------------------------------------------
# executing requests
# ----------------------------------------------------------------------
def _execute(request: Request, cache=None):
    # Looked up on every call so a traced pass goes through the wrapper.
    from repro.engine import core
    from repro.engine.request import EngineRequest

    kind, params, workers = request
    return core.execute(EngineRequest(kind, params, workers=workers), cache=cache)


def _fresh_cache():
    from repro.cache import ResultCache

    OUT.mkdir(exist_ok=True)
    return ResultCache(tempfile.mkdtemp(prefix="cache-", dir=OUT))


def set_up(workload: Workload) -> float:
    """Import the engine and run one warm-up request per kind; seconds."""
    start = time.perf_counter()
    from repro.engine import core  # noqa: F401  (the import is timed)

    cache = _fresh_cache() if workload.cached else None
    try:
        for request in workload.warmups:
            _execute(request, cache)
    finally:
        if cache is not None:
            shutil.rmtree(cache.root, ignore_errors=True)
    return time.perf_counter() - start


def _probe_setup(args) -> float:
    """Set-up time measured in a fresh process."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload", args.workload,
        "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    wall_s: float
    latencies_s: List[float]
    failures: List[str] = field(default_factory=list)
    layers: Optional[Dict[str, float]] = None
    counters: Optional[Dict[str, int]] = None
    spans: List[tuple] = field(default_factory=list)


Execute = Callable[[Request, Any], Any]


def run_pass(
    workload: Workload,
    checker: workloads.Checker,
    execute: Execute = _execute,
    tracer=None,
) -> PassResult:
    """Send the stream once, timing each request; then check outputs."""
    cache = _fresh_cache() if workload.cached else None
    outcomes: List[Any] = []
    latencies: List[float] = []
    children_cpu = _children_cpu_s()
    if tracer is not None:
        tracer.reset()
    pass_start = time.perf_counter()
    for index, request in enumerate(workload.stream):
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = execute(request, cache)
            else:
                outcome = _traced_execute(tracer, index, request, cache, execute)
        except Exception as exc:  # a failed request is counted, not fatal
            outcome = exc
        latencies.append(time.perf_counter() - start)
        outcomes.append(outcome)
    wall = time.perf_counter() - pass_start

    result = PassResult(wall, latencies)
    if tracer is not None:
        extra = {
            "parallel.cpu_s": _children_cpu_s() - children_cpu,
            "cache.bytes_written": cache.stats()["bytes"] if cache is not None else 0,
        }
        result.layers, result.counters = layers.pass_metrics(tracer, extra)
        result.spans = list(tracer.spans)
    if cache is not None:
        shutil.rmtree(cache.root, ignore_errors=True)
    result.failures = check_pass(workload, checker, outcomes)
    return result


def _traced_execute(tracer, index, request, cache, execute):
    from repro.obs.spans import SpanRecorder, use_recorder

    tracer.request_id = index + 1
    recorder = SpanRecorder()
    with use_recorder(recorder):
        outcome = execute(request, cache)
    tracer.harvest(recorder)
    return outcome


def check_pass(workload: Workload, checker: workloads.Checker, outcomes) -> List[str]:
    """One problem string per request that raised or returned a wrong output."""
    failures: List[str] = []
    fresh: Dict[str, str] = {}
    for request, outcome in zip(workload.stream, outcomes):
        if isinstance(outcome, Exception):
            failures.append(f"{request[0]} raised {outcome!r}")
            continue
        payload_digest = workloads.digest(outcome.payload)
        if workload.cached and outcome.cached:
            if fresh.get(outcome.key) != payload_digest:
                failures.append(f"{request[0]} cache hit differs from its fresh payload")
            continue
        if outcome.key is not None:
            fresh[outcome.key] = payload_digest
        problem = checker.check(request, outcome.payload)
        if problem is not None:
            failures.append(problem)
    return failures


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _enough(passes: List[PassResult], seconds: float, minimum: int) -> bool:
    return len(passes) >= minimum and sum(p.wall_s for p in passes) >= seconds


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(passes: List[PassResult], setup_samples: List[float], rss_mb: float):
    latencies_ms = [lat * 1e3 for p in passes for lat in p.latencies_s]
    attempted = len(latencies_ms)
    failed = sum(len(p.failures) for p in passes)
    if len(latencies_ms) > 1:
        p90 = statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]
    else:
        p90 = latencies_ms[0]
    metrics = {
        "wall_s": _metric(statistics.median(p.wall_s for p in passes), "s"),
        "req_p50_ms": _metric(statistics.median(latencies_ms), "ms"),
        "req_p90_ms": _metric(p90, "ms"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "success_rate": _metric(1.0 - failed / attempted, "ratio"),
    }
    return attempted, failed, metrics


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _git_sha() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, workload: Workload, passes: int, attempted: int) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "requests": attempted,
        "requests_per_pass": len(workload.stream),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _reference(request: Request) -> Dict[str, Any]:
    """The serial (``workers=1``) payload of ``request``.

    ``sampling`` runs its serial path under a budget that cannot run
    out: that path sums in the sharded path's order, while the unbudgeted
    serial loop differs from it in the last digits of the information
    estimates.
    """
    from repro.engine import core
    from repro.engine.request import EngineOptions, EngineRequest
    from repro.resilience import Budget

    kind, params, _workers = request
    options = EngineOptions(budget=Budget()) if kind == "sampling" else None
    return core.execute(EngineRequest(kind, params, workers=1), options=options).payload


def benchmark(args) -> Dict[str, Any]:
    """Run one workload; returns the record whose summary is printed."""
    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    checker = workloads.Checker(_reference)
    setup_samples = [set_up(workload)]
    record: Dict[str, Any] = {}
    passes: List[PassResult] = []
    if not args.trace:
        while not _enough(passes, args.seconds, MIN_PASSES):
            passes.append(run_pass(workload, checker))
        rss_mb = _maxrss_mb()
        probes = 1 if args.tiny else SETUP_SAMPLES - 1
        setup_samples += [_probe_setup(args) for _ in range(probes)]
        attempted, failed, metrics = end_to_end(passes, setup_samples, rss_mb)
        record["setup_samples_s"] = setup_samples
        correct = failed == 0
    else:
        from tracer import Tracer

        baseline = run_pass(workload, checker)
        tracer = Tracer()
        tracer.install()
        try:
            while not _enough(passes, args.seconds, MIN_PASSES):
                passes.append(run_pass(workload, checker, tracer=tracer))
        finally:
            tracer.uninstall()
        attempted = len(baseline.latencies_s) + sum(len(p.latencies_s) for p in passes)
        failed = len(baseline.failures) + sum(len(p.failures) for p in passes)
        metrics = layers.summarize(
            [p.layers for p in passes],
            overhead=statistics.median(p.wall_s for p in passes) / baseline.wall_s,
        )
        counters_repeat = all(p.counters == passes[0].counters for p in passes)
        record["predictions"] = {name: predicts for name, _u, _b, predicts in layers.PER_LAYER}
        record["counters"] = passes[0].counters
        record["counters_repeat"] = counters_repeat
        record["spans"] = [
            dict(zip(layers.SPAN_FIELDS, span), **{"pass": number})
            for number, p in enumerate(passes, start=1)
            for span in p.spans
        ]
        correct = failed == 0 and counters_repeat
        passes = [baseline] + passes
    record["provenance"] = provenance(args, workload, len(passes), attempted)
    record["passes"] = [
        {
            "wall_s": p.wall_s,
            "latencies_ms": [lat * 1e3 for lat in p.latencies_s],
            "failures": p.failures,
        }
        for p in passes
    ]
    record["result"] = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small requests (the smoke tests)"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
        print(json.dumps({"setup_s": set_up(workload)}))
        return 0
    try:
        record = benchmark(args)
    except Exception:
        traceback.print_exc()
        return 1
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
