"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -p no:cacheprovider perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _tiny(workload: str, trace: int, seed: int = 3) -> dict:
    done = _bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _record(workload: str, trace: int, seed: int = 3) -> dict:
    path = run.OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _predicts in layers.PER_LAYER
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_emits_every_metric_with_its_unit(workload, trace):
    result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    provenance = _record(workload, trace)["provenance"]
    for key in ("nproc", "python", "numpy", "git_sha", "seed", "requests"):
        assert key in provenance
    assert provenance["requests"] == result["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_across_same_seed_runs(workload):
    _tiny(workload, 1, seed=5)
    first = _record(workload, 1, seed=5)
    _tiny(workload, 1, seed=5)
    second = _record(workload, 1, seed=5)
    assert first["counters_repeat"] and second["counters_repeat"]
    assert first["counters"] == second["counters"]
    assert any(first["counters"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_stream_is_a_pure_function_of_the_seed(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7).stream != workloads.build(workload, 8).stream


def test_building_requests_imports_nothing_from_the_program():
    code = (
        "import sys, workloads\n"
        "for name in workloads.WORKLOADS: workloads.build(name, 1)\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_cached_mix_misses_once_per_entry():
    stream = workloads.build("cached-mix", 1).stream
    distinct = {json.dumps([kind, params], sort_keys=True) for kind, params, _ in stream}
    assert len(stream) == 400
    assert len(distinct) == len(workloads.CACHED_SPACE)


# ----------------------------------------------------------------------
# planted wrong outputs raise the error rate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def program():
    sys.path.insert(0, str(run.SRC))
    return run


def _planted(execute, index, corrupt):
    calls = {"n": 0}

    def planted(request, cache):
        result = execute(request, cache)
        calls["n"] += 1
        if calls["n"] == index + 1:
            result = corrupt(result)
        return result

    return planted


def _success_rate(passes):
    _attempted, _failed, metrics = run.end_to_end(passes, [1.0], 1.0)
    return metrics["success_rate"]["value"]


def test_planted_wrong_decision_is_counted(program):
    workload = workloads.build("clean-run", 1, tiny=True)
    checker = workloads.Checker(run._reference)
    wrong = {"YES": "NO", "NO": "YES"}

    def corrupt(result):
        payload = dict(result.payload, decision=wrong[result.payload["decision"]])
        return replace(result, payload=payload)

    clean = run.run_pass(workload, checker)
    planted = run.run_pass(workload, checker, execute=_planted(run._execute, 1, corrupt))
    assert clean.failures == []
    assert len(planted.failures) == 1
    assert _success_rate([planted]) < 1.0 == _success_rate([clean])


def test_planted_wrong_rank_and_raised_request_are_counted(program):
    workload = workloads.build("bounds", 1, tiny=True)
    checker = workloads.Checker(run._reference)

    def corrupt(result):
        rows = [dict(row, rank=row["rank"] + 1) for row in result.payload["m_rows"]]
        return replace(result, payload=dict(result.payload, m_rows=rows))

    def broken(result):
        raise RuntimeError("planted")

    assert len(run.run_pass(workload, checker, execute=_planted(run._execute, 0, corrupt)).failures) == 1
    assert len(run.run_pass(workload, checker, execute=_planted(run._execute, 0, broken)).failures) == 1


def test_planted_wrong_cache_hit_is_counted(program):
    workload = workloads.build("cached-mix", 1, tiny=True)
    checker = workloads.Checker(run._reference)
    hits = {"n": 0}

    def corrupt_first_hit(request, cache):
        result = run._execute(request, cache)
        if result.cached:
            hits["n"] += 1
            if hits["n"] == 1:
                result = replace(result, payload=dict(result.payload, planted=True))
        return result

    assert run.run_pass(workload, checker).failures == []
    planted = run.run_pass(workload, checker, execute=corrupt_first_hit)
    assert hits["n"] > 1
    assert len(planted.failures) == 1
    assert "cache hit differs from its fresh payload" in planted.failures[0]


def test_exits_nonzero_without_the_program_sources():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)
