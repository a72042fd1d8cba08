"""Every module a cached kind executes is inside that kind's fingerprint.

A cache entry is keyed on a fingerprint of the source its result flows
through (``FINGERPRINT_PREFIXES`` in :mod:`repro.cache.keys`). A module
that runs but is not fingerprinted can change behavior without changing
the key, and a warm cache then serves the old result with no error.
These tests run each engine kind under ``sys.setprofile``, collect the
file of every ``repro`` function that executes, and require each one to
be fingerprinted or to be observation-only (listed below, with why).
"""

import os
import sys

import pytest

import repro
from repro.cache.keys import FINGERPRINT_PREFIXES, _iter_module_files
from repro.engine import EngineRequest, execute

#: Modules that run under every kind but only observe: they read or
#: record what the computation does and never feed a value back into a
#: payload. An edit to them cannot make a cached result stale.
OBSERVATION_ONLY = (
    "repro.obs.metrics",  # counters and histograms (get_registry)
    "repro.obs.spans",  # span timing tree (span / get_recorder)
    "repro.obs.stream",  # live event bus (get_bus)
    "repro.obs.trace",  # trace event sink
)

#: Small requests per kind, covering the branches the CLI reaches:
#: faulted and adversarial runs, populations, streamed ranks.
REQUESTS = {
    "run": [
        {"algorithm": "neighbor_exchange", "n": 8, "instance": "two_cycle", "split": 3},
        {
            "algorithm": "flooding",
            "n": 6,
            "faults": {"bit_flip_rate": 0.1, "seed": 3},
            "network": {"max_delay": 1, "duplicate_rate": 0.2, "reorder": True, "seed": 5},
        },
    ],
    "exhaustive": [{"n": 4}, {"n": 4, "population": True}],
    "sampling": [{"n": 4, "samples": 20, "seed": 1}],
    "ranks": [
        {"m_ns": [3, 4], "e_ns": [4]},
        {"ns": [4], "streamed": True, "block_rows": 3},
    ],
    "fault-sweep": [
        {
            "algorithms": ["neighbor_exchange", "flooding", "boruvka", "sketch"],
            "kinds": ["bit_flip", "erasure", "crash"],
            "rates": [0.0, 0.2],
            "n": 6,
            "trials": 1,
        }
    ],
}


def _files(prefixes):
    return {os.path.realpath(path) for p in prefixes for path in _iter_module_files(p)}


def _executed_repro_files(kind, params):
    """Source files of every repro function (not module body) that runs."""
    package = os.path.realpath(os.path.dirname(repro.__file__))
    seen = set()

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_name != "<module>":
            seen.add(frame.f_code.co_filename)

    request = EngineRequest(kind, params)
    execute(request)  # first run imports lazily loaded modules untraced
    sys.setprofile(profiler)
    try:
        execute(request)
    finally:
        sys.setprofile(None)
    return {
        path
        for path in map(os.path.realpath, seen)
        if path.startswith(package + os.sep)
    }


@pytest.mark.parametrize(
    "kind,params",
    [(kind, params) for kind, variants in REQUESTS.items() for params in variants],
)
def test_executed_modules_are_fingerprinted(kind, params):
    covered = _files(FINGERPRINT_PREFIXES[kind]) | _files(OBSERVATION_ONLY)
    executed = _executed_repro_files(kind, params)
    assert executed, "the profiler saw no repro code"
    missing = sorted(executed - covered)
    assert not missing, f"{kind} executes unfingerprinted modules: {missing}"


def test_every_cacheable_kind_is_probed():
    from repro.engine import CACHEABLE_KINDS

    assert set(REQUESTS) == set(CACHEABLE_KINDS)


def test_fault_sweep_covers_delivery_and_ledger():
    prefixes = FINGERPRINT_PREFIXES["fault-sweep"]
    assert "repro.net" in prefixes
    assert "repro.costs" in prefixes
