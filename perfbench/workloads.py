"""Request streams, warm-ups and output checks for the four workloads.

A workload is a pure function of its seed: :func:`build` returns the
requests one pass sends (as plain ``(kind, params, workers)`` triples,
so generating them imports nothing from the program under test), the
warm-up requests that set-up runs, and whether the pass runs against a
fresh result cache. Each pass of a run sends the same stream, so every
pass does the same work and per-pass counters must repeat exactly.

The checks compare outputs with values the benchmark derives itself
(Bell numbers, perfect-matching counts, the planted YES/NO answer) or
with an independent serial computation of the same request; they run
outside every timed window.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

WORKLOADS = ("sweep", "clean-run", "bounds", "cached-mix")

#: ``(kind, params, workers)``: everything the program receives.
Request = Tuple[str, Dict[str, Any], int]

#: Pool size for the fan-out workloads (the benchmark host has 2 CPUs).
POOL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    stream: Tuple[Request, ...]
    warmups: Tuple[Request, ...]
    cached: bool = False


def digest(payload: Any) -> str:
    """SHA-256 of a payload's sorted-key JSON form (the benchmark's own)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _first_of_each_kind(stream: Tuple[Request, ...]) -> Tuple[Request, ...]:
    seen: Dict[str, Request] = {}
    for request in stream:
        seen.setdefault(request[0], request)
    return tuple(seen.values())


# ----------------------------------------------------------------------
# sweep: the default fault-sweep grid, fanned out over the pool
# ----------------------------------------------------------------------
def _sweep(rng: random.Random, tiny: bool) -> Workload:
    seed = rng.randrange(1 << 20)
    params: Dict[str, Any] = {"seed": seed}
    if tiny:
        params.update(
            algorithms=["neighbor_exchange", "boruvka"],
            kinds=["bit_flip", "crash"],
            rates=[0.0, 0.1],
            n=6,
            trials=2,
        )
    # Set-up warms the same grid at one trial per cell: every algorithm,
    # fault kind and the pool start once, for a tenth of a pass.
    warm = dict(params, trials=1)
    return Workload(
        stream=(("fault-sweep", params, POOL_WORKERS),),
        warmups=(("fault-sweep", warm, POOL_WORKERS),),
    )


# ----------------------------------------------------------------------
# clean-run: large-n simulator runs, no faults, serial
# ----------------------------------------------------------------------
def _clean_run(rng: random.Random, tiny: bool) -> Workload:
    n = 16 if tiny else 256
    count = 4 if tiny else 12
    # Each algorithm meets each family equally often; the seed orders
    # the families and draws splits and coins, so every seed does the
    # same amount of work.
    families = ["one_cycle", "two_cycle"] * (count // 4)
    stream: List[Request] = []
    per_algorithm = {
        algorithm: rng.sample(families, len(families))
        for algorithm in ("neighbor_exchange", "boruvka")
    }
    for i in range(count):
        algorithm = ("neighbor_exchange", "boruvka")[i % 2]
        family = per_algorithm[algorithm][i // 2]
        params: Dict[str, Any] = {
            "algorithm": algorithm,
            "n": n,
            "instance": family,
            "coin_seed": f"{rng.getrandbits(32):08x}",
        }
        if family == "two_cycle":
            params["split"] = rng.randint(3, n - 3)
        stream.append(("run", params, 1))
    stream_t = tuple(stream)
    return Workload(stream=stream_t, warmups=_first_of_each_kind(stream_t))


# ----------------------------------------------------------------------
# bounds: the cold lower-bound engines at realistic sizes
# ----------------------------------------------------------------------
def _bounds(rng: random.Random, tiny: bool) -> Workload:
    ranks = {"m_ns": [3, 4], "e_ns": [4]} if tiny else {"m_ns": [4, 5, 6, 7], "e_ns": [4, 6, 8]}
    sampling = {
        "n": 4 if tiny else 8,
        "samples": 50 if tiny else 4000,
        "seed": rng.randrange(1 << 20),
    }
    stream = (
        ("ranks", ranks, POOL_WORKERS),
        ("exhaustive", {"n": 4 if tiny else 7}, POOL_WORKERS),
        ("sampling", sampling, POOL_WORKERS),
    )
    # Set-up warms each kind with a small request of it (M_4 and E_4,
    # 500 samples) and the exhaustive request itself, which is cheap.
    warmups = (
        ("ranks", {"m_ns": [ranks["m_ns"][0]], "e_ns": [4]}, POOL_WORKERS),
        stream[1],
        ("sampling", dict(sampling, samples=min(500, sampling["samples"])), POOL_WORKERS),
    )
    return Workload(stream=stream, warmups=warmups)


# ----------------------------------------------------------------------
# cached-mix: a Zipf mix over a fixed space, against a fresh cache
# ----------------------------------------------------------------------
def _sweep_item(algorithms, kinds, rates) -> Dict[str, Any]:
    return {
        "algorithms": list(algorithms),
        "kinds": list(kinds),
        "rates": list(rates),
        "n": 6,
        "trials": 4,
        "seed": 0,
    }


#: The fixed request space. The fault-sweep entries extend one another
#: (rates and algorithms added at the tail), so later grids reuse cells
#: cached by earlier ones.
CACHED_SPACE: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("run", {"algorithm": "neighbor_exchange", "n": 32, "instance": "one_cycle", "coin_seed": "c1"}),
    ("run", {"algorithm": "boruvka", "n": 32, "instance": "two_cycle", "split": 12, "coin_seed": "c2"}),
    ("run", {"algorithm": "flooding", "n": 16, "instance": "one_cycle", "coin_seed": "c3"}),
    ("run", {"algorithm": "sketch", "n": 16, "instance": "two_cycle", "split": 6, "coin_seed": "c4"}),
    ("run", {"algorithm": "neighbor_exchange", "n": 64, "instance": "two_cycle", "split": 20, "coin_seed": "c5"}),
    ("run", {"algorithm": "boruvka", "n": 64, "instance": "one_cycle", "coin_seed": "c6"}),
    ("run", {"algorithm": "flooding", "n": 32, "instance": "two_cycle", "split": 10, "coin_seed": "c7"}),
    ("exhaustive", {"n": 4}),
    ("exhaustive", {"n": 5}),
    ("exhaustive", {"n": 6}),
    ("sampling", {"n": 4, "samples": 200, "seed": 1}),
    ("sampling", {"n": 6, "samples": 300, "seed": 2}),
    ("sampling", {"n": 6, "samples": 300, "seed": 3}),
    ("sampling", {"n": 4, "samples": 200, "seed": 4, "eps": 0.1}),
    ("ranks", {"ns": [3, 4]}),
    ("ranks", {"m_ns": [5], "e_ns": [6]}),
    ("ranks", {"m_ns": [6], "e_ns": []}),
    ("fault-sweep", _sweep_item(["neighbor_exchange"], ["bit_flip"], [0.0, 0.1])),
    ("fault-sweep", _sweep_item(["neighbor_exchange"], ["bit_flip"], [0.0, 0.1, 0.2])),
    ("fault-sweep", _sweep_item(["neighbor_exchange", "flooding"], ["bit_flip", "erasure"], [0.0, 0.1])),
    ("fault-sweep", _sweep_item(["neighbor_exchange", "flooding"], ["bit_flip", "erasure"], [0.0, 0.1, 0.2])),
    ("fault-sweep", _sweep_item(["boruvka", "sketch"], ["crash"], [0.0, 0.05])),
    ("fault-sweep", _sweep_item(["boruvka", "sketch"], ["crash", "erasure"], [0.0, 0.05])),
    ("fault-sweep", _sweep_item(["boruvka"], ["crash"], [0.0, 0.05, 0.1])),
)

#: The subset the benchmark's smoke tests use.
CACHED_SPACE_TINY = tuple(CACHED_SPACE[i] for i in (0, 2, 7, 10, 14, 17, 18))

ZIPF_EXPONENT = 1.1


def _cached_mix(rng: random.Random, tiny: bool) -> Workload:
    space = CACHED_SPACE_TINY if tiny else CACHED_SPACE
    total = 40 if tiny else 400
    # Every entry is drawn once, so each pass misses exactly once per
    # entry; the remaining draws follow a Zipf law in space order. The
    # popularity order is fixed because hit cost grows with payload size:
    # a seeded order would let the seed pick the typical hit.
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(space))]
    draws = list(range(len(space)))
    draws += rng.choices(range(len(space)), weights, k=total - len(space))
    rng.shuffle(draws)
    stream = tuple((space[i][0], dict(space[i][1]), 1) for i in draws)
    return Workload(
        stream=stream, warmups=_first_of_each_kind(stream), cached=True
    )


_FACTORIES: Dict[str, Callable[[random.Random, bool], Workload]] = {
    "sweep": _sweep,
    "clean-run": _clean_run,
    "bounds": _bounds,
    "cached-mix": _cached_mix,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; equal seeds give equal workloads."""
    if name not in _FACTORIES:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return _FACTORIES[name](random.Random(f"{name}/{seed}"), tiny)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def bell(n: int) -> int:
    """The Bell number B_n, from the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def perfect_matchings(n: int) -> int:
    """(n-1)!! perfect matchings of n points (n even)."""
    count = 1
    for odd in range(n - 1, 0, -2):
        count *= odd
    return count


class Checker:
    """Checks one pass's outputs; returns a problem string or ``None``.

    ``reference`` computes the serial (``workers=1``) payload of a
    request; its results are memoized per request, so a run computes
    each reference once, after its timed passes.
    """

    def __init__(self, reference: Callable[[Request], Dict[str, Any]]):
        self._reference = reference
        self._references: Dict[str, Dict[str, Any]] = {}

    def _serial(self, request: Request) -> Dict[str, Any]:
        key = digest([request[0], request[1]])
        if key not in self._references:
            self._references[key] = self._reference(request)
        return self._references[key]

    def check(self, request: Request, payload: Mapping[str, Any]) -> Optional[str]:
        kind, params, workers = request
        if kind == "ranks":
            return _check_ranks(params, payload)
        if kind == "run":
            return _check_run(params, payload)
        if kind == "fault-sweep":
            return _check_sweep(payload)
        if kind in ("exhaustive", "sampling") and workers > 1:
            if dict(payload) != self._serial(request):
                return f"{kind} payload differs from the serial payload"
        return None


def _check_ranks(params: Mapping[str, Any], payload: Mapping[str, Any]) -> Optional[str]:
    if params.get("ns") is not None:
        rows = payload.get("rows", [])
        if [row.get("n") for row in rows] != list(params["ns"]):
            return "ranks rows do not match the requested sizes"
        for row in rows:
            n = row["n"]
            if row.get("m_rank") != bell(n):
                return f"rank(M_{n}) = {row.get('m_rank')}, expected B_{n} = {bell(n)}"
            if n % 2 == 0 and row.get("e_rank") != perfect_matchings(n):
                return f"rank(E_{n}) = {row.get('e_rank')}, expected {perfect_matchings(n)}"
        return None
    for family, sizes, expected in (
        ("m_rows", params.get("m_ns", ()), bell),
        ("e_rows", params.get("e_ns", ()), perfect_matchings),
    ):
        rows = payload.get(family, [])
        if [row.get("n") for row in rows] != list(sizes):
            return f"ranks {family} do not match the requested sizes"
        for row in rows:
            if row.get("rank") != expected(row["n"]):
                return (
                    f"{family} rank at n={row['n']} is {row.get('rank')}, "
                    f"expected {expected(row['n'])}"
                )
    return None


def _check_run(params: Mapping[str, Any], payload: Mapping[str, Any]) -> Optional[str]:
    if payload.get("all_finished") is not True:
        return "run did not finish"
    truth = "YES" if params.get("instance", "one_cycle") == "one_cycle" else "NO"
    if payload.get("decision") != truth:
        return f"run decided {payload.get('decision')!r} on a {truth} instance"
    return None


def _check_sweep(payload: Mapping[str, Any]) -> Optional[str]:
    from repro.resilience.harness import validate_fault_sweep_payload

    problems = validate_fault_sweep_payload(payload)
    if problems:
        return "fault-sweep payload invalid: " + problems[0]
    for curve in payload.get("curves", ()):
        for point in curve.get("points", ()):
            if point.get("rate") == 0.0 and point.get("correctness_rate") != 1.0:
                return (
                    f"{curve.get('algorithm')}/{curve.get('fault_kind')} is "
                    f"wrong without faults"
                )
    return None
