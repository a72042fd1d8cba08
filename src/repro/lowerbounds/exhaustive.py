"""Exhaustive universal lower bounds over a restricted algorithm class.

Theorems 3.1/3.5 quantify over *all* t-round algorithms; the engines in
:mod:`repro.lowerbounds.kt0_constant_error` measure the forced error of
any *given* algorithm. This module closes the remaining gap at miniature
scale: it enumerates an entire (restricted but natural) class of
algorithms and minimizes the forced error over the class, producing a
statement with a real universal quantifier:

    every ID-oblivious 1-round KT-0 algorithm has forced error >= c
    on the uniform V1/V2 distribution at n = 6 (or 7),

where *ID-oblivious* means the single broadcast character of a vertex is a
function of its ID alone (the natural first-round behavior: at time 0 a
KT-0 vertex knows little else -- its input-port set is the only other
signal, and on 2-regular instances with canonical wirings it varies just
as predictably). The output rule is left fully adversarial: for each
broadcast assignment the engine grants the *best possible* output rule
subject only to the indistinguishability constraints of Lemma 3.4, so the
resulting minimum is a true lower bound for the class.

The computation: for each one-cycle cover, the disconnecting independent
directed pairs are precomputed once (they do not depend on the
algorithm); a broadcast assignment f activates the pairs whose head IDs
and tail IDs agree under f, and the optimal output rule pays, per
one-cycle instance, the cheaper of (its own YES-side mass) and (the mass
of its fooled crossed NO-instances).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import BudgetExceededError, CheckpointError
from repro.indist.graph_builder import cross_cover
from repro.instances.enumeration import CycleCover, enumerate_one_cycle_covers
from repro.lowerbounds.vectorized import scan_assignments
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.sketches import MomentsSketch, QuantileSketch, merge_population
from repro.obs.spans import span
from repro.parallel.executor import ParallelExecutor
from repro.parallel.merge import MIN_KEYED, merge_min_keyed
from repro.parallel.shard import ShardPlan, split_budget
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import Checkpointer, read_checkpoint

#: Checkpoint ``kind`` tag for this search (see repro.resilience.checkpoint).
EXHAUSTIVE_SHARDED_CHECKPOINT_KIND = "exhaustive.sharded"

#: A directed pair of edges eligible for a disconnecting crossing.
DirectedPair = Tuple[Tuple[int, int], Tuple[int, int]]


def disconnecting_pairs(cover: CycleCover) -> List[DirectedPair]:
    """All independent directed pairs whose crossing splits the cycle."""
    directed = []
    for u, v in sorted(cover.edges):
        directed.append((u, v))
        directed.append((v, u))
    out: List[DirectedPair] = []
    for e1, e2 in itertools.combinations(directed, 2):
        crossed = cross_cover(cover, e1, e2)
        if crossed is not None and crossed.num_cycles == 2:
            out.append((e1, e2))
    return out


@lru_cache(maxsize=None)
def _precompute_pairs_cached(
    n: int,
) -> Tuple[Tuple[CycleCover, Tuple[DirectedPair, ...]], ...]:
    """The (cover, disconnecting pairs) table for size ``n``, computed once.

    The body -- and therefore the ``exhaustive.precompute_pairs`` span --
    only runs on a cache miss: repeated universal-bound calls at the same
    ``n`` skip the precompute entirely.
    """
    with span("exhaustive.precompute_pairs"):
        return tuple(
            (cover, tuple(disconnecting_pairs(cover)))
            for cover in enumerate_one_cycle_covers(n)
        )


def covers_and_pairs_for(
    n: int, metrics: Optional[MetricsRegistry] = None
) -> Tuple[Tuple[CycleCover, Tuple[DirectedPair, ...]], ...]:
    """Memoized pair table; counts cache hits on the metrics registry.

    Every repeated call at the same ``n`` increments the
    ``exhaustive.pair_cache_hits`` counter (when a registry is given or
    installed process-wide) and costs one dict lookup instead of the
    full :func:`disconnecting_pairs` enumeration.
    """
    if metrics is None:
        metrics = get_registry()
    hits_before = _precompute_pairs_cached.cache_info().hits
    table = _precompute_pairs_cached(n)
    if metrics is not None and _precompute_pairs_cached.cache_info().hits > hits_before:
        metrics.counter("exhaustive.pair_cache_hits").inc()
    return table


def clear_pair_cache() -> None:
    """Drop the memoized pair tables (tests that assert the precompute span)."""
    _precompute_pairs_cached.cache_clear()


def assignment_at(alphabet: Sequence[str], n: int, index: int) -> Tuple[str, ...]:
    """The ``index``-th assignment in ``itertools.product`` order.

    ``itertools.product(alphabet, repeat=n)`` enumerates base-``|alphabet|``
    counters most-significant-digit first; this inverts that bijection so
    sharded scans can report winners by global index alone.
    """
    base = len(alphabet)
    out = [alphabet[0]] * n
    for j in range(n - 1, -1, -1):
        index, digit = divmod(index, base)
        out[j] = alphabet[digit]
    return tuple(out)


def _iter_assignments(
    alphabet: Sequence[str], n: int, start: int, stop: int
) -> Iterator[Tuple[str, ...]]:
    """Assignments for global indices ``[start, stop)``, odometer-style.

    Equivalent to ``islice(product(alphabet, repeat=n), start, stop)``
    but O(n) to position at ``start`` instead of O(start), which is what
    lets a shard (or a resume) begin mid-space without replaying the
    prefix.
    """
    if start >= stop:
        return
    base = len(alphabet)
    digits = [0] * n
    index = start
    for j in range(n - 1, -1, -1):
        index, digits[j] = divmod(index, base)
    for _ in range(stop - start):
        yield tuple(alphabet[d] for d in digits)
        for j in range(n - 1, -1, -1):
            digits[j] += 1
            if digits[j] < base:
                break
            digits[j] = 0


@dataclass(frozen=True)
class UniversalBoundReport:
    """Result of the exhaustive minimization.

    ``population`` (opt-in, ``population=True`` on the search) holds
    mergeable sketch states summarizing the *whole scanned class*, not
    just the winner: a :class:`repro.obs.sketches.QuantileSketch` over
    every assignment's forced error (``"forced_error"``) and a
    :class:`repro.obs.sketches.MomentsSketch` over its fooled-pair total
    (``"fooled"``). The states are pure functions of the scanned
    assignment multiset, so every worker count (and the pure-python
    oracle scan) produces byte-identical populations. Excluded from
    report equality (``compare=False``) so reports compare to
    hand-built expected values; compare populations explicitly.
    """

    n: int
    class_size: int
    minimum_forced_error: float
    worst_assignment: Tuple[str, ...]  # the broadcast character per vertex ID
    population: Optional[Dict[str, Dict[str, object]]] = field(
        default=None, compare=False
    )

    @property
    def is_constant(self) -> bool:
        return self.minimum_forced_error >= 0.1


def forced_error_of_assignment(
    n: int,
    assignment: Sequence[str],
    covers_and_pairs: List[Tuple[CycleCover, List[DirectedPair]]],
) -> float:
    """Forced error of the best output rule for one broadcast assignment."""
    return _forced_error_and_fooled(n, assignment, covers_and_pairs)[0]


def _forced_error_and_fooled(
    n: int,
    assignment: Sequence[str],
    covers_and_pairs: List[Tuple[CycleCover, List[DirectedPair]]],
) -> Tuple[float, int]:
    """(forced error, total fooled pairs) for one broadcast assignment.

    The fooled-pair total falls out of the error computation for free;
    keeping it visible lets the instrumented search count fooled
    instances without a second pass over the pair lists.
    """
    v1_count = len(covers_and_pairs)
    fooled_counts = []
    for _cover, pairs in covers_and_pairs:
        count = 0
        for (v1, u1), (v2, u2) in pairs:
            if assignment[v1] == assignment[v2] and assignment[u1] == assignment[u2]:
                count += 1
        fooled_counts.append(count)
    total_fooled = sum(fooled_counts)
    per_yes_instance = 0.5 / v1_count
    error = 0.0
    for count in fooled_counts:
        if total_fooled:
            yes_cost = 0.5 * count / total_fooled  # answer YES: err on fooled
        else:
            yes_cost = 0.0
        error += min(per_yes_instance, yes_cost)
    return error, total_fooled


def _new_population() -> Tuple[QuantileSketch, MomentsSketch]:
    """Fresh (forced-error quantiles, fooled-count moments) sketch pair."""
    return QuantileSketch(), MomentsSketch()


def _population_state(
    err_sketch: QuantileSketch, fooled_sketch: MomentsSketch
) -> Dict[str, Dict[str, object]]:
    return {
        "forced_error": err_sketch.to_dict(),
        "fooled": fooled_sketch.to_dict(),
    }


def universal_bound_id_oblivious(
    n: int,
    alphabet: Sequence[str] = ("", "0", "1"),
    metrics: Optional[MetricsRegistry] = None,
    budget: Optional[Budget] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 256,
    checkpoint_seconds: float = 2.0,
    resume: Optional[str] = None,
    workers: int = 1,
    population: bool = False,
    shard_cache=None,
) -> UniversalBoundReport:
    """Minimize forced error over every ID-oblivious 1-round algorithm.

    The class has |alphabet|^n members; n = 6 gives 729, n = 7 gives 2187
    -- all enumerated. The returned minimum is the universal lower bound
    for the class.

    The enumeration always runs over a deterministic
    :class:`repro.parallel.ShardPlan` through
    :class:`repro.parallel.ParallelExecutor` -- in process at
    ``workers=1``, over a process pool otherwise -- and every shard
    scores its assignments in blocks with the numpy kernel
    (:mod:`repro.lowerbounds.vectorized`). Shards are contiguous index
    ranges, each reports ``(error, global_index)``, and the fold is
    :data:`repro.parallel.MIN_KEYED` (lowest index wins ties), so the
    report is a pure function of ``(n, alphabet)``: the minimum and the
    first assignment reaching it in ``itertools.product`` order, for
    every worker count and completion order.

    When ``metrics`` is given (or a registry is installed process-wide
    via :func:`repro.obs.use_registry`), the search records enumeration
    throughput (``exhaustive.assignments_enumerated`` and the
    ``exhaustive.instances_per_sec`` gauge) and fooled-instance counts.

    Resilience (all opt-in):

    * ``budget`` -- a :class:`repro.resilience.Budget` charged once per
      assignment. Its units go to the earliest shards first, so a budget
      of K units scans exactly the global prefix ``[0, K)`` at every
      worker count; every shard shares its wall-clock deadline.
      Exhaustion raises :class:`~repro.errors.BudgetExceededError`
      carrying the best-so-far partial :class:`UniversalBoundReport`
      (after flushing a final checkpoint when one is configured). A
      budget of exactly the class size raises; one more unit completes.
    * ``checkpoint_path`` -- write atomic, resumable JSON checkpoints
      (kind ``"exhaustive.sharded"``: the plan's shard starts plus the
      per-shard progress vector) every ``checkpoint_every`` assignments
      / ``checkpoint_seconds`` seconds. ``KeyboardInterrupt`` (SIGINT,
      or SIGTERM under :func:`repro.resilience.graceful_interrupts`)
      flushes a final checkpoint before propagating.
    * ``resume`` -- path to a previous checkpoint; the search validates
      the (n, alphabet) params, rebuilds the stored plan (under any
      ``workers``) and re-dispatches only the incomplete shards from
      their stored positions, so an interrupted + resumed search returns
      exactly the report of an uninterrupted one.

    When a :class:`repro.obs.SpanRecorder` is installed (via
    :func:`repro.obs.use_recorder`), the search emits an
    ``exhaustive.search`` span with an ``exhaustive.precompute_pairs``
    child (on a cold pair cache) and the executor's ``parallel.map``,
    whose ``parallel.shard`` children each hold one
    ``exhaustive.enumerate`` span; with no recorder the only cost is one
    module-level check per phase (never per assignment).

    ``population=True`` additionally accumulates mergeable sketches over
    the whole scanned class -- forced-error quantiles and fooled-count
    moments, exposed as :attr:`UniversalBoundReport.population` -- with
    byte-identical states for every ``workers`` value (the sketches are
    pure functions of the scanned assignment multiset). Population
    sketch states ride inside checkpoints, so an interrupted + resumed
    population run still summarizes every assignment exactly once. The
    default (``False``) skips the sketches.

    ``shard_cache`` (a :class:`repro.cache.ShardCache` bound to this
    request's normalized params) memoizes completed shards: untouched
    pending shards are checked before dispatch, freshly completed
    shards are stored after, and cached shards never tick the budget --
    re-running under a budget computes only the delta. A shard entry
    reuses across runs only while the shard *boundaries* match, i.e. for
    the same worker count -- cross-worker-count reuse happens at the
    whole-request granularity, whose keys are workers-invariant.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if metrics is None:
        metrics = get_registry()
    alphabet = tuple(alphabet)
    total = len(alphabet) ** n
    with span("exhaustive.search", n=n, class_size=total):
        table = covers_and_pairs_for(n, metrics)
        # Workers only score pairs; covers themselves stay parent-side so
        # the pickled payload is just index tuples.
        wire_table = tuple((None, pairs) for _cover, pairs in table)
        params = {"n": n, "alphabet": list(alphabet)}
        start_time = time.perf_counter()

        if resume is not None:
            payload = read_checkpoint(
                resume, kind=EXHAUSTIVE_SHARDED_CHECKPOINT_KIND, params=params
            )
            state = payload["state"]
            try:
                plan = ShardPlan.from_starts(
                    total, [int(s) for s in state["shard_starts"]]
                )
                positions = [int(p) for p in state["positions"]]
                bests: List[Optional[Tuple[float, int]]] = [
                    None if b is None else (float(b[0]), int(b[1]))
                    for b in state["bests"]
                ]
                enumerated = int(state["enumerated"])
                fooled_total = int(state["fooled_total"])
                population_state = (
                    dict(state["population"])
                    if population and state.get("population")
                    else None
                )
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise CheckpointError(
                    f"checkpoint {resume!r} has malformed exhaustive state: {exc}"
                ) from exc
            if len(positions) != plan.num_shards or len(bests) != plan.num_shards:
                raise CheckpointError(
                    f"checkpoint {resume!r} shard vectors disagree with its plan"
                )
        else:
            plan = ShardPlan.for_workers(total, workers)
            positions = [shard.start for shard in plan.shards()]
            bests = [None] * plan.num_shards
            enumerated = 0
            fooled_total = 0
            population_state = None
        shards = plan.shards()

        checkpointer: Optional[Checkpointer] = None
        if checkpoint_path is not None:
            def _state() -> Dict[str, object]:
                state: Dict[str, object] = {
                    "shard_starts": list(plan.starts),
                    "positions": list(positions),
                    "bests": [
                        None if b is None else [b[0], b[1]] for b in bests
                    ],
                    "enumerated": enumerated,
                    "fooled_total": fooled_total,
                }
                if population:
                    state["population"] = population_state
                return state

            checkpointer = Checkpointer(
                checkpoint_path,
                EXHAUSTIVE_SHARDED_CHECKPOINT_KIND,
                params,
                _state,
                every_units=checkpoint_every,
                every_seconds=checkpoint_seconds,
            )

        pending = [
            i for i in range(plan.num_shards) if positions[i] < shards[i].stop
        ]

        def _shard_item(i: int) -> Dict[str, int]:
            return {
                "start": shards[i].start,
                "stop": shards[i].stop,
                "seed": shards[i].seed,
            }

        if shard_cache is not None:
            # Apply cached completed shards before dispatching anything.
            # Only untouched shards qualify (a resumed partial position
            # means the stored entry would double-count work already
            # folded in), and only complete entries count (next_index at
            # stop, not budget-exhausted). Cached units never tick the
            # parent budget: the budget limits actual work, and a hit
            # does none.
            still_pending = []
            cached_shards = 0
            for i in pending:
                hit = None
                if positions[i] == shards[i].start:
                    hit = shard_cache.get_item(_shard_item(i))
                    if hit is not None and (
                        hit.get("exhausted")
                        or int(hit.get("next_index", -1)) != shards[i].stop
                    ):
                        hit = None
                if hit is None:
                    still_pending.append(i)
                    continue
                raw_best = hit.get("best")
                if raw_best is not None:
                    bests[i] = merge_min_keyed(
                        bests[i], (float(raw_best[0]), int(raw_best[1]))
                    )
                positions[i] = shards[i].stop
                enumerated += int(hit.get("enumerated", 0))
                fooled_total += int(hit.get("fooled", 0))
                shard_population = hit.get("population")
                if shard_population is not None:
                    population_state = merge_population(
                        population_state, shard_population
                    )
                cached_shards += 1
            pending = still_pending
            if cached_shards and metrics is not None:
                metrics.counter("exhaustive.shards_cached").inc(cached_shards)

        sizes = [shards[i].stop - positions[i] for i in pending]
        payloads = [
            (
                n,
                alphabet,
                positions[i],
                shards[i].stop,
                wire_table,
                sb,
                bool(population),
            )
            for i, sb in zip(pending, split_budget(budget, sizes))
        ]

        ran = 0
        exhausted = False

        def _on_result(payload_index: int, result: Dict[str, object]) -> None:
            nonlocal ran, enumerated, fooled_total, exhausted, population_state
            shard_index = pending[payload_index]
            raw_best = result["best"]
            if raw_best is not None:
                bests[shard_index] = merge_min_keyed(
                    bests[shard_index], (float(raw_best[0]), int(raw_best[1]))
                )
            positions[shard_index] = int(result["next_index"])
            done = int(result["enumerated"])
            ran += done
            enumerated += done
            fooled_total += int(result["fooled"])
            shard_population = result.get("population")
            if shard_population is not None:
                # merge_population is commutative, so folding in
                # completion order still yields a worker-count-invariant
                # state.
                population_state = merge_population(
                    population_state, shard_population
                )
            if result["exhausted"]:
                exhausted = True
            elif (
                shard_cache is not None
                and payloads[payload_index][2] == shards[shard_index].start
                and positions[shard_index] == shards[shard_index].stop
            ):
                # A full, untruncated scan of the shard: store it. Resumed
                # partials (dispatch started past the shard start) are
                # never stored -- their result covers only a suffix of the
                # range the key describes.
                shard_cache.put_item(
                    _shard_item(shard_index),
                    {
                        "best": (
                            None
                            if raw_best is None
                            else [float(raw_best[0]), int(raw_best[1])]
                        ),
                        "next_index": positions[shard_index],
                        "enumerated": done,
                        "fooled": int(result["fooled"]),
                        "exhausted": False,
                        "population": shard_population,
                    },
                )
            if checkpointer is not None:
                checkpointer.maybe_write(units=done)

        executor = ParallelExecutor(workers=workers, metrics=metrics)
        try:
            executor.map(_exhaustive_shard_worker, payloads, on_result=_on_result)
        except KeyboardInterrupt:
            if checkpointer is not None:
                checkpointer.flush()
            raise
        if checkpointer is not None:
            checkpointer.flush()

        def _report() -> UniversalBoundReport:
            best = MIN_KEYED.fold(bests)
            report_population = None
            if population:
                report_population = (
                    population_state
                    if population_state is not None
                    else _population_state(*_new_population())
                )
            return UniversalBoundReport(
                n=n,
                class_size=total,
                minimum_forced_error=0.0 if best is None else best[0],
                worst_assignment=(
                    () if best is None else assignment_at(alphabet, n, best[1])
                ),
                population=report_population,
            )

        budget_message = f"budget exhausted during exhaustive search (n={n})"
        if budget is not None and ran:
            try:
                # Charge the parent budget with the units the shards
                # consumed: it raises at exactly the boundary a
                # per-assignment tick would (a budget of exactly the
                # remaining work raises; one more unit completes).
                budget.tick(units=ran)
            except BudgetExceededError as exc:
                budget_message = str(exc)
                exhausted = True
        if exhausted:
            raise BudgetExceededError(
                budget_message, partial=_report(), checkpoint_path=checkpoint_path
            )

        if metrics is not None:
            elapsed = time.perf_counter() - start_time
            metrics.counter("exhaustive.searches").inc()
            metrics.counter("exhaustive.covers_enumerated").inc(len(table))
            metrics.counter("exhaustive.disconnecting_pairs").inc(
                sum(len(pairs) for _cover, pairs in table)
            )
            metrics.counter("exhaustive.assignments_enumerated").inc(ran)
            metrics.counter("exhaustive.fooled_pairs").inc(fooled_total)
            metrics.histogram("exhaustive.search_seconds").observe(elapsed)
            metrics.gauge("exhaustive.instances_per_sec").set(
                ran / elapsed if elapsed > 0 else 0.0
            )
            if budget is not None:
                remaining = budget.remaining_units()
                if remaining is not None:
                    metrics.gauge("exhaustive.budget_remaining").set(remaining)
        return _report()


# ----------------------------------------------------------------------
# per-shard scans
# ----------------------------------------------------------------------
def _scan_shard_python(
    n: int,
    alphabet: Sequence[str],
    covers_and_pairs: Sequence[Tuple[object, Sequence[DirectedPair]]],
    start: int,
    stop: int,
    budget: Optional[Budget],
    sketches: Optional[Tuple[QuantileSketch, MomentsSketch]] = None,
) -> Tuple[Optional[Tuple[float, int]], int, int, int, bool]:
    """Pure-python scan of global indices ``[start, stop)``: the oracle.

    The search itself always runs :func:`repro.lowerbounds.vectorized
    .scan_assignments`; this one-assignment-at-a-time scan is kept as
    the reference the tests hold that kernel to. Same return shape:
    ``(best, next_index, enumerated, fooled_total, exhausted)`` with the
    strict-first tie-break and per-assignment budget ticks.
    ``exhausted`` is True only when the budget tripped with work still
    remaining (a budget that raises on the range's very last assignment
    still yields a completed scan).

    ``sketches`` (an ``(error QuantileSketch, fooled MomentsSketch)``
    pair) is updated in place with one observation per *enumerated*
    assignment -- the same multiset the vectorized scanner observes, so
    population states agree bit-for-bit across scanners.
    """
    best: Optional[Tuple[float, int]] = None
    pos = start
    enumerated = 0
    fooled_total = 0
    try:
        for assignment in _iter_assignments(alphabet, n, start, stop):
            err, fooled = _forced_error_and_fooled(n, assignment, covers_and_pairs)
            pos += 1
            enumerated += 1
            fooled_total += fooled
            if sketches is not None:
                sketches[0].update(err)
                sketches[1].update(float(fooled))
            if best is None or err < best[0]:
                best = (err, pos - 1)
            if budget is not None:
                budget.tick()
    except BudgetExceededError:
        return best, pos, enumerated, fooled_total, pos < stop
    return best, pos, enumerated, fooled_total, False


def _exhaustive_shard_worker(payload: Tuple) -> Dict[str, object]:
    """Score one shard of the assignment space (module-level: picklable).

    ``payload`` is ``(n, alphabet, start, stop, covers_and_pairs,
    shard_budget, collect)``. Returns a JSON-ready dict so the pooled
    path ships nothing fancier than lists and ints across the pipe;
    with ``collect`` the dict additionally carries the shard's
    serialized population sketch states under ``"population"``.
    """
    n, alphabet, start, stop, table, shard_budget, collect = payload
    sketches = _new_population() if collect else None
    best, pos, enumerated, fooled, exhausted = None, start, 0, 0, start < stop
    if shard_budget is None or not shard_budget.exhausted():
        budget = None if shard_budget is None else shard_budget.to_budget()
        with span("exhaustive.enumerate", start=start, stop=stop):
            best, pos, enumerated, fooled, exhausted = scan_assignments(
                n, alphabet, table, start, stop, budget=budget, sketches=sketches
            )
    return {
        "best": None if best is None else [float(best[0]), int(best[1])],
        "next_index": int(pos),
        "enumerated": int(enumerated),
        "fooled": int(fooled),
        "exhausted": bool(exhausted),
        "population": None if sketches is None else _population_state(*sketches),
    }
