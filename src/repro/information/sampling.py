"""Sampled mutual-information estimation for large ground sets.

The exact Theorem 4.5 evaluation enumerates all B_n partitions, which is
fine up to n ≈ 8 (B_8 = 4140) and hopeless much beyond. This module adds
the sampled counterpart: draw P_A uniformly (the exact-uniform RGS
sampler), run the protocol, and estimate the information quantities with
the plug-in (maximum-likelihood) estimator over the empirical joint.

Two standard caveats are surfaced rather than hidden:

* the plug-in estimate of I is biased upward by roughly
  (#distinct transcripts - 1) / (2 N ln 2) bits (Miller-Madow); the
  estimator reports that correction alongside the raw value;
* when the protocol is injective on P_A (the correct-protocol regime),
  I equals H(P_A), and the plug-in estimate of H from N samples cannot
  exceed log2 N -- the report includes the support coverage so callers
  can see saturation.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import BudgetExceededError, CheckpointError
from repro.obs.spans import span
from repro.information.entropy import (
    entropy,
    marginal_x,
    marginal_y,
    mutual_information,
)
from repro.parallel.executor import ParallelExecutor
from repro.parallel.merge import merge_counts
from repro.parallel.shard import ShardPlan, split_budget
from repro.partitions.bell import bell_number
from repro.partitions.enumeration import random_partition
from repro.partitions.set_partition import SetPartition
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import Checkpointer, read_checkpoint
from repro.twoparty.protocol import TwoPartyProtocol

#: Checkpoint ``kind`` tag for this estimator (see repro.resilience.checkpoint).
SAMPLING_CHECKPOINT_KIND = "sampling"

#: Checkpoint ``kind`` tag for the sharded (``workers > 1``) estimator.
SAMPLING_SHARDED_CHECKPOINT_KIND = "sampling.sharded"


@dataclass(frozen=True)
class SampledInformationReport:
    """Plug-in estimates from N protocol runs on the hard distribution."""

    n: int
    samples: int
    information_estimate: float
    miller_madow_correction: float
    input_entropy_estimate: float
    true_input_entropy: float  # log2 B_n (known exactly)
    distinct_inputs_seen: int
    distinct_transcripts_seen: int
    error_rate_estimate: float
    #: Population sketches over the sampled transcripts (name ->
    #: serialized state, see :mod:`repro.obs.sketches`): transcript-bit
    #: quantiles and transcript frequency counts. Derived purely from
    #: the per-transcript counts both estimation paths compute
    #: identically, so serial and sharded reports carry the same
    #: states; excluded from equality so reports stay comparable to
    #: hand-built expected values.
    population: Optional[Dict[str, Dict[str, Any]]] = field(default=None, compare=False)

    @property
    def corrected_information(self) -> float:
        """Miller-Madow bias-corrected estimate (still capped by log2 N)."""
        return max(0.0, self.information_estimate - self.miller_madow_correction)

    @property
    def saturated(self) -> bool:
        """True when the sample size caps the measurable entropy."""
        return self.true_input_entropy > math.log2(max(2, self.samples))


def _transcript_population(
    transcript_counts: Iterable[Tuple[str, int]],
) -> Dict[str, Dict[str, Any]]:
    """Population sketches from (transcript string, count) pairs."""
    from repro.obs.sketches import QuantileSketch, TopKSketch

    bits = QuantileSketch()
    transcripts = TopKSketch()
    for transcript, count in transcript_counts:
        bits.update(float(len(transcript)), count=count)
        transcripts.update(transcript, count=count)
    return {
        "transcript_bits": bits.to_dict(),
        "transcripts": transcripts.to_dict(),
    }


def _transcript_counts_from_pairs(
    keyed_counts: Iterable[Tuple[Tuple[Any, str], int]],
) -> List[Tuple[str, int]]:
    """Aggregate ((input, transcript), count) items per transcript, in
    sorted transcript order."""
    per_transcript: Dict[str, int] = {}
    for (_x, transcript), count in keyed_counts:
        per_transcript[transcript] = per_transcript.get(transcript, 0) + count
    return sorted(per_transcript.items())


def _report_from_joint(
    n: int,
    samples: int,
    joint: Dict[Tuple[Any, Any], float],
    errors: int,
    population: Optional[Dict[str, Dict[str, Any]]] = None,
) -> SampledInformationReport:
    """Assemble the report from an empirical joint.

    Inputs are keyed by their canonical string form (JSON-serializable
    for checkpoints); every derived quantity -- entropies, mutual
    information, distinct counts, Miller-Madow bias -- is invariant
    under that injective relabeling.
    """
    info = mutual_information(joint)
    distinct_x = len(marginal_x(joint))
    distinct_y = len(marginal_y(joint))
    # Miller-Madow bias of I ~ bias(H(X)) + bias(H(Y)) - bias(H(X, Y))
    bias = (
        (distinct_x - 1) + (distinct_y - 1) - (len(joint) - 1)
    ) / (2.0 * samples * math.log(2))
    return SampledInformationReport(
        n=n,
        samples=samples,
        information_estimate=info,
        miller_madow_correction=bias,
        input_entropy_estimate=entropy(marginal_x(joint)),
        true_input_entropy=math.log2(bell_number(n)),
        distinct_inputs_seen=distinct_x,
        distinct_transcripts_seen=distinct_y,
        error_rate_estimate=errors / samples,
        population=population,
    )


def _rng_state_to_json(state: Any) -> List[Any]:
    """random.Random.getstate() -> JSON-safe nested lists (exact)."""
    return [state[0], list(state[1]), state[2]]


def _rng_state_from_json(data: Any) -> Tuple[Any, ...]:
    """Inverse of :func:`_rng_state_to_json`."""
    return (data[0], tuple(data[1]), data[2])


def estimate_protocol_information(
    protocol: TwoPartyProtocol,
    n: int,
    samples: int,
    rng: random.Random,
    budget: Optional[Budget] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 64,
    checkpoint_seconds: float = 2.0,
    resume: Optional[str] = None,
    workers: int = 1,
) -> SampledInformationReport:
    """Sample the Theorem 4.5 hard distribution and estimate I(P_A; Pi).

    ``workers > 1`` fans the protocol runs out over a deterministic
    :class:`repro.parallel.ShardPlan`: the parent pre-draws **all** N
    inputs from ``rng`` (consuming exactly the random stream the serial
    loop would, so the caller's RNG ends in the identical state), shards
    the drawn list, and merges the per-shard joint counts key-wise. The
    merged report is bit-identical to the serial path for every worker
    count, budgeted or not (both sum the joint in sorted key order).
    Sharded checkpoints use kind
    ``"sampling.sharded"`` and embed a digest of the drawn inputs, so a
    resume must pass a fresh ``rng`` seeded identically to the original
    run -- a mismatched seed fails checkpoint validation instead of
    silently estimating a different distribution.

    Resilience (all opt-in, mirroring
    :func:`repro.lowerbounds.exhaustive.universal_bound_id_oblivious`):

    * ``budget`` -- a :class:`repro.resilience.Budget` ticked once per
      sample; exhaustion raises
      :class:`~repro.errors.BudgetExceededError` carrying a partial
      report over the samples drawn so far (``None`` below 2 samples).
    * ``checkpoint_path`` -- atomic resumable JSON checkpoints (kind
      ``"sampling"``) carrying the joint counts, the error count, and
      the full ``random.Random`` state, so a resumed estimate consumes
      exactly the random stream an uninterrupted one would.
    * ``resume`` -- path to a previous checkpoint; validates (n,
      samples) and restores counts + RNG state, so an interrupted +
      resumed run is bit-identical to an uninterrupted run.

    When a :class:`repro.obs.SpanRecorder` is installed the estimator
    emits a ``sampling.estimate`` span with ``sampling.draw`` (protocol
    runs) and ``sampling.reduce`` (plug-in estimation) children.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with span("sampling.estimate", n=n, samples=samples):
        if workers > 1:
            return _estimate_sharded(
                protocol,
                n,
                samples,
                rng,
                budget,
                checkpoint_path,
                checkpoint_every,
                checkpoint_seconds,
                resume,
                workers,
            )
        return _estimate_impl(
            protocol,
            n,
            samples,
            rng,
            budget,
            checkpoint_path,
            checkpoint_every,
            checkpoint_seconds,
            resume,
        )


def _estimate_impl(
    protocol: TwoPartyProtocol,
    n: int,
    samples: int,
    rng: random.Random,
    budget: Optional[Budget],
    checkpoint_path: Optional[str],
    checkpoint_every: int,
    checkpoint_seconds: float,
    resume: Optional[str],
) -> SampledInformationReport:
    pb = SetPartition.finest(n)
    params = {"n": n, "samples": samples}
    counts: Dict[Tuple[str, str], int] = {}
    errors = 0
    done = 0
    if resume is not None:
        payload = read_checkpoint(resume, kind=SAMPLING_CHECKPOINT_KIND, params=params)
        state = payload["state"]
        try:
            done = int(state["samples_done"])
            errors = int(state["errors"])
            counts = {(str(x), str(y)): int(c) for x, y, c in state["counts"]}
            rng.setstate(_rng_state_from_json(state["rng_state"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {resume!r} has malformed sampling state: {exc}"
            ) from exc

    checkpointer: Optional[Checkpointer] = None
    if checkpoint_path is not None:
        def _state() -> Dict[str, object]:
            return {
                "samples_done": done,
                "errors": errors,
                "counts": [[x, y, c] for (x, y), c in sorted(counts.items())],
                "rng_state": _rng_state_to_json(rng.getstate()),
            }

        checkpointer = Checkpointer(
            checkpoint_path,
            SAMPLING_CHECKPOINT_KIND,
            params,
            _state,
            every_units=checkpoint_every,
            every_seconds=checkpoint_seconds,
        )

    def _joint(total: int) -> Dict[Tuple[str, str], float]:
        # Sorted key order makes the float summation order -- and hence
        # the report -- independent of when (or whether) the run was
        # interrupted and resumed.
        return {pair: c / total for pair, c in sorted(counts.items())}

    def _partial() -> Optional[SampledInformationReport]:
        if done < 2:
            return None
        return _report_from_joint(n, done, _joint(done), errors)

    with span("sampling.draw", start_index=done):
        try:
            while done < samples:
                pa = random_partition(n, rng)
                result = protocol.run(pa, pb)
                key = (repr(pa), result.transcript_string())
                counts[key] = counts.get(key, 0) + 1
                if result.bob_output != pa:
                    errors += 1
                done += 1
                if checkpointer is not None:
                    checkpointer.maybe_write()
                if budget is not None:
                    budget.tick(partial=None)
        except BudgetExceededError as exc:
            if checkpointer is not None:
                checkpointer.flush()
            raise BudgetExceededError(
                str(exc), partial=_partial(), checkpoint_path=checkpoint_path
            ) from exc
        except KeyboardInterrupt:
            if checkpointer is not None:
                checkpointer.flush()
            raise
        if checkpointer is not None:
            checkpointer.flush()

    with span("sampling.reduce"):
        population = _transcript_population(
            _transcript_counts_from_pairs(counts.items())
        )
        return _report_from_joint(n, samples, _joint(samples), errors, population)


# ----------------------------------------------------------------------
# sharded estimation
# ----------------------------------------------------------------------
def _sampling_shard_worker(payload: Tuple) -> Dict[str, object]:
    """Run the protocol on one contiguous slice of the drawn inputs.

    ``payload`` is ``(protocol, n, inputs, start, shard_budget)``.
    Module-level (picklable); returns JSON-ready sorted count triples so
    the pooled path ships plain lists across the pipe. The budget is
    ticked once per sample, exactly like the serial loop; a budget that
    trips on the slice's final sample still reports a completed slice.
    """
    protocol, n, inputs, start, shard_budget = payload
    if shard_budget is not None:
        exhausted_before_start = shard_budget.max_units == 0 or (
            shard_budget.wall_seconds is not None
            and shard_budget.wall_seconds <= 0
        )
        if exhausted_before_start:
            return {
                "counts": [],
                "errors": 0,
                "done": 0,
                "exhausted": bool(inputs),
            }
    budget = None if shard_budget is None else shard_budget.to_budget()
    pb = SetPartition.finest(n)
    counts: Dict[Tuple[str, str], int] = {}
    errors = 0
    done = 0
    exhausted = False
    with span("sampling.scan_shard", start=start, size=len(inputs)):
        try:
            for pa in inputs:
                result = protocol.run(pa, pb)
                key = (repr(pa), result.transcript_string())
                counts[key] = counts.get(key, 0) + 1
                if result.bob_output != pa:
                    errors += 1
                done += 1
                if budget is not None:
                    budget.tick()
        except BudgetExceededError:
            exhausted = done < len(inputs)
    return {
        "counts": [[x, y, c] for (x, y), c in sorted(counts.items())],
        "errors": errors,
        "done": done,
        "exhausted": exhausted,
    }


def _estimate_sharded(
    protocol: TwoPartyProtocol,
    n: int,
    samples: int,
    rng: random.Random,
    budget: Optional[Budget],
    checkpoint_path: Optional[str],
    checkpoint_every: int,
    checkpoint_seconds: float,
    resume: Optional[str],
    workers: int,
) -> SampledInformationReport:
    """Fan the N protocol runs out over a :class:`ShardPlan`.

    The parent draws all inputs up front (one ``sampling.draw_inputs``
    span), so randomness lives entirely parent-side and every shard is a
    deterministic pure function of its slice. Per-shard joint counts
    merge key-wise (:func:`repro.parallel.merge_counts`); the final
    joint is summed in sorted key order, which makes the report
    independent of worker count and completion order and bit-identical
    to the serial path.
    """
    with span("sampling.draw_inputs", samples=samples):
        inputs = [random_partition(n, rng) for _ in range(samples)]
    digest = hashlib.sha256(
        "\n".join(repr(pa) for pa in inputs).encode("utf-8")
    ).hexdigest()
    params = {"n": n, "samples": samples, "inputs_sha256": digest}

    counts: Dict[Tuple[str, str], int] = {}
    errors = 0
    done = 0
    if resume is not None:
        payload = read_checkpoint(
            resume, kind=SAMPLING_SHARDED_CHECKPOINT_KIND, params=params
        )
        state = payload["state"]
        try:
            plan = ShardPlan.from_starts(
                samples, [int(s) for s in state["shard_starts"]]
            )
            positions = [int(p) for p in state["positions"]]
            counts = {(str(x), str(y)): int(c) for x, y, c in state["counts"]}
            errors = int(state["errors"])
            done = int(state["done"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise CheckpointError(
                f"checkpoint {resume!r} has malformed sharded sampling "
                f"state: {exc}"
            ) from exc
        if len(positions) != plan.num_shards:
            raise CheckpointError(
                f"checkpoint {resume!r} shard vectors disagree with its plan"
            )
    else:
        plan = ShardPlan.for_workers(samples, workers)
        positions = [shard.start for shard in plan.shards()]
    shards = plan.shards()

    checkpointer: Optional[Checkpointer] = None
    if checkpoint_path is not None:
        def _state() -> Dict[str, object]:
            return {
                "shard_starts": list(plan.starts),
                "positions": list(positions),
                "counts": [[x, y, c] for (x, y), c in sorted(counts.items())],
                "errors": errors,
                "done": done,
            }

        checkpointer = Checkpointer(
            checkpoint_path,
            SAMPLING_SHARDED_CHECKPOINT_KIND,
            params,
            _state,
            every_units=checkpoint_every,
            every_seconds=checkpoint_seconds,
        )

    pending = [i for i in range(plan.num_shards) if positions[i] < shards[i].stop]
    sizes = [shards[i].stop - positions[i] for i in pending]
    shard_budgets = split_budget(budget, sizes)
    payloads = [
        (protocol, n, inputs[positions[i]:shards[i].stop], positions[i], sb)
        for i, sb in zip(pending, shard_budgets)
    ]

    ran = 0
    exhausted = False

    def _on_result(payload_index: int, result: Dict[str, object]) -> None:
        nonlocal ran, errors, done, exhausted
        shard_index = pending[payload_index]
        merge_counts(
            counts,
            {(str(x), str(y)): int(c) for x, y, c in result["counts"]},
        )
        errors += int(result["errors"])
        delta = int(result["done"])
        positions[shard_index] += delta
        done += delta
        ran += delta
        if result["exhausted"]:
            exhausted = True
        if checkpointer is not None:
            checkpointer.maybe_write(units=delta)

    executor = ParallelExecutor(workers=workers)
    try:
        executor.map(_sampling_shard_worker, payloads, on_result=_on_result)
    except KeyboardInterrupt:
        if checkpointer is not None:
            checkpointer.flush()
        raise
    if checkpointer is not None:
        checkpointer.flush()

    def _joint(total: int) -> Dict[Tuple[str, str], float]:
        return {pair: c / total for pair, c in sorted(counts.items())}

    def _partial() -> Optional[SampledInformationReport]:
        if done < 2:
            return None
        return _report_from_joint(n, done, _joint(done), errors)

    budget_message = f"budget exhausted during sharded sampling (n={n})"
    if budget is not None and ran:
        try:
            # Tick the parent budget by the consumed units so "budget ==
            # exact sample count" raises, exactly as the serial
            # per-sample loop does.
            budget.tick(units=ran)
        except BudgetExceededError as exc:
            budget_message = str(exc)
            exhausted = True
    if exhausted:
        raise BudgetExceededError(
            budget_message, partial=_partial(), checkpoint_path=checkpoint_path
        )

    with span("sampling.reduce"):
        population = _transcript_population(
            _transcript_counts_from_pairs(counts.items())
        )
        return _report_from_joint(n, samples, _joint(samples), errors, population)
