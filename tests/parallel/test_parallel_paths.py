"""Serial ≡ parallel for every ``--workers`` hot path, bit for bit.

The contract under test is the whole point of :mod:`repro.parallel`:
``workers=1`` runs in process, and every ``workers > 1`` execution
returns the *identical* report -- same floats, same tie-breaks, same RNG
stream consumption, same budget accounting -- so parallelism can never
change a paper-facing number. The exhaustive search is also held to the
pure-python oracle scan.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError
from repro.information import estimate_protocol_information
from repro.lowerbounds import (
    UniversalBoundReport,
    assignment_at,
    covers_and_pairs_for,
    forced_error_of_assignment,
    universal_bound_id_oblivious,
)
from repro.lowerbounds.exhaustive import (
    _new_population,
    _population_state,
    _scan_shard_python,
)
from repro.partitions import build_m_matrix, rank_exact, rank_mod_p, rank_multi_prime
from repro.resilience import Budget, fault_sweep
from repro.twoparty import TrivialPartitionCompProtocol

WORKER_COUNTS = (1, 2, 4)


# ----------------------------------------------------------------------
# exhaustive universal-bound search
# ----------------------------------------------------------------------
def _oracle_report(n, alphabet):
    """Min over ``itertools.product`` of the one-assignment scorer, the
    lowest index winning ties."""
    table = covers_and_pairs_for(n)
    best, best_assignment = None, ()
    for assignment in itertools.product(alphabet, repeat=n):
        err = forced_error_of_assignment(n, assignment, table)
        if best is None or err < best:
            best, best_assignment = err, assignment
    return UniversalBoundReport(
        n=n,
        class_size=len(alphabet) ** n,
        minimum_forced_error=best,
        worst_assignment=best_assignment,
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_exhaustive_identical_across_worker_counts(workers):
    serial = universal_bound_id_oblivious(4, alphabet=("", "0", "1"))
    report = universal_bound_id_oblivious(4, alphabet=("", "0", "1"), workers=workers)
    assert report == serial


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exhaustive_vectorized_identical(n):
    # the block kernel the search always runs equals the python oracle
    report = universal_bound_id_oblivious(n, population=True)
    assert report == _oracle_report(n, ("", "0", "1"))


def test_exhaustive_workers_one_is_the_golden_serial_path():
    # workers=1 is the no-argument default, and its population equals
    # the pure-python oracle scan's over the whole class
    n, alphabet = 4, ("", "0", "1")
    report = universal_bound_id_oblivious(n, workers=1, population=True)
    assert report == universal_bound_id_oblivious(n)
    sketches = _new_population()
    _scan_shard_python(
        n, alphabet, covers_and_pairs_for(n), 0, len(alphabet) ** n, None, sketches
    )
    assert report.population == _population_state(*sketches)


@given(workers=st.sampled_from(WORKER_COUNTS), n=st.integers(3, 4))
@settings(max_examples=8, deadline=None)
def test_exhaustive_serial_parallel_property(workers, n):
    serial = universal_bound_id_oblivious(n, alphabet=("0", "1"))
    assert universal_bound_id_oblivious(n, alphabet=("0", "1"), workers=workers) == serial


def test_exhaustive_budget_raise_parity_and_resume(tmp_path):
    """Mid-fan-out budget exhaustion checkpoints and resumes exactly."""
    n, alphabet = 4, ("", "0", "1")
    total = len(alphabet) ** n
    serial = universal_bound_id_oblivious(n, alphabet=alphabet)

    ckpt = str(tmp_path / "exhaustive.shards.json")
    with pytest.raises(BudgetExceededError) as excinfo:
        universal_bound_id_oblivious(
            n,
            alphabet=alphabet,
            workers=2,
            budget=Budget(max_units=total // 3),
            checkpoint_path=ckpt,
            checkpoint_every=1,
        )
    assert excinfo.value.checkpoint_path == ckpt
    # resume under a different worker count: still the serial report
    resumed = universal_bound_id_oblivious(
        n, alphabet=alphabet, workers=4, resume=ckpt
    )
    assert resumed == serial
    for workers in (1, 2):
        # budget == total work raises (tick-after semantics)...
        with pytest.raises(BudgetExceededError):
            universal_bound_id_oblivious(
                n, alphabet=alphabet, workers=workers, budget=Budget(max_units=total)
            )
        # ...and budget == total + 1 completes.
        assert (
            universal_bound_id_oblivious(
                n,
                alphabet=alphabet,
                workers=workers,
                budget=Budget(max_units=total + 1),
            )
            == serial
        )


def _covered(state):
    """The global index ranges a checkpoint's progress vector has done."""
    return [
        (start, pos)
        for start, pos in zip(state["shard_starts"], state["positions"])
        if pos > start
    ]


@pytest.mark.parametrize("units", [1, 100, 242, 243])
def test_exhaustive_unit_budget_partial_is_worker_invariant(tmp_path, units):
    """K units scan exactly the prefix [0, K) at every worker count."""
    n, alphabet = 5, ("", "0", "1")
    seen = []
    for workers in (1, 2, 3):
        ckpt = str(tmp_path / f"w{workers}.json")
        budget = Budget(max_units=units)
        with pytest.raises(BudgetExceededError) as excinfo:
            universal_bound_id_oblivious(
                n,
                alphabet=alphabet,
                workers=workers,
                budget=budget,
                checkpoint_path=ckpt,
                population=True,
            )
        state = json.load(open(ckpt))["state"]
        covered = _covered(state)
        # contiguous prefix coverage, however the plan cut the space
        assert covered[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(covered, covered[1:]))
        assert covered[-1][1] == units
        bests = [tuple(b) for b in state["bests"] if b is not None]
        seen.append(
            (
                budget.units_done,
                excinfo.value.partial,
                excinfo.value.partial.worst_assignment,
                excinfo.value.partial.population,
                state["enumerated"],
                state["fooled_total"],
                state["population"],
                min(bests, key=lambda b: (b[0], b[1])),
            )
        )
    assert seen[0][0] == units
    assert seen[1] == seen[0] and seen[2] == seen[0]
    # the partial is the oracle over the scanned prefix
    table = covers_and_pairs_for(n)
    best, best_index = min(
        (forced_error_of_assignment(n, a, table), i)
        for i, a in enumerate(
            itertools.islice(itertools.product(alphabet, repeat=n), units)
        )
    )
    assert seen[0][1].minimum_forced_error == best
    assert seen[0][1].worst_assignment == assignment_at(alphabet, n, best_index)


# ----------------------------------------------------------------------
# sampled information estimator
# ----------------------------------------------------------------------
def _sampling_report(workers, samples=60, seed=11, n=4, **kwargs):
    rng = random.Random(seed)
    if workers is not None:
        kwargs["workers"] = workers
    report = estimate_protocol_information(
        TrivialPartitionCompProtocol(n), n, samples, rng, **kwargs
    )
    return report, rng.getstate()


def test_sampling_workers_one_is_the_default_path():
    default, default_rng = _sampling_report(None)
    serial, serial_rng = _sampling_report(1)
    assert serial == default
    assert serial_rng == default_rng


@pytest.mark.parametrize("workers", (2, 4))
def test_sampling_identical_across_worker_counts(workers):
    # The documented contract: sharded == serial, budgeted or not, bit
    # for bit (every path sums the joint in sorted key order).
    budgeted, budgeted_rng = _sampling_report(1, budget=Budget(max_units=10_000))
    serial, serial_rng = _sampling_report(1)
    parallel, parallel_rng = _sampling_report(workers)
    assert parallel == serial == budgeted
    assert parallel.information_estimate == serial.information_estimate
    assert parallel.corrected_information == serial.corrected_information
    # the parent rng consumed the identical stream (pre-drawn inputs)
    assert parallel_rng == serial_rng == budgeted_rng


@pytest.mark.parametrize("units", [1, 2, 17, 45])
def test_sampling_unit_budget_partial_is_worker_invariant(tmp_path, units):
    """K units run exactly the first K drawn inputs at every worker count."""
    seen = []
    for workers in (1, 2, 3):
        ckpt = str(tmp_path / f"w{workers}.json")
        budget = Budget(max_units=units)
        with pytest.raises(BudgetExceededError) as excinfo:
            _sampling_report(workers, budget=budget, checkpoint_path=ckpt)
        state = json.load(open(ckpt))["state"]
        covered = _covered(state)
        assert covered[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(covered, covered[1:]))
        assert covered[-1][1] == units
        seen.append(
            (
                budget.units_done,
                excinfo.value.partial,
                state["counts"],
                state["errors"],
                state["done"],
            )
        )
    assert seen[0][0] == units
    assert seen[1] == seen[0] and seen[2] == seen[0]
    if units >= 2:
        # the partial is a full run over the first K inputs
        expected, _ = _sampling_report(1, samples=units)
        partial = seen[0][1]
        assert partial.samples == units
        assert partial.information_estimate == expected.information_estimate
        assert partial.distinct_inputs_seen == expected.distinct_inputs_seen
    else:
        assert seen[0][1] is None


def test_sampling_budget_resume_mid_fan_out(tmp_path):
    serial, _ = _sampling_report(1, budget=Budget(max_units=10_000))
    ckpt = str(tmp_path / "sampling.shards.json")
    with pytest.raises(BudgetExceededError):
        _sampling_report(
            2,
            budget=Budget(max_units=20),
            checkpoint_path=ckpt,
            checkpoint_every=1,
        )
    resumed_rng = random.Random(11)
    resumed = estimate_protocol_information(
        TrivialPartitionCompProtocol(4),
        4,
        60,
        resumed_rng,
        workers=4,
        resume=ckpt,
    )
    assert resumed == serial


def test_sampling_resume_rejects_mismatched_seed(tmp_path):
    from repro.errors import CheckpointError

    ckpt = str(tmp_path / "sampling.shards.json")
    with pytest.raises(BudgetExceededError):
        _sampling_report(
            2,
            budget=Budget(max_units=20),
            checkpoint_path=ckpt,
            checkpoint_every=1,
        )
    # a different seed draws different inputs: the params digest differs
    with pytest.raises(CheckpointError):
        estimate_protocol_information(
            TrivialPartitionCompProtocol(4),
            4,
            60,
            random.Random(999),
            workers=2,
            resume=ckpt,
        )


# ----------------------------------------------------------------------
# multi-prime rank
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_rank_identical_across_worker_counts(workers):
    _parts, matrix = build_m_matrix(4)
    serial = rank_multi_prime(matrix, workers=1)
    assert rank_multi_prime(matrix, workers=workers) == serial
    assert rank_exact(matrix, workers=workers) == rank_exact(matrix)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_rank_budget_accounting_matches_serial(workers):
    _parts, matrix = build_m_matrix(4)
    cols = len(matrix[0])
    primes = (1_000_003, 999_983)
    total_ticks = len(primes) * cols
    # exactly at the boundary: serial raises iff budget <= total ticks
    serial_budget = Budget(max_units=total_ticks + 1)
    serial = rank_multi_prime(matrix, primes, budget=serial_budget, workers=1)
    parallel_budget = Budget(max_units=total_ticks + 1)
    assert (
        rank_multi_prime(matrix, primes, budget=parallel_budget, workers=workers)
        == serial
    )
    assert parallel_budget.units_done == serial_budget.units_done
    with pytest.raises(BudgetExceededError):
        rank_multi_prime(
            matrix, primes, budget=Budget(max_units=total_ticks), workers=workers
        )
    with pytest.raises(BudgetExceededError):
        rank_multi_prime(
            matrix, primes, budget=Budget(max_units=total_ticks), workers=1
        )


@given(
    rows=st.integers(2, 6),
    cols=st.integers(2, 6),
    seed=st.integers(0, 10_000),
    workers=st.sampled_from((2, 3)),
)
@settings(max_examples=10, deadline=None)
def test_rank_serial_parallel_property(rows, cols, seed, workers):
    rng = random.Random(seed)
    matrix = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
    primes = (1_000_003, 999_983, 2_147_483_647)
    assert rank_multi_prime(matrix, primes, workers=workers) == max(
        rank_mod_p(matrix, p) for p in primes
    )


# ----------------------------------------------------------------------
# fault sweeps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fault_sweep_identical_across_worker_counts(workers):
    kwargs = dict(
        algorithms=("neighbor_exchange",),
        kinds=("bit_flip", "erasure"),
        rates=(0.0, 0.2),
        n=6,
        trials=2,
        seed=3,
    )
    serial = fault_sweep(**kwargs)
    parallel = fault_sweep(workers=workers, **kwargs)
    # wall_time_seconds is the only legitimately nondeterministic field
    assert parallel.curves == serial.curves
    assert (parallel.n, parallel.trials, parallel.seed) == (
        serial.n,
        serial.trials,
        serial.seed,
    )


def test_fault_sweep_metrics_match_serial():
    from repro.obs.metrics import MetricsRegistry

    kwargs = dict(
        algorithms=("neighbor_exchange",),
        kinds=("crash",),
        rates=(0.0, 0.3),
        n=6,
        trials=2,
        seed=5,
    )
    serial_registry = MetricsRegistry()
    fault_sweep(metrics=serial_registry, **kwargs)
    parallel_registry = MetricsRegistry()
    fault_sweep(metrics=parallel_registry, workers=4, **kwargs)
    for name in ("resilience.trials_run", "resilience.faults_injected"):
        assert (
            parallel_registry.counter(name).value
            == serial_registry.counter(name).value
        )
