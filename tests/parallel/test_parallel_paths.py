"""Serial ≡ parallel for every ``--workers`` hot path, bit for bit.

The contract under test is the whole point of :mod:`repro.parallel`:
``workers=1`` is the original in-process loop (golden), and every
``workers > 1`` / vectorized execution returns the *identical* report --
same floats, same tie-breaks, same RNG stream consumption, same budget
accounting -- so parallelism can never change a paper-facing number.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError
from repro.information import estimate_protocol_information
from repro.lowerbounds import universal_bound_id_oblivious
from repro.partitions import build_m_matrix, rank_exact, rank_mod_p, rank_multi_prime
from repro.resilience import Budget, fault_sweep
from repro.twoparty import TrivialPartitionCompProtocol

WORKER_COUNTS = (1, 2, 4)


# ----------------------------------------------------------------------
# exhaustive universal-bound search
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_exhaustive_identical_across_worker_counts(workers):
    serial = universal_bound_id_oblivious(4, alphabet=("", "0", "1"))
    report = universal_bound_id_oblivious(
        4, alphabet=("", "0", "1"), workers=workers, vectorize=False
    )
    assert report == serial


@pytest.mark.parametrize("n", [3, 4])
def test_exhaustive_vectorized_identical(n):
    serial = universal_bound_id_oblivious(n, alphabet=("", "0", "1"))
    vectorized = universal_bound_id_oblivious(
        n, alphabet=("", "0", "1"), vectorize=True
    )
    assert vectorized == serial


def test_exhaustive_workers_one_is_the_golden_serial_path():
    # workers=1 + vectorize=False must be the byte-identical original
    # loop: same report object contents as the no-argument call.
    assert universal_bound_id_oblivious(
        4, workers=1, vectorize=False
    ) == universal_bound_id_oblivious(4)


@given(workers=st.sampled_from(WORKER_COUNTS), n=st.integers(3, 4))
@settings(max_examples=8, deadline=None)
def test_exhaustive_serial_parallel_property(workers, n):
    serial = universal_bound_id_oblivious(n, alphabet=("0", "1"))
    assert (
        universal_bound_id_oblivious(
            n, alphabet=("0", "1"), workers=workers, vectorize=False
        )
        == serial
    )


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
            vectorize=False,
            budget=Budget(max_units=total // 3),
            checkpoint_path=ckpt,
            checkpoint_every=1,
        )
    assert excinfo.value.checkpoint_path == ckpt
    # resume under a different worker count: still the serial report
    resumed = universal_bound_id_oblivious(
        n, alphabet=alphabet, workers=4, vectorize=False, resume=ckpt
    )
    assert resumed == serial
    # budget == total work raises in both paths (tick-after semantics)...
    with pytest.raises(BudgetExceededError):
        universal_bound_id_oblivious(n, alphabet=alphabet, budget=Budget(max_units=total))
    with pytest.raises(BudgetExceededError):
        universal_bound_id_oblivious(
            n,
            alphabet=alphabet,
            workers=2,
            vectorize=False,
            budget=Budget(max_units=total),
        )
    # ...and budget == total + 1 completes in both.
    assert (
        universal_bound_id_oblivious(
            n, alphabet=alphabet, budget=Budget(max_units=total + 1)
        )
        == serial
    )
    assert (
        universal_bound_id_oblivious(
            n,
            alphabet=alphabet,
            workers=2,
            vectorize=False,
            budget=Budget(max_units=total + 1),
        )
        == serial
    )


def test_exhaustive_resume_crosses_kernels(tmp_path):
    """A python-scan checkpoint resumes under the vectorized kernel."""
    n, alphabet = 4, ("0", "1")
    serial = universal_bound_id_oblivious(n, alphabet=alphabet)
    ckpt = str(tmp_path / "cross.json")
    with pytest.raises(BudgetExceededError):
        universal_bound_id_oblivious(
            n,
            alphabet=alphabet,
            workers=2,
            vectorize=False,
            budget=Budget(max_units=5),
            checkpoint_path=ckpt,
            checkpoint_every=1,
        )
    resumed = universal_bound_id_oblivious(
        n, alphabet=alphabet, workers=1, vectorize=True, resume=ckpt
    )
    assert resumed == serial


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
