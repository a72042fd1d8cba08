"""P2 -- the ``repro.parallel`` execution layer, timed honestly.

Three questions, all answered on the same exhaustive-search instance so
the numbers are comparable:

1. What does sharding itself cost? (``ShardPlan`` + merge on a trivial
   workload, no processes.)
2. What does process fan-out buy -- or cost -- on this machine?
   (``workers=4`` vs serial; on a single-core CI runner the answer is
   honestly *negative*, which is exactly why the perf gate keys bench
   history on worker count instead of asserting a speedup here.)
3. What does the vectorized numpy kernel buy? (This is the
   machine-independent win: one python-level pass per block instead of
   per assignment.)

Correctness -- bit-identical reports across all three execution modes --
is asserted; speed is only printed.
"""

import pytest

from repro.analysis import print_table
from repro.lowerbounds import clear_pair_cache, universal_bound_id_oblivious
from repro.parallel import MIN_KEYED, ShardPlan


def test_shard_plan_overhead(benchmark):
    """Planning + a monoid fold over 64 shards: pure orchestration cost."""

    def kernel():
        plan = ShardPlan(total=1 << 20, num_shards=64, base_seed=7)
        partials = [(float(s.start % 97) / 97.0, s.start) for s in plan.shards()]
        return plan, MIN_KEYED.fold(partials)

    plan, best = benchmark(kernel)
    print_table(
        "P2: shard-plan overhead (2^20 units, 64 shards)",
        ["shards", "units total", "best key"],
        [[len(plan.shards()), sum(s.size for s in plan.shards()), best[0]]],
    )
    assert sum(s.size for s in plan.shards()) == 1 << 20
    assert best is not None


@pytest.mark.parametrize("workers", [1, 4])
def test_fanout(benchmark, workers):
    """Serial vs 4-process fan-out on n=4, |alphabet|=3 (81 assignments).

    The assertion is identity, not speed: on the 1-CPU runners this
    repo benches on, fan-out *loses* to serial (process spawn dominates)
    and the table says so.
    """
    n, alphabet = 4, ("", "0", "1")
    clear_pair_cache()
    serial = universal_bound_id_oblivious(n, alphabet=alphabet)
    report = benchmark(
        universal_bound_id_oblivious,
        n,
        alphabet=alphabet,
        workers=workers,
        vectorize=False,
    )
    print_table(
        f"P2: exhaustive fan-out (n={n}, |alphabet|={len(alphabet)}, workers={workers})",
        ["workers", "class size", "min forced error", "identical to serial"],
        [
            [
                workers,
                report.class_size,
                report.minimum_forced_error,
                report == serial,
            ]
        ],
    )
    assert report == serial


@pytest.mark.parametrize("n", [6, 7])
def test_vectorized_kernel(benchmark, n):
    """Vectorized vs python scan at n=6/7: the machine-independent win."""
    clear_pair_cache()
    serial = universal_bound_id_oblivious(n, alphabet=("0", "1"))
    report = benchmark(
        universal_bound_id_oblivious, n, alphabet=("0", "1"), vectorize=True
    )
    print_table(
        f"P2: vectorized exhaustive scan (n={n}, binary alphabet)",
        ["n", "class size", "min forced error", "identical to python scan"],
        [[n, report.class_size, report.minimum_forced_error, report == serial]],
    )
    assert report == serial
