"""Vectorized exhaustive kernel: exact float equality with the python scan."""

import itertools

import pytest

from repro.lowerbounds import covers_and_pairs_for, forced_error_of_assignment
from repro.lowerbounds.exhaustive import _scan_shard_python
from repro.lowerbounds.vectorized import block_scores, scan_assignments
from repro.resilience import Budget


@pytest.mark.parametrize(
    "n,alphabet",
    [(3, ("0", "1")), (3, ("", "0", "1")), (4, ("0", "1")), (4, ("", "0", "1"))],
)
def test_block_scores_bit_identical_over_full_space(n, alphabet):
    """Exact ``==`` on every float, over the entire enumerable space.

    The kernel promises bit-identity, not closeness: it accumulates the
    per-cover error terms with the same elementwise float operations and
    in the same cover order as the serial scorer.
    """
    table = [(c, list(p)) for c, p in covers_and_pairs_for(n)]
    total = len(alphabet) ** n
    errors, fooled = block_scores(n, alphabet, table, 0, total)
    for index, assignment in enumerate(itertools.product(alphabet, repeat=n)):
        expected = forced_error_of_assignment(n, assignment, table)
        assert float(errors[index]) == expected  # exact, no approx


@pytest.mark.parametrize("block_size", [1, 3, 1024])
def test_scan_matches_python_scan_exactly(block_size):
    n, alphabet = 4, ("", "0", "1")
    table = [(c, tuple(p)) for c, p in covers_and_pairs_for(n)]
    total = len(alphabet) ** n
    py = _scan_shard_python(n, alphabet, table, 0, total, None)
    vec = scan_assignments(
        n, alphabet, table, 0, total, block_size=block_size
    )
    assert vec == py  # best (error, index), next_index, counts, exhausted


def test_scan_respects_shard_slices():
    n, alphabet = 4, ("0", "1")
    table = [(c, tuple(p)) for c, p in covers_and_pairs_for(n)]
    total = len(alphabet) ** n
    cut = total // 3
    left = scan_assignments(n, alphabet, table, 0, cut)
    right = scan_assignments(n, alphabet, table, cut, total)
    assert left[1] == cut and right[1] == total
    assert left[2] + right[2] == total
    full = scan_assignments(n, alphabet, table, 0, total)
    assert full[3] == left[3] + right[3]  # fooled counts are additive


def test_scan_budget_semantics_match_python_scan():
    n, alphabet = 3, ("0", "1")
    table = [(c, tuple(p)) for c, p in covers_and_pairs_for(n)]
    total = len(alphabet) ** n
    for units in (1, total - 1, total, total + 5):
        py = _scan_shard_python(
            n, alphabet, table, 0, total, Budget(max_units=units)
        )
        vec = scan_assignments(
            n, alphabet, table, 0, total, budget=Budget(max_units=units),
            block_size=1,
        )
        assert vec == py
