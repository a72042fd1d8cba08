"""Lazy vs eager reduction in the batched mod-p kernel.

The kernel skips reducing the trailing block when
``p + k*(p-1)^2 <= 2^63 - 1`` (``k = min(rows, cols)`` pivots at most)
and reduces after every update otherwise. These tests pin the bound on
both sides for the default primes, check which branch each prime takes,
and compare both branches with the pure-python reference on max-residue
and rank-deficient matrices -- including ones taller than an update
chunk.
"""

import random
from unittest import mock

import pytest

import repro.kernels.modp as modp
from repro.kernels import lazy_reduction_safe, rank_mod_p_batched
from repro.partitions.linalg import _rank_mod_p_python
from repro.resilience import Budget

needs_numpy = pytest.mark.skipif(not modp.HAVE_NUMPY, reason="numpy not available")

INT64_MAX = 2**63 - 1
MERSENNE = 2_147_483_647
LAZY_PRIMES = (1_000_003, 999_983)


def max_lazy_pivots(p):
    """The largest k with p + k*(p-1)^2 <= 2^63 - 1."""
    return (INT64_MAX - p) // ((p - 1) ** 2)


class TestBound:
    @pytest.mark.parametrize("p", LAZY_PRIMES + (MERSENNE,))
    def test_both_sides_of_the_boundary(self, p):
        k = max_lazy_pivots(p)
        assert p + k * (p - 1) ** 2 <= INT64_MAX < p + (k + 1) * (p - 1) ** 2
        assert lazy_reduction_safe(p, k)
        assert not lazy_reduction_safe(p, k + 1)

    def test_default_primes_are_lazy_for_any_realistic_size(self):
        for p in LAZY_PRIMES:
            assert max_lazy_pivots(p) > 9_000_000

    def test_mersenne_is_lazy_only_up_to_two_pivots(self):
        assert max_lazy_pivots(MERSENNE) == 2
        assert lazy_reduction_safe(MERSENNE, 2)
        assert not lazy_reduction_safe(MERSENNE, 3)


def branch_taken(matrix, p):
    """The lazy flag the kernel chose for ``matrix`` (spied, not inferred)."""
    seen = []

    def spy(prime, pivots):
        result = lazy_reduction_safe(prime, pivots)
        seen.append(result)
        return result

    with mock.patch.object(modp, "lazy_reduction_safe", spy):
        rank_mod_p_batched(matrix, p)
    assert len(seen) == 1
    return seen[0]


@needs_numpy
class TestBranchChoice:
    def test_lazy_primes_reduce_lazily(self):
        matrix = [[(i * j + 1) % 7 for j in range(6)] for i in range(6)]
        for p in LAZY_PRIMES:
            assert branch_taken(matrix, p) is True

    def test_mersenne_reduces_eagerly(self):
        matrix = [[MERSENNE - 1] * 3 for _ in range(3)]
        assert branch_taken(matrix, MERSENNE) is False

    def test_mersenne_two_pivot_matrix_is_lazy(self):
        # k = min(rows, cols): a 2-column matrix has at most two pivots
        matrix = [[MERSENNE - 1, MERSENNE - 2] for _ in range(5)]
        assert branch_taken(matrix, MERSENNE) is True
        assert rank_mod_p_batched(matrix, MERSENNE) == _rank_mod_p_python(
            matrix, MERSENNE
        )


def assert_matches_reference(matrix, p):
    b_fast, b_ref = Budget(max_units=10**7), Budget(max_units=10**7)
    assert rank_mod_p_batched(matrix, p, b_fast) == _rank_mod_p_python(
        matrix, p, b_ref
    )
    assert b_fast.units_done == b_ref.units_done


def low_rank(rng, rows, cols, rank, p, residues=None):
    """A rows x cols matrix of rank <= ``rank`` mod p (a product B @ C)."""
    pick = (lambda: rng.choice(residues)) if residues else (lambda: rng.randrange(p))
    left = [[pick() for _ in range(rank)] for _ in range(rows)]
    right = [[pick() for _ in range(cols)] for _ in range(rank)]
    return [
        [sum(left[i][t] * right[t][j] for t in range(rank)) % p for j in range(cols)]
        for i in range(rows)
    ]


@needs_numpy
class TestAgainstReference:
    @pytest.mark.parametrize("p", LAZY_PRIMES + (MERSENNE,))
    @pytest.mark.parametrize("size", [2, 3, 9, 40])
    def test_max_residue_matrices(self, p, size):
        rng = random.Random(size * 31 + p % 97)
        for _ in range(6):
            matrix = [
                [rng.choice([p - 1, p - 2, 1, 0]) for _ in range(size)]
                for _ in range(size)
            ]
            assert_matches_reference(matrix, p)

    @pytest.mark.parametrize("p", LAZY_PRIMES + (MERSENNE,))
    def test_all_max_residue_is_rank_one(self, p):
        matrix = [[p - 1] * 30 for _ in range(30)]
        assert rank_mod_p_batched(matrix, p) == 1

    @pytest.mark.parametrize("p", LAZY_PRIMES + (MERSENNE,))
    @pytest.mark.parametrize("shape", [(150, 24), (24, 150), (70, 70)])
    def test_rank_deficient_random(self, p, shape):
        # taller than UPDATE_CHUNK_ROWS, so updates span several chunks
        rows, cols = shape
        rng = random.Random(rows * 1000 + cols)
        for rank in (0, 1, 5, 17):
            matrix = low_rank(rng, rows, cols, rank, p)
            assert_matches_reference(matrix, p)
        matrix = low_rank(rng, rows, cols, 9, p, residues=[0, 1, p - 1, p - 2])
        assert_matches_reference(matrix, p)

    def test_entries_past_int64_are_reduced_exactly(self):
        p = LAZY_PRIMES[0]
        matrix = [[2**70 + 1, -(2**65)], [3, 2**64]]
        assert_matches_reference(matrix, p)
