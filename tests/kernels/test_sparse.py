"""Sparse dict-row mod-p elimination == dense engines, everywhere.

The sparse engine changes the row representation, not the elimination:
the pivot-column order mirrors the reference exactly, so ranks, budget
tick counts, and exhaustion boundaries must agree on every input at
every prime -- including p = 2, where it coexists with the GF(2)
bitset engines. ``rank_mod_p`` never picks it (dense inputs run the
batched engine whatever their density); the streamed pipeline runs it at
odd primes.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError
from repro.kernels import (
    rank_mod_p_sparse,
    rank_mod_p_sparse_rows,
    sparsify_rows,
)
from repro.partitions import DEFAULT_PRIMES, build_e_matrix, build_m_matrix, rank_mod_p
from repro.partitions.linalg import _modp_engine
from repro.resilience import Budget

PRIMES = (2, 3, 97, DEFAULT_PRIMES[0])


class TestSparsifyRows:
    def test_zero_entries_never_stored(self):
        rows = sparsify_rows([[0, 1, 0], [2, 0, 4]], 3)
        assert rows == [{1: 1}, {0: 2, 2: 1}]

    def test_values_reduced_into_range(self):
        rows = sparsify_rows([[-1, 7, 5]], 5)
        assert rows == [{0: 4, 1: 2}]
        assert all(1 <= v < 5 for row in rows for v in row.values())


class TestExhaustiveSmall:
    @pytest.mark.parametrize("p", [2, 3])
    def test_all_3x3_matrices_mod_p(self, p):
        for flat in product(range(p), repeat=9):
            matrix = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
            assert rank_mod_p_sparse(matrix, p) == rank_mod_p(
                matrix, p, kernel="reference"
            )

    def test_empty_shapes(self):
        assert rank_mod_p_sparse([], 7) == 0
        assert rank_mod_p_sparse_rows([{}], 0, 7) == 0


class TestPaperMatrices:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("p", [2, DEFAULT_PRIMES[0]])
    def test_m_matrix(self, n, p):
        _parts, matrix = build_m_matrix(n)
        assert rank_mod_p_sparse(matrix, p) == rank_mod_p(
            matrix, p, kernel="reference"
        )

    @pytest.mark.parametrize("n", [4, 6])
    def test_e_matrix(self, n):
        _matchings, matrix = build_e_matrix(n)
        for p in (2, DEFAULT_PRIMES[0]):
            assert rank_mod_p_sparse(matrix, p) == rank_mod_p(
                matrix, p, kernel="reference"
            )


class TestKernelMode:
    def test_rank_mod_p_dispatch(self):
        _parts, matrix = build_m_matrix(4)
        for p in PRIMES:
            ref = rank_mod_p(matrix, p, kernel="reference")
            assert rank_mod_p_sparse(matrix, p) == rank_mod_p(matrix, p) == ref

    def test_auto_ignores_density(self):
        # a nearly empty and a full matrix of one shape run the same engine
        side = 200
        thin = [[0] * side for _ in range(side)]
        for i in range(side):
            thin[i][i] = 1
        fat = [[1] * side for _ in range(side)]
        for matrix in (thin, fat):
            assert _modp_engine(DEFAULT_PRIMES[0], "auto", len(matrix)) == (
                "numpy-batched"
            )
        assert rank_mod_p_sparse(thin, DEFAULT_PRIMES[0]) == rank_mod_p(
            thin, DEFAULT_PRIMES[0]
        ) == side


class TestBudgetParity:
    @pytest.mark.parametrize("p", [2, DEFAULT_PRIMES[0]])
    def test_tick_counts_match_reference(self, p):
        _parts, matrix = build_m_matrix(4)
        b_fast, b_ref = Budget(max_units=10_000), Budget(max_units=10_000)
        assert rank_mod_p_sparse(matrix, p, b_fast) == rank_mod_p(
            matrix, p, b_ref, kernel="reference"
        )
        assert b_fast.units_done == b_ref.units_done

    def test_exhaustion_boundary_matches_reference(self):
        """BudgetExceededError fires at the same mid-elimination unit count."""
        p = DEFAULT_PRIMES[0]
        _parts, matrix = build_m_matrix(4)
        probe = Budget(max_units=10_000)
        rank_mod_p_sparse(matrix, p, probe)
        total = probe.units_done
        assert total >= 2
        for cutoff in (1, total // 2, total - 1):
            with pytest.raises(BudgetExceededError):
                rank_mod_p_sparse(matrix, p, Budget(max_units=cutoff))
            with pytest.raises(BudgetExceededError):
                rank_mod_p(matrix, p, Budget(max_units=cutoff), kernel="reference")
        assert rank_mod_p_sparse(
            matrix, p, Budget(max_units=total + 1)
        ) == rank_mod_p(matrix, p, Budget(max_units=total + 1), kernel="reference")


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from(PRIMES),
)
def test_hypothesis_sparse_equals_dense(matrix, p):
    ref = rank_mod_p(matrix, p, kernel="reference")
    assert rank_mod_p_sparse(matrix, p) == ref
