"""Four-Russians GF(2) elimination == packed == reference, everywhere.

The M4RI engine reorganizes the *work* of the elimination (per-block XOR
tables instead of per-pivot row fixups) but not its mathematics: ranks,
budget tick counts, and exhaustion boundaries must equal both the packed
bitset engine's and the pure-python reference's on every input, at every
block width k.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError
from repro.kernels import (
    M4RI_DEFAULT_K,
    pack_rows,
    rank_gf2,
    rank_gf2_four_russians,
    rank_gf2_m4ri,
    rank_gf2_packed,
)
from repro.partitions import build_e_matrix, build_m_matrix, rank_mod_p
from repro.partitions.linalg import M4RI_ROW_THRESHOLD
from repro.resilience import Budget


def _reference_rank2(matrix):
    return rank_mod_p(matrix, 2, kernel="reference")


class TestExhaustiveSmall:
    def test_all_3x3_binary_matrices_every_k(self):
        for flat in product((0, 1), repeat=9):
            matrix = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
            ref = _reference_rank2(matrix)
            for k in (1, 2, 3, 8):
                assert rank_gf2_four_russians(matrix, k=k) == ref

    def test_empty_shapes(self):
        assert rank_gf2_m4ri([], 5) == 0
        assert rank_gf2_m4ri([0b1], 0) == 0


class TestBlockBoundaries:
    """Block widths that straddle the 64-bit word boundary of the numpy path."""

    @pytest.mark.parametrize("cols", [63, 64, 65, 127, 128, 130])
    @pytest.mark.parametrize("k", [7, 8, 13])
    def test_word_straddling_blocks(self, cols, k):
        import random

        rng = random.Random(cols * 1000 + k)
        matrix = [
            [rng.randrange(2) for _ in range(cols)] for _ in range(17)
        ]
        packed = pack_rows(matrix)
        assert rank_gf2_m4ri(list(packed), cols, k=k) == rank_gf2_packed(
            list(packed), cols
        )

    @pytest.mark.parametrize("bad_k", [0, -1, 17])
    def test_block_width_validated(self, bad_k):
        with pytest.raises(ValueError):
            rank_gf2_m4ri([0b1], 1, k=bad_k)


class TestPaperMatrices:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_m_matrix(self, n):
        _parts, matrix = build_m_matrix(n)
        assert rank_gf2_four_russians(matrix) == _reference_rank2(matrix)

    @pytest.mark.parametrize("n", [4, 6])
    def test_e_matrix(self, n):
        _matchings, matrix = build_e_matrix(n)
        assert rank_gf2_four_russians(matrix) == _reference_rank2(matrix)

    def test_m4_rank_collapse_is_preserved(self):
        _parts, matrix = build_m_matrix(4)
        assert rank_gf2_four_russians(matrix) == 8


def _tall_m4():
    """M_4's rows repeated past the M4RI row threshold (rank_2 stays 8)."""
    _parts, m4 = build_m_matrix(4)
    tall = m4 * (M4RI_ROW_THRESHOLD // len(m4) + 1)
    assert len(tall) >= M4RI_ROW_THRESHOLD
    return tall


class TestKernelMode:
    def test_rank_mod_p_dispatch(self):
        # auto runs M4RI at p = 2 from the row threshold on
        tall = _tall_m4()
        assert rank_mod_p(tall, 2) == rank_mod_p(tall, 2, kernel="reference") == 8

    def test_odd_primes_unaffected(self):
        # M4RI is a GF(2) engine; odd primes never reach it
        tall = _tall_m4()
        for p in (3, 1_000_003):
            assert rank_mod_p(tall, p) == rank_mod_p(tall, p, kernel="reference")


class TestBudgetParity:
    def test_tick_counts_match_reference(self):
        _parts, matrix = build_m_matrix(4)
        b_fast, b_ref = Budget(max_units=10_000), Budget(max_units=10_000)
        assert rank_gf2_four_russians(matrix, k=3, budget=b_fast) == rank_mod_p(
            matrix, 2, b_ref, kernel="reference"
        )
        assert b_fast.units_done == b_ref.units_done

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_exhaustion_boundary_matches_reference(self, k):
        """BudgetExceededError fires at the same mid-elimination unit count."""
        _parts, matrix = build_m_matrix(4)
        probe = Budget(max_units=10_000)
        rank_gf2_four_russians(matrix, k=k, budget=probe)
        total = probe.units_done
        assert total >= 2
        for cutoff in (1, total // 2, total - 1):
            with pytest.raises(BudgetExceededError):
                rank_gf2_four_russians(matrix, k=k, budget=Budget(max_units=cutoff))
            with pytest.raises(BudgetExceededError):
                rank_mod_p(matrix, 2, Budget(max_units=cutoff), kernel="reference")
        # one more unit than ticks needed: all engines complete
        assert rank_gf2_four_russians(
            matrix, k=k, budget=Budget(max_units=total + 1)
        ) == rank_mod_p(matrix, 2, Budget(max_units=total + 1), kernel="reference")


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([1, 2, 3, M4RI_DEFAULT_K]),
)
def test_hypothesis_m4ri_equals_packed_equals_reference(matrix, k):
    ref = _reference_rank2(matrix)
    assert rank_gf2(matrix) == ref
    assert rank_gf2_four_russians(matrix, k=k) == ref
