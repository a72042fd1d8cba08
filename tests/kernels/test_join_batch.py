"""Batched join-to-top rows == the per-cell ``joins_to_top`` predicate.

The kernel behind both matrix builders must reproduce, cell for cell,
``[[joins_to_top(p, q) for q in cols] for p in rows]``: on the whole M
and E families, on arbitrary row/column subsets in any order, on the
degenerate ground sets, with numpy present or absent, and through the
streamed pipeline at any worker count.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.join_batch as join_batch
from repro.errors import PartitionError
from repro.kernels import join_to_top_matrix, join_to_top_supports
from repro.partitions import (
    SetPartition,
    joins_to_top,
    matchings_for,
    partition_matrix,
    partitions_for,
    stream_matrix_rows,
)


def reference(rows, cols):
    return [[1 if joins_to_top(p, q) else 0 for q in cols] for p in rows]


def supports_of(matrix):
    return [tuple(j for j, v in enumerate(row) if v) for row in matrix]


def assert_kernel_matches(rows, cols):
    expected = reference(rows, cols)
    got = join_to_top_matrix(rows, cols)
    assert got == expected
    assert all(type(v) is int for row in got for v in row)
    assert join_to_top_supports(rows, cols) == supports_of(expected)


def no_numpy():
    return mock.patch.object(join_batch, "_np", None)


FAMILIES = [("m", n) for n in range(0, 7)] + [("e", n) for n in (2, 4, 6)]


def family(name, n):
    return partitions_for(n) if name == "m" else matchings_for(n)


class TestFamilies:
    @pytest.mark.parametrize("name,n", FAMILIES)
    def test_whole_family(self, name, n):
        table = family(name, n)
        assert_kernel_matches(table, table)

    @pytest.mark.parametrize("name,n", FAMILIES)
    def test_whole_family_without_numpy(self, name, n):
        table = family(name, n)
        with no_numpy():
            assert_kernel_matches(table, table)

    def test_partition_matrix_is_the_kernel(self):
        table = partitions_for(5)
        assert partition_matrix(table) == reference(table, table)


class TestEdgeCases:
    def test_n0_is_never_top(self):
        # [0] has one (empty) partition with no blocks: never one block
        table = partitions_for(0)
        assert join_to_top_matrix(table, table) == [[0]]
        assert join_to_top_supports(table, table) == [()]

    def test_n1_is_always_top(self):
        table = partitions_for(1)
        assert join_to_top_matrix(table, table) == [[1]]

    def test_n2(self):
        table = partitions_for(2)  # (1,2) and (1)(2)
        assert join_to_top_matrix(table, table) == [[1, 1], [1, 0]]

    def test_empty_sides(self):
        table = partitions_for(3)
        assert join_to_top_matrix([], table) == []
        assert join_to_top_matrix(table, []) == [[] for _ in table]
        assert join_to_top_supports(table, []) == [() for _ in table]

    def test_mixed_ground_sets_raise(self):
        with pytest.raises(PartitionError):
            join_to_top_matrix(partitions_for(3), partitions_for(4))
        with no_numpy(), pytest.raises(PartitionError):
            join_to_top_matrix(partitions_for(3), partitions_for(4))

    def test_past_word_size_falls_back(self):
        n = 70
        halves = SetPartition(n, [range(1, 36), range(36, n + 1)])
        bridge = SetPartition(n, [[35, 36]] + [[x] for x in range(1, n + 1) if x not in (35, 36)])
        finest = SetPartition.finest(n)
        rows = [halves, finest]
        cols = [bridge, finest, SetPartition.coarsest(n)]
        assert join_to_top_matrix(rows, cols) == [[1, 0, 1], [0, 0, 1]]


def partitions_of(n):
    labels = st.lists(st.integers(0, max(0, n - 1)), min_size=n, max_size=n)
    return labels.map(SetPartition.from_rgs)


@st.composite
def row_col_families(draw, max_n=18):
    n = draw(st.integers(0, max_n))
    rows = draw(st.lists(partitions_of(n), max_size=12))
    cols = draw(st.lists(partitions_of(n), max_size=12))
    return rows, cols


@settings(max_examples=150, deadline=None)
@given(row_col_families())
def test_random_partitions_match_reference(families):
    rows, cols = families
    assert_kernel_matches(rows, cols)


@settings(max_examples=40, deadline=None)
@given(row_col_families(max_n=8))
def test_random_partitions_match_reference_without_numpy(families):
    rows, cols = families
    with no_numpy():
        assert_kernel_matches(rows, cols)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.randoms(use_true_random=False),
    st.integers(0, 30),
    st.integers(0, 30),
)
def test_family_subsets_in_any_order(name_n, rng, row_count, col_count):
    table = list(family(*name_n))
    rows = [rng.choice(table) for _ in range(min(row_count, 4 * len(table)))]
    cols = rng.sample(table, min(col_count, len(table)))
    assert_kernel_matches(rows, cols)


class TestStreamedRows:
    @pytest.mark.parametrize("name,n", [("m", 5), ("m", 6), ("e", 6)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_streamed_rows_equal_dense_rows(self, name, n, workers):
        dense = supports_of(partition_matrix(family(name, n)))
        streamed = [
            row
            for _, rows in stream_matrix_rows(n, name, block_rows=37, workers=workers)
            for row in rows
        ]
        assert streamed == dense
