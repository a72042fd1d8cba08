"""The Partition matrices M_n and E_n and their ranks.

M_n is the B_n x B_n 0/1 matrix indexed by all set partitions of [n] with
M_n(i, j) = 1 iff P_i ∨ P_j = 1 (the trivial one-block partition).
Theorem 2.3 (Dowling-Wilson): rank(M_n) = B_n, i.e. M_n is non-singular.

E_n is the submatrix of M_n indexed by the perfect-matching partitions
(every block of size exactly 2); Lemma 4.1 shows rank(E_n) = r with
r = n!/(2^{n/2} (n/2)!), via the general fact that a principal submatrix of
a full-rank matrix on matching row/column sets has full rank.

By [KN97, Lemma 1.28] (Mehlhorn-Schmidt), the deterministic two-party
communication complexity of a Boolean function is at least log2 of the rank
of its communication matrix -- giving Corollaries 2.4 and 4.2:
D(Partition) = Omega(n log n) and D(TwoPartition) = Omega(n log n).

Two construction pipelines coexist:

* The *dense* pipeline (:func:`build_m_matrix` / :func:`build_e_matrix`)
  materializes the full B_n x B_n list-of-lists. Simple, and what the
  reference kernel needs -- but a Python list-of-lists row costs ~8 bytes
  per cell plus object overhead, so M_8 (4140^2 cells) already wants
  gigabytes and dominates wall time before the rank even starts.
* The *streamed* pipeline (:func:`streamed_matrix_rank` and friends)
  never materializes the dense matrix: row blocks of fixed size are
  generated straight from the partition pairs (sharded over the PR 4
  :class:`~repro.parallel.ShardPlan`, so construction parallelizes and
  each shard's seed/extent is deterministic), and each row is packed to
  a GF(2) bitset (``p = 2``) or a sparse dict (odd ``p``) the moment it
  is built. Peak memory is one block of column indices plus the compact
  row representations -- bits, not Python ints, per cell. Ranks agree
  exactly with the dense pipeline's (pinned by tests): the streamed
  GF(2) engines satisfy the PR 5 bit-identical contract, and the
  streamed exact rank runs the same certificate chain as
  :func:`repro.partitions.linalg.rank_exact` does for large matrices.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.spans import span
from repro.partitions.bell import bell_number, perfect_matching_count
from repro.partitions.enumeration import enumerate_partitions, enumerate_perfect_matchings
from repro.partitions.linalg import (
    DEFAULT_PRIMES,
    M4RI_ROW_THRESHOLD,
    is_full_rank,
    rank_exact,
)
from repro.kernels import join_to_top_matrix, join_to_top_supports
# joins_to_top stays importable here: perfbench/tracer.py wraps
# ``matrices.joins_to_top`` to count per-cell joins.
from repro.partitions.set_partition import SetPartition, joins_to_top  # noqa: F401

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

#: Rows per construction block of the streamed pipeline: bounds peak
#: memory (one block of column-index lists at a time) and is the shard
#: extent for parallel construction.
DEFAULT_BLOCK_ROWS = 256

#: ``streamed=None`` (auto) switches m/e_matrix_rank to the streamed
#: pipeline at or above this many rows -- the regime where the dense
#: list-of-lists build starts to dominate both memory and wall time.
STREAM_ROW_THRESHOLD = 1000

#: The two matrix families the streamed pipeline knows how to build.
MATRIX_FAMILIES = ("m", "e")


# ----------------------------------------------------------------------
# memoized enumeration (shared by every builder at the same n)
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _all_partitions_cached(n: int) -> Tuple[SetPartition, ...]:
    """All set partitions of [n] in RGS order, enumerated once per process."""
    return tuple(enumerate_partitions(n))


@lru_cache(maxsize=None)
def _all_matchings_cached(n: int) -> Tuple[SetPartition, ...]:
    """All perfect matchings of an even [n], enumerated once per process."""
    return tuple(enumerate_perfect_matchings(n))


def partitions_for(
    n: int, metrics: Optional[MetricsRegistry] = None
) -> Tuple[SetPartition, ...]:
    """Memoized ``enumerate_partitions(n)``; counts repeat hits.

    ``m_matrix_rank`` and every streamed M-block at the same ``n`` share
    one enumeration; each repeated call increments the
    ``partitions.enumeration_cache_hits`` counter (mirroring
    ``exhaustive.pair_cache_hits``) and costs one dict lookup.
    """
    if metrics is None:
        metrics = get_registry()
    hits_before = _all_partitions_cached.cache_info().hits
    table = _all_partitions_cached(n)
    if metrics is not None and _all_partitions_cached.cache_info().hits > hits_before:
        metrics.counter("partitions.enumeration_cache_hits").inc()
    return table


def matchings_for(
    n: int, metrics: Optional[MetricsRegistry] = None
) -> Tuple[SetPartition, ...]:
    """Memoized ``enumerate_perfect_matchings(n)``; counts repeat hits."""
    if metrics is None:
        metrics = get_registry()
    hits_before = _all_matchings_cached.cache_info().hits
    table = _all_matchings_cached(n)
    if metrics is not None and _all_matchings_cached.cache_info().hits > hits_before:
        metrics.counter("partitions.enumeration_cache_hits").inc()
    return table


def clear_enumeration_cache() -> None:
    """Drop the memoized partition/matching tables (tests; memory pressure)."""
    _all_partitions_cached.cache_clear()
    _all_matchings_cached.cache_clear()


def _family_table(family: str, n: int) -> Tuple[SetPartition, ...]:
    if family == "m":
        return partitions_for(n)
    if family == "e":
        return matchings_for(n)
    raise ValueError(
        f"unknown matrix family {family!r}; expected one of {', '.join(MATRIX_FAMILIES)}"
    )


# ----------------------------------------------------------------------
# dense pipeline
# ----------------------------------------------------------------------

def partition_matrix(partitions: Sequence[SetPartition]) -> List[List[int]]:
    """The 0/1 join-to-top matrix over an arbitrary partition family.

    Cell (i, j) is ``joins_to_top(partitions[i], partitions[j])``,
    answered a block of rows at a time by
    :func:`repro.kernels.join_to_top_matrix`.
    """
    return join_to_top_matrix(partitions, partitions)


def build_m_matrix(n: int) -> Tuple[List[SetPartition], List[List[int]]]:
    """All partitions of [n] and the full M_n matrix (B_n x B_n)."""
    partitions = list(partitions_for(n))
    return partitions, partition_matrix(partitions)


def build_e_matrix(n: int) -> Tuple[List[SetPartition], List[List[int]]]:
    """Perfect-matching partitions of an even [n] and the E_n matrix (r x r)."""
    matchings = list(matchings_for(n))
    return matchings, partition_matrix(matchings)


# ----------------------------------------------------------------------
# streamed pipeline
# ----------------------------------------------------------------------

def _stream_block_worker(payload: tuple) -> List[Tuple[int, ...]]:
    """Build rows [start, stop) of a family matrix as column-index tuples.

    Module-level and picklable (PR 4 executor contract). Each worker
    process re-derives the memoized partition table for ``n`` once; the
    wire format is just the nonzero column indices per row -- the
    compact truth of a 0/1 matrix, independent of the prime the caller
    will reduce at.
    """
    n, family, start, stop = payload
    table = _family_table(family, n)
    return join_to_top_supports(table[start:stop], table)


def stream_matrix_rows(
    n: int,
    family: str = "m",
    block_rows: int = DEFAULT_BLOCK_ROWS,
    workers: int = 1,
) -> Iterator[Tuple[int, List[Tuple[int, ...]]]]:
    """Yield ``(start_row, rows)`` blocks of a family matrix in row order.

    Rows are tuples of nonzero column indices, built straight from the
    partition pairs -- the dense matrix never exists. Blocks are the
    shards of a :class:`~repro.parallel.ShardPlan` over the row count
    (contiguous, balanced, deterministic), so the construction is
    embarrassingly parallel: with ``workers > 1`` the blocks are built
    by a :class:`~repro.parallel.ParallelExecutor` process pool and
    yielded in shard order, byte-identical to the serial build.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    table = _family_table(family, n)
    total = len(table)
    if total == 0:
        return
    from repro.parallel.shard import ShardPlan

    plan = ShardPlan(
        total=total,
        num_shards=max(1, math.ceil(total / block_rows)),
        base_seed=0,
    )
    payloads = [(n, family, shard.start, shard.stop) for shard in plan.shards()]
    if workers <= 1:
        for payload in payloads:
            yield payload[2], _stream_block_worker(payload)
        return
    from repro.parallel.executor import ParallelExecutor

    results = ParallelExecutor(workers=workers).map(_stream_block_worker, payloads)
    for payload, rows in zip(payloads, results):
        yield payload[2], rows


def _pack_col_tuple(cols_idx: Tuple[int, ...], ncols: int) -> int:
    """Column indices -> the packed GF(2) big-int row (bit c = column c)."""
    buf = bytearray((ncols + 7) >> 3)
    for c in cols_idx:
        buf[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(bytes(buf), "little")


def streamed_matrix_rank_mod_p(
    n: int,
    p: int,
    family: str = "m",
    budget: Optional["Budget"] = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    workers: int = 1,
    kernel: str = "auto",
) -> int:
    """Rank of M_n (``family="m"``) or E_n (``"e"``) mod ``p``, streamed.

    Each block of rows is converted to its compact representation the
    moment it is built: packed big-int bitsets at ``p = 2`` (eliminated
    by the Four-Russians engine above :data:`M4RI_ROW_THRESHOLD` rows in
    ``auto``, always under ``kernel="four-russians"``, else the packed
    engine) and sparse ``{col: 1}`` dicts at odd primes (the sparse
    engine -- the matrices this pipeline exists for are exactly the
    low-fill-in family where it wins; a dense engine would need the
    materialized matrix the pipeline avoids). ``kernel="reference"``
    raises ``ValueError``: the reference engine is defined on the dense
    matrix (use the dense pipeline to cross-check, as the tests do).
    Ranks, budget ticks, and exhaustion boundaries equal the dense
    pipeline's on every input.
    """
    from repro.kernels import (
        rank_gf2_m4ri,
        rank_gf2_packed,
        rank_mod_p_sparse_rows,
        resolve_kernel,
    )
    from repro.kernels import gf2 as _gf2

    if resolve_kernel(kernel) == "reference":
        raise ValueError(
            "streamed matrix pipeline requires a fast kernel family; "
            "use kernel='auto'/'packed'/'four-russians'/'sparse' "
            "(the dense pipeline serves kernel='reference')"
        )
    table = _family_table(family, n)
    total = len(table)
    with span(
        "partitions.streamed_rank_mod_p",
        rows=total,
        cols=total,
        p=p,
        family=family,
        workers=workers,
    ):
        if p == 2 and kernel != "sparse":
            packed: List[int] = []
            for _, rows in stream_matrix_rows(n, family, block_rows, workers):
                packed.extend(_pack_col_tuple(r, total) for r in rows)
            use_m4ri = kernel == "four-russians" or (
                kernel == "auto"
                and _gf2._np is not None
                and total >= M4RI_ROW_THRESHOLD
            )
            if use_m4ri:
                return rank_gf2_m4ri(packed, total, budget=budget)
            return rank_gf2_packed(packed, total, budget)
        sparse: List[Dict[int, int]] = []
        one = 1 % p
        for _, rows in stream_matrix_rows(n, family, block_rows, workers):
            sparse.extend({c: one for c in r} for r in rows)
        return rank_mod_p_sparse_rows(sparse, total, p, budget)


def streamed_matrix_rank(
    n: int,
    family: str = "m",
    primes: Sequence[int] = DEFAULT_PRIMES,
    budget: Optional["Budget"] = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    workers: int = 1,
    kernel: str = "auto",
) -> int:
    """Exact-certificate rank of a family matrix, fully streamed.

    The same certificate chain :func:`~repro.partitions.linalg.rank_exact`
    runs for large matrices: a *full* rank mod the first prime certifies
    the rational rank (short-circuit -- the common case, since
    Theorem 2.3 / Lemma 4.1 say M_n and E_n are non-singular);
    otherwise the maximum mod-p rank over the remaining primes is a
    certified lower bound, exact unless every listed prime divides the
    relevant minors. Construction cost is paid once per prime actually
    eliminated, never for the dense matrix.
    """
    table = _family_table(family, n)
    total = len(table)
    if total == 0:
        return 0
    with span("partitions.streamed_rank", rows=total, cols=total, family=family):
        first = streamed_matrix_rank_mod_p(
            n, primes[0], family, budget, block_rows, workers, kernel
        )
        if first == total:
            return first
        best = first
        for p in primes[1:]:
            best = max(
                best,
                streamed_matrix_rank_mod_p(
                    n, p, family, budget, block_rows, workers, kernel
                ),
            )
        return best


def _use_streamed(streamed: Optional[bool], total: int, kernel: str) -> bool:
    from repro.kernels import resolve_kernel

    if streamed is not None:
        return streamed
    return total >= STREAM_ROW_THRESHOLD and resolve_kernel(kernel) == "packed"


# ----------------------------------------------------------------------
# the paper's rank facts
# ----------------------------------------------------------------------

def m_matrix_rank(
    n: int,
    workers: int = 1,
    kernel: str = "auto",
    streamed: Optional[bool] = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> int:
    """rank(M_n), computed exactly; Theorem 2.3 predicts B_n.

    ``workers`` fans the multi-prime confirmation (dense) or the block
    construction (streamed) out; ``kernel`` picks the rank engine
    (``repro.kernels``) -- every mode returns the same value.
    ``streamed=None`` picks the streamed pipeline automatically at
    B_n >= :data:`STREAM_ROW_THRESHOLD` (never for
    ``kernel="reference"``, which is defined on the dense matrix).
    """
    total = bell_number(n)
    if _use_streamed(streamed, total, kernel):
        return streamed_matrix_rank(
            n, "m", workers=workers, kernel=kernel, block_rows=block_rows
        )
    _, matrix = build_m_matrix(n)
    return rank_exact(matrix, workers=workers, kernel=kernel)


def e_matrix_rank(
    n: int,
    workers: int = 1,
    kernel: str = "auto",
    streamed: Optional[bool] = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> int:
    """rank(E_n), computed exactly; Lemma 4.1 predicts n!/(2^{n/2}(n/2)!).

    Same knobs as :func:`m_matrix_rank`.
    """
    total = perfect_matching_count(n)
    if _use_streamed(streamed, total, kernel):
        return streamed_matrix_rank(
            n, "e", workers=workers, kernel=kernel, block_rows=block_rows
        )
    _, matrix = build_e_matrix(n)
    return rank_exact(matrix, workers=workers, kernel=kernel)


def m_matrix_is_full_rank(n: int, kernel: str = "auto") -> bool:
    """One-prime certificate that M_n is non-singular."""
    _, matrix = build_m_matrix(n)
    return is_full_rank(matrix, kernel=kernel)


def e_matrix_is_full_rank(n: int, kernel: str = "auto") -> bool:
    """One-prime certificate that E_n is non-singular."""
    _, matrix = build_e_matrix(n)
    return is_full_rank(matrix, kernel=kernel)


def partition_cc_lower_bound(n: int) -> float:
    """log2 rank(M_n) = log2 B_n bits (Corollary 2.4): a lower bound on the
    deterministic 2-party communication complexity of Partition."""
    return math.log2(bell_number(n))


def two_partition_cc_lower_bound(n: int) -> float:
    """log2 rank(E_n) = log2 r bits (Corollary 4.2) for even n."""
    return math.log2(perfect_matching_count(n))
