"""Batched join-to-top rows of the partition matrices M_n / E_n.

Cell (P, Q) of a partition matrix is 1 iff the join P ∨ Q is the
one-block partition. The reference predicate
(:func:`repro.partitions.set_partition.joins_to_top`) answers one cell
with a Python union-find, so a B_n x B_n matrix costs B_n^2 interpreted
union-finds. This kernel answers a **block of rows against every column
at once** in a few numpy passes, reusing the
:mod:`repro.kernels.crossing_batch` idiom of encoding structure into
integer arrays:

* every column partition Q is encoded once as its row of block labels
  (its restricted growth string: ``labels[q, x]`` is the block of
  element ``x + 1``);
* for each row partition P, element ``x`` carries the bit of its
  P-block; scattering those bits by Q's labels gives, per (P, Q) and
  per Q-block, the mask of P-blocks that Q-block touches;
* the join is the connectivity of the "shares an element" graph
  between P-blocks and Q-blocks, so starting from the Q-block of
  element 1 and repeatedly OR-ing in every Q-block mask that meets the
  reached set reaches all of P's blocks iff P ∨ Q is the top.

Each closure pass either reaches a new P-block or changes nothing, so
a row block settles within ``#blocks(P)`` passes. Answers equal the
reference predicate's cell for cell, including the degenerate ground
set ``n = 0`` (no blocks, never the one-block partition). Without numpy
-- or past 64 elements, where the block masks outgrow a machine word --
the kernel runs the reference predicate cell by cell.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

from repro.errors import PartitionError

if TYPE_CHECKING:  # the partitions package imports this one at runtime
    from repro.partitions.set_partition import SetPartition

try:  # optional accelerator; the per-cell predicate is the fallback
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is installed in CI
    _np = None

__all__ = ["HAVE_NUMPY", "join_to_top_matrix", "join_to_top_supports"]

#: True when numpy imported; callers need not check -- this module falls
#: back internally.
HAVE_NUMPY = _np is not None

#: Cells (rows x columns x column blocks) of one batched mask block: rows
#: are grouped so each block's temporaries stay around a megabyte.
_BLOCK_CELLS = 1 << 17

#: Largest ground set the word-sized block masks can encode.
_MAX_BATCHED_N = 64


def _ground(rows: Sequence["SetPartition"], cols: Sequence["SetPartition"]) -> int:
    """The common ground-set size; mixed ground sets raise like the predicate."""
    sizes = {p.n for p in rows} | {q.n for q in cols}
    if len(sizes) > 1:
        raise PartitionError(
            f"partitions over different ground sets: {sorted(sizes)}"
        )
    return sizes.pop() if sizes else 0


def _batched(n: int) -> bool:
    return _np is not None and n <= _MAX_BATCHED_N


def _reference_rows(
    rows: Sequence["SetPartition"], cols: Sequence["SetPartition"]
) -> List[List[bool]]:
    from repro.partitions.set_partition import joins_to_top

    return [[joins_to_top(p, q) for q in cols] for p in rows]


def _top_blocks(
    rows: Sequence["SetPartition"], cols: Sequence["SetPartition"], n: int
) -> Iterator["_np.ndarray"]:
    """Boolean (rows x cols) join-to-top blocks, a group of rows at a time."""
    if n == 0 or not cols:
        yield _np.zeros((len(rows), len(cols)), dtype=bool)
        return
    dtype = _np.uint8 if n <= 8 else _np.uint16 if n <= 16 else (
        _np.uint32 if n <= 32 else _np.uint64
    )
    labels = _np.array([q.rgs() for q in cols], dtype=_np.intp)
    ncols = len(cols)
    width = int(labels.max()) + 1  # most blocks of any column
    # slot[x, q]: flat (Q-block, column) cell that element x + 1 lands in
    slot = labels.T * ncols + _np.arange(ncols)
    step = max(1, _BLOCK_CELLS // (ncols * width))
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        bits = _np.left_shift(dtype(1), _np.array([p.rgs() for p in chunk], dtype=dtype))
        full = _np.bitwise_or.reduce(bits, axis=1)  # all of P's blocks
        # masks[r, b, q]: the P_r-blocks that block b of Q_q touches
        masks = _np.zeros((len(chunk), width * ncols), dtype=dtype)
        for x in range(n):
            masks[:, slot[x]] |= bits[:, x, None]
        reached = masks[:, slot[0]]
        masks = masks.reshape(len(chunk), width, ncols)
        meets = _np.empty_like(reached)
        while True:
            before = reached.copy()
            # in-place sweep: a block reached early in the pass already
            # widens the test for the blocks after it
            for b in range(width):
                block = masks[:, b, :]
                _np.bitwise_and(block, reached, out=meets)
                _np.not_equal(meets, 0, out=meets)
                _np.multiply(meets, block, out=meets)
                reached |= meets
            if _np.array_equal(before, reached):
                break
        yield reached == full[:, None]


def join_to_top_matrix(
    rows: Sequence["SetPartition"], cols: Sequence["SetPartition"]
) -> List[List[int]]:
    """The 0/1 matrix ``[[joins_to_top(p, q) for q in cols] for p in rows]``."""
    n = _ground(rows, cols)
    if not _batched(n):
        return [[1 if top else 0 for top in row] for row in _reference_rows(rows, cols)]
    out: List[List[int]] = []
    for block in _top_blocks(rows, cols, n):
        out.extend(block.astype(_np.uint8).tolist())
    return out


def join_to_top_supports(
    rows: Sequence["SetPartition"], cols: Sequence["SetPartition"]
) -> List[Tuple[int, ...]]:
    """Per row, the indices of the columns ``q`` with ``joins_to_top(p, q)``."""
    n = _ground(rows, cols)
    if not _batched(n):
        return [
            tuple(j for j, top in enumerate(row) if top)
            for row in _reference_rows(rows, cols)
        ]
    return [
        tuple(_np.flatnonzero(row).tolist())
        for block in _top_blocks(rows, cols, n)
        for row in block
    ]
