"""Batched mod-p rank over numpy int64 row blocks.

The reference engine eliminates entry by entry in Python; this kernel
does one vectorized pivot search per column (``flatnonzero`` over the
reduced column slice), one row normalization, and an outer-product
update of exactly the cells a pivot can change: the rows below it whose
factor in the pivot column is nonzero, and only the columns right of
the pivot column (everything left of it is already eliminated and never
read again). The selected rows are gathered, updated and scattered
back in chunks of :data:`UPDATE_CHUNK_ROWS`, so the temporaries stay
bounded however many rows a pivot touches.

Overflow safety, pinned by ``tests/kernels/test_modp.py`` and
``tests/kernels/test_modp_lazy.py``. Every factor
and every normalized pivot-row entry is a residue in ``[0, p)``, so one
update subtracts at most ``(p-1)^2`` from a cell. A cell receives at
most one update per pivot, and an ``r x c`` matrix has at most
``k = min(r, c)`` pivots, so a cell that starts in ``[0, p)`` and is
never reduced stays within ``p + k*(p-1)^2`` in magnitude. Two regimes
follow:

* **Lazy** (:func:`lazy_reduction_safe`): when
  ``p + k*(p-1)^2 <= 2^63 - 1`` the trailing block is never reduced;
  only the pivot column (to pick the pivot and the factors) and the
  pivot row (before normalizing it) are taken ``mod p`` at each step.
  The default primes 1,000,003 and 999,983 are lazy for any matrix
  with fewer than ~9.2 million pivots.
* **Eager**: otherwise every updated block is reduced right after its
  update, as the original kernel did, so each cell is back in
  ``[0, p)`` before the next pivot and the largest intermediate is
  ``-(p-1)^2``. For the Mersenne prime ``p = 2^31 - 1`` (the largest
  default prime) ``(p-1)^2 = 2^62 - 2^33 + 4``, so the lazy bound holds
  only for ``k <= 2`` and every larger matrix reduces eagerly.
  :func:`batched_modp_supported` encodes the eager bound; a prime past
  it runs the pure-python reference instead.

Bit-identical contract: mod-p rank and the per-column pivot structure
are mathematically determined, the column loop ticks the
:class:`~repro.resilience.Budget` once per column before the pivot
search, and the loop breaks after ``rows`` pivots -- all exactly like
the reference, so results *and* budget boundaries agree on every input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as _np

if TYPE_CHECKING:  # runtime-import-free, like partitions.linalg
    from repro.resilience.budget import Budget

Matrix = Sequence[Sequence[int]]

__all__ = [
    "UPDATE_CHUNK_ROWS",
    "batched_modp_supported",
    "lazy_reduction_safe",
    "rank_mod_p_batched",
]

_INT64_MAX = 2**63 - 1

#: Rows per gathered update chunk: bounds the copy a pivot's update
#: makes, whatever the number of rows it touches.
UPDATE_CHUNK_ROWS = 64


def batched_modp_supported(p: int) -> bool:
    """True when the int64 reduction is overflow-safe at prime ``p``.

    The update computes ``a[r][c] - factor * pivot[c]`` with all values
    in ``[0, p)``, so the extreme intermediates are ``-(p-1)^2`` and
    ``p - 1``; both must fit signed 64-bit.
    """
    return (p - 1) * (p - 1) + (p - 1) <= _INT64_MAX


def lazy_reduction_safe(p: int, pivots: int) -> bool:
    """True when ``pivots`` unreduced updates cannot overflow int64 at ``p``.

    A cell starts in ``[0, p)`` and loses at most ``(p-1)^2`` per pivot,
    so ``p + pivots*(p-1)^2`` bounds its magnitude.
    """
    return p + pivots * (p - 1) * (p - 1) <= _INT64_MAX


def _to_int64(matrix: Matrix, p: int):
    """The matrix reduced mod ``p`` as an int64 array."""
    try:
        a = _np.array(matrix, dtype=_np.int64)
    except (OverflowError, TypeError):  # entries past int64: reduce in python
        return _np.asarray(
            [[int(x) % p for x in row] for row in matrix], dtype=_np.int64
        )
    a %= p
    return a


def rank_mod_p_batched(
    matrix: Matrix, p: int, budget: Optional["Budget"] = None
) -> int:
    """Rank over GF(p) with batched numpy elimination.

    Requires :func:`batched_modp_supported`; ``repro.partitions.linalg``
    checks it and runs the pure-python reference otherwise -- this
    function raises ``RuntimeError`` on an unsupported prime (a
    programming error, not a user error).
    """
    if not batched_modp_supported(p):
        raise RuntimeError(
            f"prime {p} overflows the int64 reduction; use the reference engine"
        )
    a = _to_int64(matrix, p)
    if a.size == 0:
        return 0
    rows, cols = a.shape
    lazy = lazy_reduction_safe(p, min(rows, cols))
    rank = 0
    pivot_row = 0
    for col in range(cols):
        if budget is not None:
            budget.tick()
        column = a[pivot_row:, col] % p
        nonzero = _np.flatnonzero(column)
        if not nonzero.size:
            continue
        pivot = pivot_row + int(nonzero[0])
        if pivot != pivot_row:
            a[[pivot_row, pivot], col:] = a[[pivot, pivot_row], col:]
            column[[0, pivot - pivot_row]] = column[[pivot - pivot_row, 0]]
        inv = pow(int(column[0]), p - 2, p)
        row_p = (a[pivot_row, col + 1 :] % p) * inv % p
        # only rows with a nonzero factor change, and only right of col
        factors = column[1:]
        below = _np.flatnonzero(factors)
        for start in range(0, below.size, UPDATE_CHUNK_ROWS):
            chunk = below[start : start + UPDATE_CHUNK_ROWS]
            rows_idx = chunk + (pivot_row + 1)
            block = a[rows_idx, col + 1 :]
            block -= factors[chunk, None] * row_p[None, :]
            if not lazy:
                block %= p
            a[rows_idx, col + 1 :] = block
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank
