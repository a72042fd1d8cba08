"""Vectorized (numpy) scoring kernel for the exhaustive universal-bound search.

The pure-python inner loop of
:func:`repro.lowerbounds.exhaustive.universal_bound_id_oblivious` scores
one broadcast assignment at a time: for every one-cycle cover, count the
disconnecting directed pairs the assignment *fools* (head IDs and tail
IDs agree under the assignment), then charge the optimal output rule the
cheaper of its YES-side mass and its fooled NO-side mass. This module
scores **blocks** of assignments at once:

* assignments are addressed by their global enumeration index in
  ``itertools.product(alphabet, repeat=n)`` order (most-significant
  digit first) and materialized as a ``(block, n)`` digit matrix with
  one ``divmod``-free broadcasted integer divide;
* the per-cover pair tables ``(v1, u1, v2, u2)`` are precomputed once,
  and each cover's fooled count is a vectorized
  ``(a[:, v1] == a[:, v2]) & (a[:, u1] == a[:, u2])`` row-sum;
* the forced error accumulates **per cover, in cover order**, with the
  exact elementwise float operations of the serial scorer
  (``error += min(0.5/|V1|, 0.5 * count / total)``), so the kernel is
  **bit-identical** to the pure-python path -- not merely close. The
  cross-check tests assert exact float equality over the full
  enumerable space at small n.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as _np

from repro.errors import BudgetExceededError

__all__ = ["ScoreTables", "block_scores", "scan_assignments"]

#: (best_error, best_global_index) -- None until a block has been scored.
Best = Optional[Tuple[float, int]]


def _digit_block(base: int, n: int, start: int, stop: int):
    """Digit matrix ``(stop-start, n)`` for global indices ``[start, stop)``.

    Row ``i`` holds the base-``base`` digits of ``start + i``,
    most-significant first -- exactly the ``itertools.product`` order the
    serial enumeration walks.
    """
    idx = _np.arange(start, stop, dtype=_np.int64)
    pows = base ** _np.arange(n - 1, -1, -1, dtype=_np.int64)
    return (idx[:, None] // pows[None, :]) % base


class ScoreTables:
    """Precomputed pair tables for one ``(n, alphabet, covers)`` problem.

    ``canon`` maps each digit to the first digit carrying the same
    symbol, so duplicate alphabet entries (legal, if pointless) compare
    equal exactly as the string comparison in the serial scorer does.
    Covers with no disconnecting pairs are dropped from the tables: their
    serial contribution is an exact ``+0.0`` per assignment.
    """

    __slots__ = ("n", "base", "num_covers", "canon", "cover_pairs")

    def __init__(
        self,
        n: int,
        alphabet: Sequence[str],
        covers_and_pairs: Sequence[Tuple[Any, Sequence[Tuple]]],
    ):
        self.n = n
        self.base = len(alphabet)
        self.num_covers = len(covers_and_pairs)
        symbols = list(alphabet)
        self.canon = _np.array(
            [symbols.index(s) for s in symbols], dtype=_np.int64
        )
        self.cover_pairs: List[Tuple] = []
        for _cover, pairs in covers_and_pairs:
            if not pairs:
                continue
            v1 = _np.array([p[0][0] for p in pairs], dtype=_np.int64)
            u1 = _np.array([p[0][1] for p in pairs], dtype=_np.int64)
            v2 = _np.array([p[1][0] for p in pairs], dtype=_np.int64)
            u2 = _np.array([p[1][1] for p in pairs], dtype=_np.int64)
            self.cover_pairs.append((v1, u1, v2, u2))

    # ------------------------------------------------------------------
    def score_block(self, digits) -> Tuple[Any, Any]:
        """(forced errors, fooled totals) for a ``(B, n)`` digit block.

        Float semantics replicate the serial scorer operation-for-
        operation: ``yes_cost = (0.5 * count) / total`` and the error
        accumulates cover-by-cover in enumeration order, so results are
        bit-identical to :func:`~repro.lowerbounds.exhaustive
        ._forced_error_and_fooled`.
        """
        a = self.canon[digits]
        block = a.shape[0]
        per_yes = 0.5 / self.num_covers
        num_tables = len(self.cover_pairs)
        counts = _np.empty((block, num_tables), dtype=_np.int64)
        for j, (v1, u1, v2, u2) in enumerate(self.cover_pairs):
            counts[:, j] = (
                (a[:, v1] == a[:, v2]) & (a[:, u1] == a[:, u2])
            ).sum(axis=1)
        total = counts.sum(axis=1)
        nonzero = total > 0
        safe = _np.where(nonzero, total, 1).astype(_np.float64)
        err = _np.zeros(block, dtype=_np.float64)
        for j in range(num_tables):
            yes_cost = (0.5 * counts[:, j].astype(_np.float64)) / safe
            yes_cost = _np.where(nonzero, yes_cost, 0.0)
            err += _np.minimum(per_yes, yes_cost)
        return err, total


def block_scores(
    n: int,
    alphabet: Sequence[str],
    covers_and_pairs: Sequence[Tuple[Any, Sequence[Tuple]]],
    start: int,
    stop: int,
):
    """(errors, fooled) arrays for global indices ``[start, stop)``.

    One-shot convenience for cross-check tests; the sharded search uses
    :func:`scan_assignments`, which reuses one :class:`ScoreTables` and
    tracks the running best across blocks.
    """
    tables = ScoreTables(n, alphabet, covers_and_pairs)
    return tables.score_block(_digit_block(len(alphabet), n, start, stop))


def scan_assignments(
    n: int,
    alphabet: Sequence[str],
    covers_and_pairs: Sequence[Tuple[Any, Sequence[Tuple]]],
    start: int,
    stop: int,
    budget=None,
    block_size: int = 1024,
    sketches=None,
) -> Tuple[Best, int, int, int, bool]:
    """Scan ``[start, stop)`` in blocks; return the strict-first minimum.

    Returns ``(best, next_index, enumerated, fooled_total, exhausted)``
    where ``best`` is ``(error, global_index)`` with ties broken toward
    the lowest index (the serial loop's first-strict-improvement rule),
    ``next_index`` is where a resume should continue, and ``exhausted``
    reports whether ``budget`` (a :class:`repro.resilience.Budget`)
    tripped before ``stop``. The budget is ticked once per assignment
    (in block-sized batches), so ``--max-assignments`` accounting is
    identical to the serial path's.

    ``sketches`` (an ``(error quantile sketch, fooled moments sketch)``
    pair from :mod:`repro.obs.sketches`) is updated in place with one
    observation per enumerated assignment. Block errors are bit-identical
    to the serial scorer's, and the per-block values are fed through
    ``numpy.unique`` as count-weighted updates, so the resulting sketch
    states equal the pure-python scanner's exactly (sketch states are
    pure functions of the observed multiset).
    """
    tables = ScoreTables(n, alphabet, covers_and_pairs)
    best: Best = None
    pos = start
    enumerated = 0
    fooled_total = 0
    while pos < stop:
        limit = min(block_size, stop - pos)
        if budget is not None:
            remaining = budget.remaining_units()
            if remaining is not None:
                if remaining <= 0:
                    return best, pos, enumerated, fooled_total, True
                limit = min(limit, remaining)
        err, fooled = tables.score_block(
            _digit_block(len(alphabet), n, pos, pos + limit)
        )
        if sketches is not None:
            err_sketch, fooled_sketch = sketches
            values, counts = _np.unique(err, return_counts=True)
            for value, count in zip(values.tolist(), counts.tolist()):
                err_sketch.update(value, int(count))
            values, counts = _np.unique(fooled, return_counts=True)
            for value, count in zip(values.tolist(), counts.tolist()):
                fooled_sketch.update(float(value), int(count))
        i = int(_np.argmin(err))  # first occurrence of the block minimum
        value = float(err[i])
        if best is None or value < best[0]:
            best = (value, pos + i)
        pos += limit
        enumerated += limit
        fooled_total += int(fooled.sum())
        if budget is not None:
            try:
                budget.tick(units=limit)
            except BudgetExceededError:
                return best, pos, enumerated, fooled_total, pos < stop
    return best, pos, enumerated, fooled_total, False
