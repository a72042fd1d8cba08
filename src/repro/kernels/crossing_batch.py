"""Batched validity filtering of crossing pairs (Definitions 3.2 / 3.6).

Building the indistinguishability graph means testing every unordered
pair of active directed edges of every one-cycle cover for
*independence*: four distinct endpoints, both undirected edges present
in the cover, and neither would-be new edge already present. The
reference path (:func:`repro.indist.graph_builder.cross_cover`) runs
those checks pair by pair in Python -- O(active^2) set lookups per
cover. This kernel scores **all pairs of one cover in a single numpy
block**, reusing the PR 4 ``lowerbounds/vectorized.py`` idiom of
encoding structure into int64 arrays and letting one vectorized mask
replace the per-item Python calls:

* undirected edges are encoded as ``min * n + max`` int64 codes;
* all ``C(m, 2)`` candidate pairs come from one ``triu_indices`` call;
* the three independence conditions become three elementwise masks
  (distinctness comparisons plus ``isin`` membership against the
  cover's sorted code table).

Only the surviving pairs -- typically a small fraction -- proceed to
the Python-level cover construction, which is identical to the
reference's, so the produced neighbor sets are equal element for
element. Below :data:`BATCH_THRESHOLD` active edges the pure-python
filter applies the same three conditions pair by pair; the two are
pinned equal by the tests.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as _np

__all__ = ["BATCH_THRESHOLD", "valid_crossing_pairs"]

#: Below this many active directed edges the python filter wins: the
#: numpy batch pays fixed array-construction costs that only amortize
#: once the C(m, 2) candidate block is a few thousand pairs deep.
BATCH_THRESHOLD = 64

DirectedEdge = Tuple[int, int]


def _code(n: int, a: int, b: int) -> int:
    """The int code of undirected edge {a, b}: min * n + max."""
    return a * n + b if a < b else b * n + a


def _valid_pairs_python(
    n: int, edges, active: Sequence[DirectedEdge]
) -> List[Tuple[DirectedEdge, DirectedEdge]]:
    """Reference filter: the same three conditions, pair by pair."""
    out: List[Tuple[DirectedEdge, DirectedEdge]] = []
    for (v1, u1), (v2, u2) in combinations(active, 2):
        if len({v1, u1, v2, u2}) != 4:
            continue
        e1 = (v1, u1) if v1 < u1 else (u1, v1)
        e2 = (v2, u2) if v2 < u2 else (u2, v2)
        if e1 not in edges or e2 not in edges:
            continue
        n1 = (v1, u2) if v1 < u2 else (u2, v1)
        n2 = (v2, u1) if v2 < u1 else (u1, v2)
        if n1 in edges or n2 in edges:
            continue
        out.append(((v1, u1), (v2, u2)))
    return out


def valid_crossing_pairs(
    n: int,
    edges,
    active: Sequence[DirectedEdge],
) -> List[Tuple[DirectedEdge, DirectedEdge]]:
    """Pairs of ``active`` directed edges that form a valid crossing.

    ``edges`` is the cover's undirected edge set (``(min, max)``
    tuples, e.g. ``CycleCover.edges``). Returns exactly the pairs for
    which :func:`repro.indist.graph_builder.cross_cover` would return a
    cover, in ``itertools.combinations`` order.

    Small actives (fewer than :data:`BATCH_THRESHOLD` directed edges,
    i.e. under ~2k candidate pairs) go through the pair-by-pair python
    filter: at that size the array setup costs more than it saves, and
    the two filters are pinned identical, so the cutoff is invisible in
    the results.
    """
    m = len(active)
    if m < 2 or not edges:
        return []
    if m < BATCH_THRESHOLD:
        return _valid_pairs_python(n, edges, active)
    arr = _np.asarray(active, dtype=_np.int64)  # (m, 2): head, tail
    i, j = _np.triu_indices(m, k=1)
    v1, u1 = arr[i, 0], arr[i, 1]
    v2, u2 = arr[j, 0], arr[j, 1]
    distinct = (v1 != v2) & (v1 != u2) & (u1 != v2) & (u1 != u2)
    codes = _np.sort(
        _np.asarray([_code(n, a, b) for a, b in edges], dtype=_np.int64)
    )

    def member(a, b):
        pair_codes = _np.where(a < b, a * n + b, b * n + a)
        idx = _np.searchsorted(codes, pair_codes)
        idx = _np.minimum(idx, len(codes) - 1)
        return codes[idx] == pair_codes

    in_cover = member(v1, u1) & member(v2, u2)
    new_absent = ~member(v1, u2) & ~member(v2, u1)
    mask = distinct & in_cover & new_absent
    picked = _np.nonzero(mask)[0]
    return [
        (
            (int(arr[i[k], 0]), int(arr[i[k], 1])),
            (int(arr[j[k], 0]), int(arr[j[k], 1])),
        )
        for k in picked
    ]
