"""Packed / batched compute kernels behind the bit-identical contract.

PR 4 established the pattern for scaling this repo's engines: a fast
kernel that produces *exactly* the same answers as the pure-python
reference implementation (exact ``==`` on full enumerable spaces). numpy
is a required dependency; the pure-python references stay as the parity
oracles. This package generalizes that pattern to the paper's hot paths:

* :mod:`repro.kernels.gf2` -- GF(2) rank via word-packed bitset
  elimination (Python big-int rows; one XOR eliminates a whole row),
  plus the Four-Russians (M4RI) elimination that amortizes the row
  fixups of ``k`` pivot columns into one 2^k-entry-table lookup.
* :mod:`repro.kernels.modp` -- batched mod-p rank over numpy int64
  blocks (one argmax / one outer-product / one ``mod`` per pivot
  instead of per-entry Python loops).
* :mod:`repro.kernels.sparse` -- sparse mod-p rank on dict-of-columns
  rows; the streamed matrix pipeline's odd-prime engine.
* :mod:`repro.kernels.bitset_matching` -- integer-indexed Hopcroft-Karp
  on big-int adjacency masks, with a dedicated k-clone path that shares
  one mask across all k clones of a left vertex (Theorem 2.1).
* :mod:`repro.kernels.crossing_batch` -- batched validity filtering of
  crossing pairs (Definition 3.2/3.6) for the indistinguishability
  graph builder, scoring all candidate pairs of a cover in one numpy
  block.
* :mod:`repro.kernels.join_batch` -- batched join-to-top rows of the
  partition matrices M_n / E_n: one block of row partitions against
  every column partition in a few numpy passes instead of one Python
  union-find per cell; both matrix pipelines (dense and streamed) build
  their rows with it.

Every consumer that picks up a kernel takes a ``kernel`` argument (also
exposed as ``--kernel`` on the relevant CLI subcommands) with one of
:data:`KERNEL_MODES`:

* ``"auto"`` (the default) -- the fast engines, chosen per input: GF(2)
  ranks run M4RI at or above 512 rows and the packed bitset below,
  odd-p ranks run the batched int64 engine when ``(p-1)^2`` fits int64
  and the reference otherwise, the crossing filter batches at or above
  its size threshold;
* ``"reference"`` -- the pure-python reference implementations, exactly
  as they were before this package existed.

The contract, enforced by the ``tests/kernels`` suites: identical
results at any worker count and under both modes -- ranks are equal
integers, matchings are valid and of identical size, graphs are
edge-for-edge equal -- and identical
:class:`~repro.resilience.Budget` tick boundaries (one tick per pivot
column), so checkpoints, resume, and span trees are unchanged.
"""

from __future__ import annotations

from repro.engine.request import KERNEL_MODES
from repro.kernels.bitset_matching import (
    compile_bipartite,
    hopcroft_karp_bitset,
    k_matching_bitset,
)
from repro.kernels.crossing_batch import valid_crossing_pairs
from repro.kernels.gf2 import (
    M4RI_DEFAULT_K,
    pack_rows,
    rank_gf2,
    rank_gf2_four_russians,
    rank_gf2_m4ri,
    rank_gf2_packed,
)
from repro.kernels.join_batch import join_to_top_matrix, join_to_top_supports
from repro.kernels.modp import (
    batched_modp_supported,
    lazy_reduction_safe,
    rank_mod_p_batched,
)
from repro.kernels.sparse import (
    rank_mod_p_sparse,
    rank_mod_p_sparse_rows,
    sparsify_rows,
)

__all__ = [
    "KERNEL_MODES",
    "M4RI_DEFAULT_K",
    "batched_modp_supported",
    "compile_bipartite",
    "hopcroft_karp_bitset",
    "join_to_top_matrix",
    "join_to_top_supports",
    "k_matching_bitset",
    "lazy_reduction_safe",
    "pack_rows",
    "rank_gf2",
    "rank_gf2_four_russians",
    "rank_gf2_m4ri",
    "rank_gf2_packed",
    "rank_mod_p_batched",
    "rank_mod_p_sparse",
    "rank_mod_p_sparse_rows",
    "resolve_kernel",
    "sparsify_rows",
    "valid_crossing_pairs",
]

def resolve_kernel(kernel: str) -> str:
    """Validate a kernel mode and return it unchanged.

    Consumers branch on ``resolve_kernel(kernel) == "reference"``; every
    other choice of engine is made from the input. Unknown values raise
    ``ValueError`` (a user error: the CLI maps it to exit code 2).
    """
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNEL_MODES)}"
        )
    return kernel
