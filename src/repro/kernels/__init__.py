"""Packed / batched compute kernels behind the bit-identical contract.

PR 4 established the pattern for scaling this repo's engines: a fast
kernel that produces *exactly* the same answers as the pure-python
reference implementation (exact ``==`` on full enumerable spaces), with
a silent fallback when the accelerator (numpy) is absent. This package
generalizes that pattern to the paper's hot paths:

* :mod:`repro.kernels.gf2` -- GF(2) rank via word-packed bitset
  elimination (Python big-int rows; one XOR eliminates a whole row),
  plus the Four-Russians (M4RI) elimination that amortizes the row
  fixups of ``k`` pivot columns into one 2^k-entry-table lookup.
* :mod:`repro.kernels.modp` -- batched mod-p rank over numpy int64
  blocks (one argmax / one outer-product / one ``mod`` per pivot
  instead of per-entry Python loops).
* :mod:`repro.kernels.sparse` -- sparse mod-p rank on dict-of-columns
  rows; wins when the matrix stays sparse under elimination (M_n does;
  see the density cutoff notes in that module).
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
exposed as ``--kernel`` on the relevant CLI subcommands) with these
values:

* ``"reference"`` -- the pure-python reference implementation, exactly
  as it was before this package existed;
* ``"packed"`` -- the PR 5 fast engines (numpy-backed ones silently
  fall back to the reference when numpy is absent);
* ``"four-russians"`` -- like ``"packed"``, but GF(2) ranks run the
  M4RI engine regardless of size (odd-p ranks dispatch as in
  ``"packed"``: rank-engine choice is per-prime);
* ``"sparse"`` -- like ``"packed"``, but mod-p ranks (every prime,
  including 2) run the sparse dict-row engine regardless of density;
* ``"auto"`` (the default) -- the fast family with per-input engine
  choice: GF(2) ranks pick M4RI above a size threshold, odd-p ranks
  pick the sparse engine below a density cutoff, everything else
  behaves as ``"packed"``.

The rank-engine selection the modes drive lives in
:func:`repro.partitions.linalg.rank_mod_p`; :func:`resolve_kernel` here
only resolves the *family* (fast vs reference) for consumers -- the
matching / graph-builder call sites -- that have a single fast engine.

The contract, enforced by the ``tests/kernels`` suites: identical
results at any worker count and under every kernel mode -- ranks are
equal integers, matchings are valid and of identical size, graphs are
edge-for-edge equal -- and identical
:class:`~repro.resilience.Budget` tick boundaries (one tick per pivot
column), so checkpoints, resume, and span trees are unchanged.
"""

from __future__ import annotations

from typing import Tuple

from repro.kernels.bitset_matching import (
    compile_bipartite,
    hopcroft_karp_bitset,
    k_matching_bitset,
)
from repro.kernels.crossing_batch import (
    HAVE_NUMPY as CROSSING_HAVE_NUMPY,
    valid_crossing_pairs,
)
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
    HAVE_NUMPY,
    batched_modp_supported,
    lazy_reduction_safe,
    rank_mod_p_batched,
)
from repro.kernels.sparse import (
    SPARSE_DENSITY_CUTOFF,
    SPARSE_MIN_CELLS,
    matrix_density,
    rank_mod_p_sparse,
    rank_mod_p_sparse_rows,
    sparsify_rows,
)

__all__ = [
    "HAVE_NUMPY",
    "KERNEL_MODES",
    "M4RI_DEFAULT_K",
    "SPARSE_DENSITY_CUTOFF",
    "SPARSE_MIN_CELLS",
    "batched_modp_supported",
    "compile_bipartite",
    "hopcroft_karp_bitset",
    "join_to_top_matrix",
    "join_to_top_supports",
    "k_matching_bitset",
    "lazy_reduction_safe",
    "matrix_density",
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

#: The accepted values of every ``kernel`` argument / ``--kernel`` flag.
KERNEL_MODES: Tuple[str, ...] = (
    "auto",
    "packed",
    "four-russians",
    "sparse",
    "reference",
)


def resolve_kernel(kernel: str) -> str:
    """Resolve a kernel mode to its *family*: ``"packed"`` or ``"reference"``.

    Consumers with a single fast engine (matching, graph building) only
    need the family; every mode except ``"reference"`` resolves to
    ``"packed"`` because the fast engines are either dependency-free
    (big-int bitsets) or degrade silently to the reference when numpy is
    absent, so there is never a reason not to prefer them. The
    rank-specific modes (``"four-russians"``, ``"sparse"``) change only
    which *rank* engine :func:`repro.partitions.linalg.rank_mod_p`
    picks; for every other consumer they behave exactly like
    ``"packed"``. Unknown values raise ``ValueError`` (a user error:
    the CLI maps it to exit code 2).
    """
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNEL_MODES)}"
        )
    return "reference" if kernel == "reference" else "packed"
