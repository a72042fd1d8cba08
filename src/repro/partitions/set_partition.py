"""Set partitions of [n] and the partition lattice operations.

The KT-1 lower bounds (Section 4) revolve around the lattice of set
partitions of the ground set [n] = {1, .., n} ordered by refinement:

* P refines P' iff every block of P is contained in a block of P';
* the *join* P ∨ P' is the finest partition that both refine -- its blocks
  are the connected components of the "union" relation (Theorem 4.3 uses
  exactly this reachability characterization);
* the *meet* P ∧ P' has as blocks the nonempty pairwise intersections.

:class:`SetPartition` is immutable and canonicalized (blocks sorted by
minimum element, elements sorted within blocks), so structural equality and
hashing behave like mathematical equality.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.errors import PartitionError
from repro.graphs.components import UnionFind

Block = Tuple[int, ...]


class SetPartition:
    """An immutable set partition of the ground set {1, .., n}."""

    __slots__ = ("_n", "_blocks", "_block_of")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        self._n = n
        cleaned: List[Block] = []
        seen: set = set()
        for block in blocks:
            b = tuple(sorted(set(block)))
            if not b:
                continue
            for x in b:
                if not 1 <= x <= n:
                    raise PartitionError(f"element {x} outside ground set [{n}]")
                if x in seen:
                    raise PartitionError(f"element {x} appears in two blocks")
                seen.add(x)
            cleaned.append(b)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise PartitionError(f"blocks do not cover the ground set; missing {missing}")
        cleaned.sort(key=lambda b: b[0])
        self._blocks: Tuple[Block, ...] = tuple(cleaned)
        self._block_of: Dict[int, int] = {}
        for i, b in enumerate(self._blocks):
            for x in b:
                self._block_of[x] = i

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def finest(n: int) -> "SetPartition":
        """The discrete partition (1)(2)...(n) -- bottom of the lattice."""
        return SetPartition(n, [[i] for i in range(1, n + 1)])

    @staticmethod
    def coarsest(n: int) -> "SetPartition":
        """The trivial one-block partition 1 = ([n]) -- top of the lattice."""
        return SetPartition(n, [list(range(1, n + 1))])

    @staticmethod
    def from_rgs(rgs: Sequence[int]) -> "SetPartition":
        """From a restricted growth string: rgs[i] is the block index of
        element i+1 (0-based block labels in order of first appearance)."""
        n = len(rgs)
        blocks: Dict[int, List[int]] = {}
        for i, label in enumerate(rgs):
            blocks.setdefault(label, []).append(i + 1)
        return SetPartition(n, blocks.values())

    @staticmethod
    def from_string(n: int, text: str) -> "SetPartition":
        """Parse the paper's notation, e.g. ``"(1,2)(3,4)(5)"``."""
        text = text.replace(" ", "")
        if not (text.startswith("(") and text.endswith(")")):
            raise PartitionError(f"malformed partition string {text!r}")
        blocks = []
        for chunk in text[1:-1].split(")("):
            try:
                blocks.append([int(x) for x in chunk.split(",") if x])
            except ValueError as exc:
                raise PartitionError(f"malformed block {chunk!r}") from exc
        return SetPartition(n, blocks)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    @property
    def blocks(self) -> Tuple[Block, ...]:
        return self._blocks

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    def block_containing(self, x: int) -> Block:
        return self._blocks[self._block_of[x]]

    def same_block(self, x: int, y: int) -> bool:
        return self._block_of[x] == self._block_of[y]

    def is_finest(self) -> bool:
        return len(self._blocks) == self._n

    def is_coarsest(self) -> bool:
        return len(self._blocks) == 1

    def block_sizes(self) -> Tuple[int, ...]:
        return tuple(sorted(len(b) for b in self._blocks))

    def is_perfect_matching(self) -> bool:
        """True iff every block has exactly two elements (TwoPartition input)."""
        return all(len(b) == 2 for b in self._blocks)

    def rgs(self) -> Tuple[int, ...]:
        """The restricted growth string of this partition."""
        label: Dict[int, int] = {}
        out = []
        for x in range(1, self._n + 1):
            block_index = self._block_of[x]
            if block_index not in label:
                label[block_index] = len(label)
            out.append(label[block_index])
        return tuple(out)

    # ------------------------------------------------------------------
    # lattice operations
    # ------------------------------------------------------------------
    def refines(self, other: "SetPartition") -> bool:
        """True iff every block of self lies inside a block of other."""
        self._check_ground(other)
        for block in self._blocks:
            target = other.block_containing(block[0])
            if not set(block) <= set(target):
                return False
        return True

    def join(self, other: "SetPartition") -> "SetPartition":
        """P ∨ P': the finest common coarsening.

        Implemented as connected components of the relation "same block in
        either partition" -- the reachability characterization proved in
        Theorem 4.3.
        """
        self._check_ground(other)
        uf = UnionFind(range(1, self._n + 1))
        for partition in (self, other):
            for block in partition.blocks:
                for x in block[1:]:
                    uf.union(block[0], x)
        return SetPartition(self._n, uf.components())

    def meet(self, other: "SetPartition") -> "SetPartition":
        """P ∧ P': the coarsest common refinement (blockwise intersections)."""
        self._check_ground(other)
        blocks: Dict[Tuple[int, int], List[int]] = {}
        for x in range(1, self._n + 1):
            key = (self._block_of[x], other._block_of[x])
            blocks.setdefault(key, []).append(x)
        return SetPartition(self._n, blocks.values())

    def _check_ground(self, other: "SetPartition") -> None:
        if self._n != other._n:
            raise PartitionError(
                f"partitions over different ground sets [{self._n}] vs [{other._n}]"
            )

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self._n == other._n and self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash((self._n, self._blocks))

    def __or__(self, other: "SetPartition") -> "SetPartition":
        return self.join(other)

    def __and__(self, other: "SetPartition") -> "SetPartition":
        return self.meet(other)

    def __le__(self, other: "SetPartition") -> bool:
        """Refinement order: P <= P' iff P refines P'."""
        return self.refines(other)

    def __repr__(self) -> str:
        return "".join("(" + ",".join(str(x) for x in b) + ")" for b in self._blocks)


def joins_to_top(pa: SetPartition, pb: SetPartition) -> bool:
    """The Partition problem predicate: is P_A ∨ P_B the trivial partition?

    Equivalent to ``pa.join(pb).is_coarsest()`` but only counts
    components instead of constructing the join: union-find over the
    *blocks* of both partitions (element x merges its pa-block with its
    pb-block), so the join is trivial iff one component remains. The
    M_n / E_n matrix builders answer whole rows at once with
    :mod:`repro.kernels.join_batch`, which is pinned equal to this
    predicate and falls back to it without numpy.
    """
    pa._check_ground(pb)
    n = pa.n
    block_a = pa._block_of
    block_b = pb._block_of
    na = pa.num_blocks
    parent = list(range(na + pb.num_blocks))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(parent)
    for x in range(1, n + 1):
        ra = find(block_a[x])
        rb = find(na + block_b[x])
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1
