"""Deterministic shard plans for fan-out over index ranges and seed streams.

A :class:`ShardPlan` splits the contiguous index range ``[0, total)`` into
``num_shards`` contiguous, non-overlapping shards whose sizes differ by at
most one, and derives one RNG seed per shard from a base seed with SHA-256
arithmetic (never ``hash()``, which is randomized across processes). Plans
are pure data: the same ``(total, num_shards, base_seed)`` triple produces
the same shards in every process, on every platform, forever -- which is
what makes sharded checkpoints resumable and sharded runs reproducible.

The plan also knows how to split a cooperative
:class:`repro.resilience.Budget` across its shards
(:func:`split_budget`): work units go to the earliest shards first, so a
budget of K units covers exactly the first K units in enumeration order
whatever the shard count, and every shard shares the parent's absolute
wall-clock deadline, whether the shards run concurrently or one after
another.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.resilience.budget import Budget

__all__ = ["Shard", "ShardBudget", "ShardPlan", "derive_seed", "split_budget"]

#: Seeds live below 2**63 so they fit signed 64-bit RNG seed APIs.
_SEED_SPACE = 2**63


def derive_seed(base_seed: int, index: int) -> int:
    """A per-shard seed: SHA-256 of ``"{base_seed}:{index}"``, mod 2**63.

    Pure arithmetic on the inputs -- no process-randomized ``hash()`` --
    so worker processes and resumed runs derive identical streams.
    """
    digest = hashlib.sha256(f"{base_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, stop)`` of the sharded index space."""

    index: int
    start: int
    stop: int
    seed: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(
                f"shard {self.index} has invalid range [{self.start}, {self.stop})"
            )


@dataclass(frozen=True)
class ShardBudget:
    """The picklable budget slice handed to one shard's worker.

    ``max_units`` caps the shard's work units (None = uncapped);
    ``deadline`` is the parent's absolute ``time.monotonic()`` deadline
    (None = no wall limit). ``CLOCK_MONOTONIC`` is system-wide, so forked
    workers read the same clock as the parent. Workers check
    :meth:`exhausted` first, then rebuild a real
    :class:`repro.resilience.Budget` via :meth:`to_budget`.
    """

    max_units: Optional[int]
    deadline: Optional[float]

    def exhausted(self) -> bool:
        """True when the shard may do no work: no units, or past the deadline."""
        return self.max_units == 0 or (
            self.deadline is not None and time.monotonic() >= self.deadline
        )

    def to_budget(self) -> Optional[Budget]:
        if self.max_units is None and self.deadline is None:
            return None
        wall = None
        if self.deadline is not None:
            # A deadline passing right after exhausted() still yields a
            # valid Budget, one that trips at its first clock read.
            wall = max(self.deadline - time.monotonic(), 1e-9)
        return Budget(wall_seconds=wall, max_units=self.max_units)


class ShardPlan:
    """Contiguous, balanced, seed-annotated shards over ``[0, total)``.

    Parameters
    ----------
    total:
        Size of the index space (assignments, samples, primes, cells).
    num_shards:
        How many contiguous shards to cut. Clamped to ``total`` when
        ``total > 0`` (no empty shards); a ``total`` of 0 yields an
        empty plan.
    base_seed:
        Base for the per-shard derived seeds (see :func:`derive_seed`).
    """

    __slots__ = ("total", "base_seed", "_starts")

    def __init__(self, total: int, num_shards: int, base_seed: int = 0):
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.total = total
        self.base_seed = base_seed
        num_shards = min(num_shards, total) if total else 0
        starts: List[int] = []
        if num_shards:
            size, extra = divmod(total, num_shards)
            cursor = 0
            for i in range(num_shards):
                starts.append(cursor)
                cursor += size + (1 if i < extra else 0)
        self._starts = tuple(starts)

    # ------------------------------------------------------------------
    @classmethod
    def for_workers(
        cls,
        total: int,
        workers: int,
        shards_per_worker: int = 4,
        base_seed: int = 0,
    ) -> "ShardPlan":
        """A plan sized for a worker pool: ``workers * shards_per_worker``
        shards (clamped to ``total``), so stragglers rebalance."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shards_per_worker < 1:
            raise ValueError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}"
            )
        return cls(total, max(1, workers * shards_per_worker), base_seed=base_seed)

    @classmethod
    def from_starts(
        cls, total: int, starts: Sequence[int], base_seed: int = 0
    ) -> "ShardPlan":
        """Rebuild the exact plan stored in a checkpoint.

        ``starts`` must be strictly increasing, begin at 0, and stay
        below ``total`` -- the invariants :class:`ShardPlan` itself
        guarantees, revalidated here because checkpoints are data.
        """
        starts = tuple(int(s) for s in starts)
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        if total == 0:
            if starts:
                raise ValueError("empty index space cannot have shard starts")
        else:
            if not starts or starts[0] != 0:
                raise ValueError(f"shard starts must begin at 0, got {starts[:1]}")
            for a, b in zip(starts, starts[1:]):
                if b <= a:
                    raise ValueError(f"shard starts must increase, got {a} -> {b}")
            if starts[-1] >= total:
                raise ValueError(
                    f"last shard start {starts[-1]} is outside [0, {total})"
                )
        plan = cls.__new__(cls)
        plan.total = total
        plan.base_seed = base_seed
        plan._starts = starts
        return plan

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._starts)

    @property
    def starts(self) -> Sequence[int]:
        return self._starts

    def shard(self, index: int) -> Shard:
        stop = (
            self._starts[index + 1]
            if index + 1 < len(self._starts)
            else self.total
        )
        return Shard(
            index=index,
            start=self._starts[index],
            stop=stop,
            seed=derive_seed(self.base_seed, index),
        )

    def shards(self) -> List[Shard]:
        return [self.shard(i) for i in range(self.num_shards)]

    def __len__(self) -> int:
        return self.num_shards

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardPlan(total={self.total}, num_shards={self.num_shards}, "
            f"base_seed={self.base_seed})"
        )


def split_budget(
    budget: Optional[Budget], sizes: Sequence[int]
) -> List[Optional[ShardBudget]]:
    """Split a parent budget across shards of the given sizes.

    * **Work units**: the parent's *remaining* units go to the earliest
      shards first -- each takes ``min(size, left)`` -- so a budget of K
      units covers exactly the first K units of the pending work, the
      same prefix a one-at-a-time scan would cover, for every shard
      count.
    * **Wall clock**: every shard shares the parent's absolute deadline,
      so shards that run one after another (in process) or start late
      (a busy pool) get only what is left of the allowance.

    Returns one :class:`ShardBudget` (or None, when the parent is None)
    per shard. Shards past the unit prefix get zero-unit budgets, which
    workers treat as exhausted before starting.
    """
    if budget is None:
        return [None] * len(sizes)
    left = budget.remaining_units()
    allocations: List[Optional[int]] = [None] * len(sizes)
    if left is not None:
        for i, size in enumerate(sizes):
            allocations[i] = min(size, left)
            left -= allocations[i]
    return [
        ShardBudget(max_units=allocation, deadline=budget.deadline)
        for allocation in allocations
    ]
