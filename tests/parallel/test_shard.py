"""ShardPlan invariants: coverage, balance, determinism, budget splits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import Shard, ShardBudget, ShardPlan, derive_seed, split_budget
from repro.resilience import Budget

totals = st.integers(min_value=0, max_value=500)
shard_counts = st.integers(min_value=1, max_value=40)
seeds = st.integers(min_value=0, max_value=2**32)


@given(total=totals, k=shard_counts, seed=seeds)
@settings(max_examples=100, deadline=None)
def test_plan_covers_range_contiguously(total, k, seed):
    plan = ShardPlan(total, k, base_seed=seed)
    shards = plan.shards()
    assert sum(s.size for s in shards) == total
    cursor = 0
    for s in shards:
        assert s.start == cursor
        assert s.stop > s.start  # never an empty shard
        cursor = s.stop
    assert cursor == total


@given(total=totals, k=shard_counts)
@settings(max_examples=100, deadline=None)
def test_plan_is_balanced(total, k):
    sizes = [s.size for s in ShardPlan(total, k).shards()]
    if sizes:
        assert max(sizes) - min(sizes) <= 1
        assert len(sizes) == min(k, total)


@given(total=totals, k=shard_counts, seed=seeds)
@settings(max_examples=50, deadline=None)
def test_plan_is_deterministic(total, k, seed):
    a = ShardPlan(total, k, base_seed=seed).shards()
    b = ShardPlan(total, k, base_seed=seed).shards()
    assert a == b


@given(total=totals, k=shard_counts, seed=seeds)
@settings(max_examples=50, deadline=None)
def test_from_starts_roundtrip(total, k, seed):
    plan = ShardPlan(total, k, base_seed=seed)
    rebuilt = ShardPlan.from_starts(plan.total, plan.starts, base_seed=seed)
    assert rebuilt.shards() == plan.shards()


def test_from_starts_rejects_malformed():
    with pytest.raises(ValueError):
        ShardPlan.from_starts(10, [1, 5])  # must begin at 0
    with pytest.raises(ValueError):
        ShardPlan.from_starts(10, [0, 5, 5])  # strictly increasing
    with pytest.raises(ValueError):
        ShardPlan.from_starts(10, [0, 12])  # start outside range
    with pytest.raises(ValueError):
        ShardPlan.from_starts(0, [0])  # empty space has no shards
    assert ShardPlan.from_starts(0, []).shards() == []


def test_seed_derivation_is_pure_arithmetic():
    # SHA-256 based: stable across processes and platforms, in [0, 2^63).
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 0) != derive_seed(8, 0)
    assert 0 <= derive_seed(7, 3) < 2**63
    plan = ShardPlan(10, 3, base_seed=7)
    assert [s.seed for s in plan.shards()] == [derive_seed(7, i) for i in range(3)]


def test_for_workers_clamps_to_total():
    assert ShardPlan.for_workers(3, workers=4).num_shards == 3
    assert ShardPlan.for_workers(1000, workers=4).num_shards == 16
    with pytest.raises(ValueError):
        ShardPlan.for_workers(10, workers=0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ShardPlan(-1, 2)
    with pytest.raises(ValueError):
        ShardPlan(10, 0)
    with pytest.raises(ValueError):
        Shard(index=0, start=5, stop=3, seed=0)


# ----------------------------------------------------------------------
# budget splitting
# ----------------------------------------------------------------------
def test_split_budget_none_parent():
    assert split_budget(None, [3, 4, 5]) == [None, None, None]


@given(
    units=st.integers(min_value=1, max_value=400),
    sizes=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_split_budget_conserves_units(units, sizes):
    budget = Budget(max_units=units)
    shards = split_budget(budget, sizes)
    allocations = [sb.max_units for sb in shards]
    # never hand a shard more than its work; never mint new units
    assert all(0 <= a <= size for a, size in zip(allocations, sizes))
    assert sum(allocations) == min(units, sum(sizes))


def test_split_budget_fills_earliest_shards_first():
    # units cover the enumeration prefix: earlier shards fill up first,
    # so K units reach exactly the first K units of work
    shards = split_budget(Budget(max_units=15), [10, 10])
    assert [sb.max_units for sb in shards] == [10, 5]
    shards = split_budget(Budget(max_units=100), [3, 10])
    assert [sb.max_units for sb in shards] == [3, 10]
    shards = split_budget(Budget(max_units=4), [3, 10, 2])
    assert [sb.max_units for sb in shards] == [3, 1, 0]


def test_split_budget_exhausted_parent_yields_zero_unit_shards():
    from repro.errors import BudgetExceededError

    budget = Budget(max_units=2)
    budget.tick()
    with pytest.raises(BudgetExceededError):
        budget.tick()  # consumes the final unit and trips
    assert budget.remaining_units() == 0
    shards = split_budget(budget, [5, 5])
    assert all(sb.max_units == 0 for sb in shards)


def test_shard_budget_to_budget():
    assert ShardBudget(max_units=None, deadline=None).to_budget() is None
    b = ShardBudget(max_units=5, deadline=None).to_budget()
    assert b is not None and b.remaining_units() == 5


class _Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def test_sequential_shards_share_one_wall_deadline(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr("repro.resilience.budget.time.monotonic", clock)
    first, second = split_budget(Budget(wall_seconds=1.0), [10, 10])
    assert first.deadline == second.deadline == 1001.0
    first.to_budget()
    clock.now += 0.6  # the first shard runs for 0.6 s
    assert not second.exhausted()
    assert second.to_budget().remaining_seconds() <= 0.4
    clock.now += 0.5  # past the deadline: the second shard may not start
    assert second.exhausted()


def test_shard_budget_exhausted():
    assert ShardBudget(max_units=0, deadline=None).exhausted()
    assert not ShardBudget(max_units=1, deadline=None).exhausted()
    assert not ShardBudget(max_units=None, deadline=None).exhausted()
