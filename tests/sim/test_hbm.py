"""Tests for the HBM bandwidth sharing model (incl. property tests)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.hbm import (
    FairFactorCache,
    aggregate_demand,
    hierarchical_fair_factors,
    maxmin_fair,
    slowdown_factors,
)


def test_uncontended_full_allocation():
    alloc = maxmin_fair({"a": 10.0, "b": 5.0}, capacity=100.0)
    assert alloc == {"a": 10.0, "b": 5.0}


def test_contended_small_flows_first():
    alloc = maxmin_fair({"small": 10.0, "big": 200.0}, capacity=100.0)
    assert alloc["small"] == 10.0
    assert alloc["big"] == 90.0


def test_equal_split_when_all_large():
    alloc = maxmin_fair({"a": 100.0, "b": 100.0, "c": 100.0}, capacity=90.0)
    assert alloc["a"] == pytest.approx(30.0)
    assert alloc["b"] == pytest.approx(30.0)
    assert alloc["c"] == pytest.approx(30.0)
    # Contended equal demands split the channel exactly evenly.
    alloc = maxmin_fair(dict.fromkeys(range(8), 50.0), capacity=100.0)
    assert set(alloc.values()) == {12.5}


def test_zero_demand_gets_zero():
    alloc = maxmin_fair({"a": 0.0, "b": 10.0}, capacity=5.0)
    assert alloc["a"] == 0.0
    assert alloc["b"] == 5.0
    # Zeros interleaved with real demands do not shift the waterline.
    alloc = maxmin_fair({0: 10.0, 1: 200.0, 2: 0.0, 3: 10.0}, capacity=100.0)
    assert alloc == {0: 10.0, 1: 80.0, 2: 0.0, 3: 10.0}
    # Zero capacity grants nothing.
    alloc = maxmin_fair({0: 7.0, 1: 7.0, 2: 50.0}, capacity=0.0)
    assert alloc == {0: 0.0, 1: 0.0, 2: 0.0}


def test_negative_inputs_rejected():
    with pytest.raises(SimulationError):
        maxmin_fair({"a": -1.0}, capacity=10.0)
    with pytest.raises(SimulationError):
        maxmin_fair({"a": 1.0}, capacity=-10.0)


def test_slowdown_factors_bounds():
    factors = slowdown_factors({"a": 50.0, "b": 200.0}, capacity=100.0)
    assert factors["a"] == pytest.approx(1.0)
    assert 0 < factors["b"] < 1.0


@settings(max_examples=100, deadline=None)
@given(
    demands=st.dictionaries(
        st.integers(0, 10),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    capacity=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_maxmin_properties(demands, capacity):
    alloc = maxmin_fair(demands, capacity)
    total = sum(alloc.values())
    # Conservation: never allocate more than capacity (+eps) or demand.
    assert total <= capacity + 1e-6
    assert total <= sum(demands.values()) + 1e-6
    for key, granted in alloc.items():
        assert 0 <= granted <= demands[key] + 1e-9
    # Work conservation: if capacity exceeds demand, all demand is met.
    if capacity >= sum(demands.values()):
        assert total == pytest.approx(sum(demands.values()))


@settings(max_examples=100, deadline=None)
@given(
    demands=st.lists(
        st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
        min_size=2,
        max_size=6,
    ),
    capacity=st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
)
def test_maxmin_fairness_property(demands, capacity):
    """No flow that wants more receives less than another flow that
    wants less (the max-min property)."""
    keyed = {i: d for i, d in enumerate(demands)}
    alloc = maxmin_fair(keyed, capacity)
    for i, di in keyed.items():
        for j, dj in keyed.items():
            if di <= dj:
                assert alloc[i] <= alloc[j] + 1e-6 or alloc[i] == pytest.approx(di, rel=1e-6)


def test_hierarchical_protects_single_stream_tenant():
    """One tenant with one huge stream vs one tenant with four streams:
    per-vNPU fairness gives each tenant half the channel."""
    demands = {"t0_s0": 1000.0, "t1_s0": 300.0, "t1_s1": 300.0,
               "t1_s2": 300.0, "t1_s3": 300.0}
    owners = {"t0_s0": 0, "t1_s0": 1, "t1_s1": 1, "t1_s2": 1, "t1_s3": 1}
    factors = hierarchical_fair_factors(demands, owners, capacity=1000.0)
    # Tenant 0's single stream gets its 500 share -> factor 0.5.
    assert factors["t0_s0"] == pytest.approx(0.5)
    # Flat max-min would have cut it to 200 (factor 0.2).
    flat = slowdown_factors(demands, 1000.0)
    assert flat["t0_s0"] < factors["t0_s0"]


def test_hierarchical_redistributes_unused_share():
    demands = {"a": 100.0, "b": 900.0}
    owners = {"a": 0, "b": 1}
    factors = hierarchical_fair_factors(demands, owners, capacity=1000.0)
    assert factors["a"] == pytest.approx(1.0)
    assert factors["b"] == pytest.approx(1.0)


def test_aggregate_demand():
    assert aggregate_demand({"a": 1.0, "b": 2.0, "c": 0.0}) == 3.0


# ----------------------------------------------------------------------
# FairFactorCache (the engine fast path's exact factor memo)
# ----------------------------------------------------------------------
def _reference_factors(owners, demands, capacity, policy):
    keyed = dict(enumerate(demands))
    if policy == "hierarchical":
        by_key = hierarchical_fair_factors(
            keyed, dict(enumerate(owners)), capacity
        )
    else:
        by_key = slowdown_factors(keyed, capacity)
    return tuple(by_key[i] for i in range(len(demands)))


@pytest.mark.parametrize("policy", ["hierarchical", "flat"])
def test_factor_cache_matches_reference_exactly(policy):
    cache = FairFactorCache(1000.0, policy=policy)
    owners = [0, 0, 1, 1, 2]
    demands = [120.0, 0.0, 480.0, 700.0, 333.3]
    expected = _reference_factors(owners, demands, 1000.0, policy)
    assert cache.factors(owners, demands) == expected
    # Second call: exact same values, but served from the cache.
    assert cache.factors(owners, demands) == expected
    assert cache.hits == 1 and cache.misses == 1


def test_factor_cache_hit_and_miss_accounting():
    cache = FairFactorCache(100.0)
    cache.factors([0, 1], [60.0, 80.0])
    cache.factors([0, 1], [60.0, 80.0])
    cache.factors([0, 1], [60.0, 80.0])
    assert (cache.hits, cache.misses) == (2, 1)
    # A different demand vector (or owner layout) is a distinct key.
    cache.factors([0, 1], [61.0, 80.0])
    cache.factors([1, 0], [60.0, 80.0])
    assert (cache.hits, cache.misses) == (2, 3)
    assert len(cache) == 3


def test_factor_cache_fifo_eviction():
    cache = FairFactorCache(100.0, maxsize=2)
    a = cache.factors([0], [10.0])
    cache.factors([0], [20.0])
    cache.factors([0], [30.0])  # evicts the [10.0] entry
    assert len(cache) == 2
    assert cache.factors([0], [10.0]) == a  # recomputed, still exact
    assert cache.misses == 4 and cache.hits == 0


def test_factor_cache_eviction_keeps_results_correct():
    cache = FairFactorCache(500.0, maxsize=4)
    vectors = [([0, 1], [float(i), 400.0 + i]) for i in range(10)]
    for owners, demands in vectors * 2:
        assert cache.factors(owners, demands) == _reference_factors(
            owners, demands, 500.0, "hierarchical"
        )
    assert len(cache) <= 4


def test_factor_cache_rejects_bad_config():
    with pytest.raises(SimulationError):
        FairFactorCache(100.0, policy="nope")
    with pytest.raises(SimulationError):
        FairFactorCache(100.0, maxsize=0)


def test_factor_cache_eviction_is_fifo_not_lru():
    # A cache hit must NOT refresh an entry's eviction rank: insertion
    # order alone decides the victim, so the oldest entry goes even when
    # it was just re-read.
    cache = FairFactorCache(100.0, maxsize=2)
    cache.factors([0], [10.0])  # oldest
    cache.factors([0], [20.0])
    cache.factors([0], [10.0])  # hit on the oldest entry
    assert cache.hits == 1
    cache.factors([0], [30.0])  # at capacity: evicts [10.0], not [20.0]
    cache.factors([0], [20.0])  # still cached -> hit
    assert cache.hits == 2
    cache.factors([0], [10.0])  # evicted -> miss
    assert cache.misses == 4
