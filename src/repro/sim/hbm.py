"""HBM bandwidth sharing model.

Collocated vNPUs share the off-chip HBM channel.  Neu10 "allows fair
sharing of HBM bandwidth by default" (paper SectionIII-B), which we model
as max-min fair allocation across the currently memory-active uTOps: each
consumer gets its full demand when the channel is uncontended; under
contention, small consumers are satisfied first and the remainder is
split evenly among the large ones.

A uTOp whose allocation covers only a fraction ``f`` of its demand
progresses at rate ``f`` when memory-bound (per-operator roofline).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Mapping, Sequence, Tuple

from repro.errors import SimulationError


def maxmin_fair(demands: Mapping[Hashable, float], capacity: float) -> Dict[Hashable, float]:
    """Max-min fair allocation of ``capacity`` across ``demands``.

    Returns the allocated rate per key.  Zero-demand keys get zero.
    """
    if capacity < 0:
        raise SimulationError("capacity cannot be negative")
    for key, demand in demands.items():
        if demand < 0:
            raise SimulationError(f"demand for {key!r} cannot be negative")
    alloc: Dict[Hashable, float] = {k: 0.0 for k in demands}
    pending = [(d, k) for k, d in demands.items() if d > 0]
    pending.sort(key=lambda item: item[0])
    remaining = capacity
    count = len(pending)
    for i, (demand, key) in enumerate(pending):
        share = remaining / (count - i)
        granted = min(demand, share)
        alloc[key] = granted
        remaining -= granted
    return alloc


def slowdown_factors(
    demands: Mapping[Hashable, float], capacity: float
) -> Dict[Hashable, float]:
    """Progress-rate factor per consumer: ``alloc / demand`` clamped to
    [0, 1]; consumers with no memory demand run at full speed (1.0)."""
    alloc = maxmin_fair(demands, capacity)
    factors: Dict[Hashable, float] = {}
    for key, demand in demands.items():
        if demand <= 0:
            factors[key] = 1.0
        else:
            factors[key] = min(1.0, alloc[key] / demand)
    return factors


def aggregate_demand(demands: Mapping[Hashable, float]) -> float:
    return sum(d for d in demands.values() if d > 0)


def hierarchical_fair_factors(
    demands: Mapping[Hashable, float],
    owners: Mapping[Hashable, int],
    capacity: float,
) -> Dict[Hashable, float]:
    """Two-level fair sharing: bandwidth is first split max-min fair
    *across vNPUs* ("Neu10 allows fair sharing of HBM bandwidth" between
    tenants, SectionIII-B), then max-min fair among each vNPU's active
    uTOps.  This protects a memory-hungry tenant from a collocated
    tenant that harvests many engines and multiplies its stream count.
    """
    per_owner: Dict[int, float] = {}
    for key, demand in demands.items():
        if demand <= 0:
            continue
        owner = owners[key]
        per_owner[owner] = per_owner.get(owner, 0.0) + demand
    owner_alloc = maxmin_fair(per_owner, capacity)
    factors: Dict[Hashable, float] = {}
    for owner, budget in owner_alloc.items():
        inner = {
            k: d for k, d in demands.items() if owners[k] == owner and d > 0
        }
        inner_alloc = maxmin_fair(inner, budget)
        for key, granted in inner_alloc.items():
            factors[key] = min(1.0, granted / demands[key])
    for key, demand in demands.items():
        if demand <= 0:
            factors[key] = 1.0
    return factors


class FairFactorCache:
    """Exact memo for per-epoch HBM slowdown factors.

    The engine's hot loop recomputes max-min fair factors every epoch,
    yet the demand vector repeats heavily: closed-loop tenants replay the
    same compiled graph per request, so the same ``(owner, demand)``
    signatures recur thousands of times.  The cache keys on the *exact*
    float demands (plus owners and policy), so a hit returns bit-identical
    factors to a fresh computation; misses fall through to the scalar
    waterfill.  Entries are evicted FIFO once ``maxsize`` is reached.
    """

    def __init__(
        self, capacity: float, policy: str = "hierarchical", maxsize: int = 4096
    ) -> None:
        if policy not in ("hierarchical", "flat"):
            raise SimulationError(f"unknown HBM policy {policy!r}")
        if maxsize < 1:
            raise SimulationError("cache needs room for at least one entry")
        self.capacity = capacity
        self.policy = policy
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, Tuple[float, ...]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def factors(
        self, owners: Sequence[int], demands: Sequence[float]
    ) -> Tuple[float, ...]:
        """Positional slowdown factors for one epoch's running units."""
        key = (tuple(owners), tuple(demands))
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        keyed = dict(enumerate(demands))
        if self.policy == "hierarchical":
            owner_map = dict(enumerate(owners))
            by_key = hierarchical_fair_factors(keyed, owner_map, self.capacity)
        else:
            by_key = slowdown_factors(keyed, self.capacity)
        result = tuple(by_key[i] for i in range(len(demands)))
        if len(self._entries) >= self.maxsize:
            self._entries.popitem(last=False)
        self._entries[key] = result
        return result
