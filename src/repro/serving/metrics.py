"""Result containers and summary math for serving experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigError


def slo_attainment(
    latencies: List[float], target_cycles: float, offered: Optional[int] = None
) -> float:
    """Fraction of requests served within ``target_cycles``.

    With ``offered`` (open-loop accounting) requests that never finished
    count as misses; without it only completed requests are judged.
    """
    if target_cycles <= 0:
        raise ConfigError("SLO target must be positive")
    denom = offered if offered is not None else len(latencies)
    if denom <= 0:
        return 1.0
    attained = sum(1 for lat in latencies if lat <= target_cycles)
    return attained / denom


@dataclass
class TenantMetrics:
    """Per-workload outcome of one serving run."""

    name: str
    scheme: str
    p95_latency_cycles: float
    mean_latency_cycles: float
    throughput_rps: float
    me_utilization: float
    ve_utilization: float
    blocked_fraction: float
    completed_requests: int


@dataclass
class PairMetrics:
    """Outcome of one collocation run (both workloads + core totals)."""

    pair: str
    scheme: str
    tenants: List[TenantMetrics] = field(default_factory=list)
    total_me_utilization: float = 0.0
    total_ve_utilization: float = 0.0
    preemption_count: int = 0
    total_cycles: float = 0.0
    #: Optional per-op duration map used by the Fig. 23 breakdown.
    op_durations: Optional[Dict[int, Dict[str, List[float]]]] = None

    def tenant(self, name: str) -> TenantMetrics:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(f"no tenant {name!r} in pair {self.pair!r}")
