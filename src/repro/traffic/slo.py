"""Per-tenant latency SLOs and attainment reports.

An :class:`SloSpec` names the target; an :class:`SloReport` is the
per-tenant outcome of one open-loop run: offered vs completed vs
attained requests, latency percentiles, queueing delay and goodput.
Unfinished requests (still queued when the horizon hits) count as SLO
misses -- that is what makes attainment degrade monotonically as load
crosses saturation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.errors import ConfigError
from repro.sim.engine import TenantResult
from repro.sim.stats import ordered_mean, percentiles


@dataclass(frozen=True)
class SloSpec:
    """Latency target, absolute or relative to isolated service time.

    ``target_cycles`` wins when both are given; ``relative`` expresses
    the target as a multiple of the tenant's calibrated closed-loop
    service time (5x is a common serving-system default: generous at low
    load, violated quickly past saturation).
    """

    target_cycles: Optional[float] = None
    relative: float = 5.0

    def __post_init__(self) -> None:
        if self.target_cycles is not None and self.target_cycles <= 0:
            raise ConfigError("absolute SLO target must be positive")
        if self.relative <= 0:
            raise ConfigError("relative SLO target must be positive")

    def resolve(self, service_cycles: float) -> float:
        if self.target_cycles is not None:
            return self.target_cycles
        return self.relative * service_cycles


@dataclass
class SloReport:
    """One tenant's open-loop scorecard.

    ``attained`` counts the requests served within the SLO.  Cluster
    aggregation (:meth:`extend`) adds each window's count, scored
    against that window's own target, so a name that departs and
    re-arrives with another SLO is judged per window (``target_cycles``
    keeps the first window's).  Attainment and goodput derive from the
    count, so reading them costs nothing per request.

    ``latencies_cycles`` and ``queueing_cycles`` are packed
    ``array('d')`` logs in completion order.  A checkpoint pickles each
    as its raw doubles, and :meth:`extend` and :meth:`copy` move them
    in one memcpy; reading a value back builds a float.
    """

    name: str
    scheme: str
    target_cycles: float
    offered: int
    completed: int
    attained: int
    duration_s: float
    latencies_cycles: array = field(default_factory=lambda: array("d"))
    queueing_cycles: array = field(default_factory=lambda: array("d"))

    @property
    def attainment(self) -> float:
        """Fraction of *offered* requests served within the SLO (1.0
        when nothing was offered)."""
        if self.offered <= 0:
            return 1.0
        return self.attained / self.offered

    @property
    def goodput_rps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.attained / self.duration_s

    @property
    def throughput_rps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def mean_latency(self) -> float:
        return ordered_mean(self.latencies_cycles)

    def latency_percentiles(self, *pcts: float) -> List[float]:
        """Nearest-rank latency percentiles, from one sort."""
        return percentiles(self.latencies_cycles, pcts)

    @property
    def mean_queueing_delay(self) -> float:
        return ordered_mean(self.queueing_cycles)

    def extend(self, other: "SloReport") -> None:
        """Append a later window of the same tenant in place (cluster
        aggregation): linear in ``other``, not in the run so far."""
        if other.name != self.name:
            raise ConfigError(
                f"cannot merge reports for {self.name!r} and {other.name!r}"
            )
        self.offered += other.offered
        self.completed += other.completed
        self.attained += other.attained
        self.duration_s += other.duration_s
        self.latencies_cycles.extend(other.latencies_cycles)
        self.queueing_cycles.extend(other.queueing_cycles)

    def copy(self) -> "SloReport":
        """A report that later :meth:`extend` calls on this one leave
        untouched."""
        return replace(
            self,
            latencies_cycles=array("d", self.latencies_cycles),
            queueing_cycles=array("d", self.queueing_cycles),
        )


def build_slo_report(
    name: str,
    scheme: str,
    target_cycles: float,
    result: TenantResult,
    duration_s: float,
    offered: Optional[int] = None,
) -> SloReport:
    """Score one tenant's :class:`TenantResult` against its SLO.

    ``offered`` overrides the engine's issued-request count with the
    number of arrivals *generated* for the window.  The two differ only
    when an arrival lands exactly on the horizon (the engine never
    issues it) -- a measure-zero event for continuous arrival processes,
    but systematic when control-plane onboarding latency clamps a late
    tenant's arrivals to the segment boundary.  Counting those requests
    as offered-but-missed keeps conservation exact: a request offered
    inside the window can never silently vanish from the denominator.
    """
    if target_cycles <= 0:
        raise ConfigError("SLO target must be positive")
    attained = sum(1 for lat in result.latencies_cycles if lat <= target_cycles)
    return SloReport(
        name=name,
        scheme=scheme,
        target_cycles=target_cycles,
        # Never below the issued count: attained <= completed <= offered.
        offered=(
            result.offered_requests
            if offered is None
            else max(offered, result.offered_requests)
        ),
        completed=result.completed_requests,
        attained=attained,
        duration_s=duration_s,
        latencies_cycles=array("d", result.latencies_cycles),
        queueing_cycles=array("d", result.queueing_cycles),
    )
