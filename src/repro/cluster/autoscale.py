"""Elastic autoscaling for the cluster-scale serving simulator.

The churn driver (:mod:`repro.traffic.cluster_sim`) cuts the timeline at
tenant arrive/depart events and simulates every host exactly within each
stable segment.  This module closes the control loop over those
segments: after each one, the driver hands the controller a
:class:`SegmentObservation` (SLO attainment, goodput, ME/VE utilization,
rejections, live host count) and the controller answers with
:class:`ScalingAction` s -- activate hosts from a pool, or drain a host
and migrate its tenants away -- which the driver applies at the segment
boundary, alongside any scripted churn.

Everything here is deterministic: a policy is a pure function of the
observation stream plus its constructor parameters, hosts are activated
and drained in a fixed order, and migrations re-place tenants through
the same :class:`~repro.cluster.placement.PlacementPolicy` the
orchestrator already uses.  Two runs of the same scenario therefore
produce bit-identical action logs and metrics.

Policies are registered by name in
:data:`repro.api.registries.AUTOSCALERS`; a scenario file enables one
declaratively::

    kind: cluster
    autoscaler:
      policy: slo-burn-rate
      interval_s: 0.0005
      params: {slo_target: 0.9}
    pools:
      - {name: default, min_hosts: 1, max_hosts: 4}

Third-party controllers subclass :class:`Autoscaler` and plug in with
``AUTOSCALERS.add("my-policy", AutoscalerInfo(...))`` -- no driver or
CLI edits.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError

ACTION_ADD = "add"
ACTION_DRAIN = "drain"
ACTION_REBALANCE = "rebalance"


@dataclass(frozen=True)
class HostPoolSpec:
    """One homogeneous group of hosts the controller can scale within.

    A pool owns ``max_hosts`` identical machines (each with
    ``cores_per_host`` NPU cores of the scenario's core config);
    ``initial_hosts`` of them are live at t=0 and the controller may
    move the live count anywhere inside ``[min_hosts, max_hosts]``.
    """

    name: str = "default"
    cores_per_host: int = 1
    min_hosts: int = 1
    max_hosts: int = 4
    #: Hosts live at t=0 (defaults to ``min_hosts``).
    initial_hosts: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("host pool needs a name")
        if self.cores_per_host < 1:
            raise ConfigError("host pool needs at least one core per host")
        if self.min_hosts < 0:
            raise ConfigError("host pool min_hosts cannot be negative")
        if self.max_hosts < max(1, self.min_hosts):
            raise ConfigError(
                f"pool {self.name!r}: max_hosts must be >= max(1, min_hosts)"
            )
        start = self.start_hosts
        if not (self.min_hosts <= start <= self.max_hosts):
            raise ConfigError(
                f"pool {self.name!r}: initial_hosts {start} outside "
                f"[{self.min_hosts}, {self.max_hosts}]"
            )

    @property
    def start_hosts(self) -> int:
        return (
            self.initial_hosts
            if self.initial_hosts is not None
            else max(1, self.min_hosts)
        )


@dataclass(frozen=True)
class SegmentObservation:
    """What the controller sees after one stable segment.

    All rates and utilizations cover exactly the segment
    ``[time_s - duration_s, time_s)``; counters are segment totals, not
    running sums, so policies can difference-free compute burn rates.
    """

    segment_index: int
    #: Boundary time at which the decision is taken (segment end).
    time_s: float
    duration_s: float
    #: Live hosts during the segment, total and per pool.
    active_hosts: int
    pool_hosts: Mapping[str, int]
    resident_tenants: int
    #: Tenants turned away by admission during the segment.
    rejections: int
    #: Mean utilization over the segment's *live* hosts.
    me_utilization: float
    ve_utilization: float
    #: Requests offered / completed within SLO during the segment.
    offered: int
    attained: int
    #: Control-plane activity: hypercalls issued at the segment's
    #: leading boundary (admissions, departures, migrations).
    hypercalls: int = 0
    #: SR-IOV VF occupancy over the segment's live hosts.
    vf_in_use: int = 0
    vf_capacity: int = 0
    #: Live IOMMU entries (segment windows + DMA buffers) over the
    #: segment's live hosts.
    iommu_mappings: int = 0

    @property
    def vf_occupancy(self) -> float:
        """Fraction of the live hosts' VF pools in use (0.0 if unknown)."""
        if self.vf_capacity <= 0:
            return 0.0
        return self.vf_in_use / self.vf_capacity

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (streamed by ``repro serve`` and ``--progress``)."""
        out = dataclasses.asdict(self)
        out["pool_hosts"] = dict(self.pool_hosts)
        return out

    @property
    def attainment(self) -> float:
        """Fraction of offered requests served within SLO (1.0 if idle)."""
        if self.offered <= 0:
            return 1.0
        return self.attained / self.offered

    @property
    def utilization(self) -> float:
        """The binding resource: max of ME and VE utilization."""
        return max(self.me_utilization, self.ve_utilization)


@dataclass(frozen=True)
class ScalingAction:
    """One controller decision, applied at a segment boundary.

    An empty ``pool`` means "the first configured pool" -- the right
    default for the common single-pool cluster, resolved by the driver.
    ``rebalance`` ignores ``pool`` entirely: it migrates up to ``count``
    tenants from the most-loaded live host to the least-loaded one
    (through the placement policy) while each move strictly shrinks the
    load spread.  Reactive policies emit it after a scale-up, because
    fresh capacity is useless to already-placed tenants until someone
    moves them.
    """

    action: str  # ACTION_ADD | ACTION_DRAIN | ACTION_REBALANCE
    pool: str = ""
    count: int = 1
    reason: str = ""

    def __post_init__(self) -> None:
        if self.action not in (ACTION_ADD, ACTION_DRAIN, ACTION_REBALANCE):
            raise ConfigError(f"unknown scaling action {self.action!r}")
        if self.count < 1:
            raise ConfigError("scaling action count must be positive")


@dataclass
class AutoscaleEvent:
    """Audit-log entry for one applied (or refused) scaling step."""

    time_s: float
    action: str
    host: str
    pool: str
    reason: str = ""
    #: Tenants moved off a drained host: (tenant, from_host, to_host).
    migrations: List[Tuple[str, str, str]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"time_s": self.time_s, "action": self.action}
        # Rebalance events are fleet-wide: no single host or pool.
        if self.host:
            out["host"] = self.host
        if self.pool:
            out["pool"] = self.pool
        if self.reason:
            out["reason"] = self.reason
        if self.migrations:
            out["migrations"] = [list(m) for m in self.migrations]
        return out


def _scale_up(
    pool: str, count: int, reason: str, obs: SegmentObservation
) -> List[ScalingAction]:
    """An add plus the follow-up rebalance every reactive policy wants."""
    return [
        ScalingAction(ACTION_ADD, pool, count, reason),
        ScalingAction(
            ACTION_REBALANCE, pool, max(1, obs.resident_tenants),
            "spread residents over the grown fleet",
        ),
    ]


class Autoscaler:
    """Base class: a deterministic segment-driven scaling policy.

    Subclasses implement :meth:`observe`, mapping one
    :class:`SegmentObservation` to a (possibly empty) list of
    :class:`ScalingAction` s.  Policies must be pure functions of the
    observation stream and their constructor parameters -- no wall
    clocks, no RNG -- so cluster runs stay reproducible.
    """

    name = "base"

    def __init__(self, **params: Any) -> None:
        if params:
            raise ConfigError(
                f"autoscaler {self.name!r} takes no parameter(s) "
                f"{sorted(params)}"
            )

    def observe(self, obs: SegmentObservation) -> List[ScalingAction]:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """Parameters for provenance / ``--json`` metadata."""
        return {}


class StaticAutoscaler(Autoscaler):
    """Never scales: the fixed-provisioning baseline.

    Useful for apples-to-apples comparisons against a reactive policy:
    enabling it keeps the driver's observation boundaries (and therefore
    the per-segment arrival draws) identical to the reactive run while
    pinning capacity.
    """

    name = "static"

    def observe(self, obs: SegmentObservation) -> List[ScalingAction]:
        return []


class ThresholdAutoscaler(Autoscaler):
    """Classic hysteresis rule on cluster utilization.

    Scale up by ``step`` hosts when the binding-resource utilization of
    the last segment exceeds ``high``; scale down by one when it falls
    below ``low``.  The gap between the thresholds is the hysteresis
    band that prevents flapping.
    """

    name = "threshold"

    def __init__(
        self,
        high: float = 0.75,
        low: float = 0.25,
        step: int = 1,
        pool: str = "",
    ) -> None:
        if not (0.0 < low < high <= 1.0):
            raise ConfigError(
                f"threshold autoscaler needs 0 < low < high <= 1, "
                f"got low={low}, high={high}"
            )
        if step < 1:
            raise ConfigError("threshold autoscaler step must be positive")
        self.high = high
        self.low = low
        self.step = step
        self.pool = pool

    def observe(self, obs: SegmentObservation) -> List[ScalingAction]:
        util = obs.utilization
        if util > self.high or obs.rejections > 0:
            why = (
                f"rejections={obs.rejections}"
                if obs.rejections > 0
                else f"util {util:.2f} > {self.high:.2f}"
            )
            return _scale_up(self.pool, self.step, why, obs)
        if util < self.low and obs.resident_tenants > 0:
            return [ScalingAction(
                ACTION_DRAIN, self.pool, 1,
                f"util {util:.2f} < {self.low:.2f}",
            )]
        return []

    def describe(self) -> Dict[str, Any]:
        return {"high": self.high, "low": self.low, "step": self.step}


class TargetUtilizationAutoscaler(Autoscaler):
    """Proportional control toward a utilization setpoint (HPA-style).

    The desired host count is
    ``ceil(active_hosts * utilization / target)`` -- the smallest fleet
    that would have run the last segment at or below ``target`` -- and
    the policy emits the delta, clamped to ``max_step`` hosts per
    boundary so one noisy segment cannot whipsaw the fleet.
    """

    name = "target-utilization"

    def __init__(
        self,
        target: float = 0.6,
        max_step: int = 2,
        pool: str = "",
    ) -> None:
        if not (0.0 < target <= 1.0):
            raise ConfigError(
                f"target utilization must be in (0, 1], got {target}"
            )
        if max_step < 1:
            raise ConfigError("target-utilization max_step must be positive")
        self.target = target
        self.max_step = max_step
        self.pool = pool

    def observe(self, obs: SegmentObservation) -> List[ScalingAction]:
        if obs.active_hosts < 1:
            return [ScalingAction(ACTION_ADD, self.pool, 1, "cold start")]
        desired = math.ceil(obs.active_hosts * obs.utilization / self.target)
        if obs.rejections > 0:
            desired = max(desired, obs.active_hosts + 1)
        desired = max(1, desired)
        delta = desired - obs.active_hosts
        if delta > 0:
            return _scale_up(
                self.pool, min(delta, self.max_step),
                f"util {obs.utilization:.2f} -> want {desired} hosts", obs,
            )
        if delta < 0:
            return [ScalingAction(
                ACTION_DRAIN, self.pool, min(-delta, self.max_step),
                f"util {obs.utilization:.2f} -> want {desired} hosts",
            )]
        return []

    def describe(self) -> Dict[str, Any]:
        return {"target": self.target, "max_step": self.max_step}


class SloBurnRateAutoscaler(Autoscaler):
    """Error-budget burn-rate control on SLO attainment.

    SRE-style alerting logic turned into a scaler.  With an attainment
    objective ``slo_target`` (say 0.9), every segment burns
    ``(1 - attainment) / (1 - slo_target)`` of its error budget: burn
    1.0 means exactly on objective, above it the budget is being spent
    too fast.  The policy keeps a fast exponential average of the burn
    rate; when it crosses ``high_burn`` the policy adds hosts
    proportionally to the overshoot (and rebalances tenants onto them).
    Scale-down is deliberately slower: only after ``quiet_segments``
    *consecutive* segments with raw burn under ``low_burn`` and no
    rejections does it drain one host -- quick up, slow down, the
    asymmetry serving systems want.  Admission rejections short-circuit
    straight to scale-up.
    """

    name = "slo-burn-rate"

    def __init__(
        self,
        slo_target: float = 0.9,
        high_burn: float = 1.0,
        low_burn: float = 0.5,
        fast_alpha: float = 0.7,
        quiet_segments: int = 3,
        max_step: int = 2,
        pool: str = "",
    ) -> None:
        if not (0.0 < slo_target < 1.0):
            raise ConfigError(
                f"slo_target must be in (0, 1), got {slo_target}"
            )
        if not (0.0 < low_burn < high_burn):
            raise ConfigError("need 0 < low_burn < high_burn")
        if not (0.0 < fast_alpha <= 1.0):
            raise ConfigError(
                f"fast_alpha must be in (0, 1], got {fast_alpha}"
            )
        if quiet_segments < 1:
            raise ConfigError("quiet_segments must be positive")
        if max_step < 1:
            raise ConfigError("slo-burn-rate max_step must be positive")
        self.slo_target = slo_target
        self.high_burn = high_burn
        self.low_burn = low_burn
        self.fast_alpha = fast_alpha
        self.quiet_segments = quiet_segments
        self.max_step = max_step
        self.pool = pool
        self._fast: Optional[float] = None
        self._quiet = 0

    def observe(self, obs: SegmentObservation) -> List[ScalingAction]:
        burn = (1.0 - obs.attainment) / (1.0 - self.slo_target)
        self._fast = (
            burn if self._fast is None
            else self.fast_alpha * burn + (1 - self.fast_alpha) * self._fast
        )
        if obs.rejections > 0:
            self._quiet = 0
            return _scale_up(
                self.pool, 1, f"rejections={obs.rejections}", obs
            )
        if self._fast > self.high_burn:
            self._quiet = 0
            step = min(
                self.max_step,
                max(1, math.ceil(self._fast / self.high_burn) - 1),
            )
            return _scale_up(
                self.pool, step,
                f"fast burn {self._fast:.2f} > {self.high_burn:.2f}", obs,
            )
        if burn < self.low_burn:
            self._quiet += 1
            if self._quiet >= self.quiet_segments:
                self._quiet = 0
                return [ScalingAction(
                    ACTION_DRAIN, self.pool, 1,
                    f"burn < {self.low_burn:.2f} for "
                    f"{self.quiet_segments} segments",
                )]
        else:
            self._quiet = 0
        return []

    def describe(self) -> Dict[str, Any]:
        return {
            "slo_target": self.slo_target,
            "high_burn": self.high_burn,
            "low_burn": self.low_burn,
            "fast_alpha": self.fast_alpha,
            "quiet_segments": self.quiet_segments,
            "max_step": self.max_step,
        }
