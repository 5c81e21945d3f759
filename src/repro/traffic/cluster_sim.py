"""Cluster-scale open-loop serving under tenant churn and autoscaling.

Plays a *churn script* -- timestamped tenant arrive/depart events --
through :class:`repro.cluster.orchestrator.ClusterOrchestrator` (the
KubeVirt stand-in), then simulates every host's resident tenants with
one :class:`Simulator` per host per stable interval.  The timeline is
cut at churn events; within each segment the tenant population is fixed,
so the per-host fluid simulation is exact, and the per-tenant metrics
are merged across segments into one :class:`SloReport` each.  A
segment's host simulations are parts of one answer: they step together,
in this process, through one :func:`repro.megabatch.run_simulators`
call and merge in host order.

Tenant admission, departure and migration go through each host's real
virtualization control plane (:mod:`repro.runtime`): placement opens a
guest driver -- a create hypercall, an SR-IOV virtual function, IOMMU
DMA registration -- and release closes it again.  A
:class:`~repro.cluster.virt.VirtualizationSpec` makes that control
plane bind: per-pool VF budgets turn SR-IOV exhaustion into an
admission-rejection cause, per-hypercall latency holds a tenant's
arrivals back while it onboards, and the run reports hypercall counts,
VF-occupancy timelines and IOMMU mapping counts (also fed to the
autoscaler through :class:`SegmentObservation`).  Without a spec the
driver behaves exactly as before virtualization was wired in.

When :attr:`ClusterTrafficConfig.autoscaler` is set the loop closes:
after every segment the controller receives a
:class:`~repro.cluster.autoscale.SegmentObservation` (attainment,
utilization, rejections over that segment) and may activate hosts from
the configured :class:`~repro.cluster.autoscale.HostPoolSpec` pools or
drain hosts -- migrating their tenants through the placement policy --
before the next segment's arrivals are drawn.  With the autoscaler
unset (the default) the driver takes exactly the pre-autoscaling code
path, so results are bit-identical to earlier releases.

The fleet is always :attr:`ClusterTrafficConfig.pools`.  Hosts with
several cores are simulated as one core with the host's aggregate
engine count -- a fluid approximation consistent with the engine's
execution model.  Tenant demand (arrival rates, SLO targets) is always
calibrated against the *nominal* host defined by
``core``/``cores_per_host``, so migrating a tenant between
heterogeneous pool hosts changes its service capacity, never its
offered load.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.autoscale import (
    ACTION_ADD,
    ACTION_DRAIN,
    ACTION_REBALANCE,
    Autoscaler,
    AutoscaleEvent,
    HostPoolSpec,
    ScalingAction,
    SegmentObservation,
)
from repro.cluster.host import Host
from repro.cluster.orchestrator import ClusterOrchestrator, PlacementRequest
from repro.cluster.virt import (
    FAULT_BURST_STORM,
    FAULT_HOST_CRASH,
    FAULT_HYPERCALL_SPIKE,
    FAULT_VF_LOSS,
    FaultSpec,
    REJECT_CAPACITY,
    REJECT_VF_EXHAUSTED,
    VirtualizationSpec,
    VirtualizationSummary,
    remove_free_vfs,
)
from repro.config import DEFAULT_CORE, DEFAULT_SEED, NpuCoreConfig, spawn_rng
from repro.errors import (
    CheckpointError,
    ConfigError,
    SimulationError,
    ValidationError,
)
from repro.megabatch import run_simulators
from repro.api.registries import SCHEDULERS, make_scheduler, scheme_isa
from repro.sim.engine import Simulator, Tenant
from repro.sim.stats import ordered_mean
from repro.traffic.stepper import (
    EVENT_CHURN,
    EVENT_FAULT,
    ClusterCheckpoint,
    Timeline,
    build_timeline,
)
from repro.traffic.openloop import (
    OpenLoopConfig,
    TrafficTenantSpec,
    _calibrate_cached,
    arrival_process_for,
)
from repro.traffic.slo import SloReport, build_slo_report
from repro.workloads.traces import build_trace

ACTION_ARRIVE = "arrive"
ACTION_DEPART = "depart"


@dataclass(frozen=True)
class ChurnEvent:
    """One tenant joining or leaving the cluster."""

    time_s: float
    action: str
    name: str
    spec: Optional[TrafficTenantSpec] = None
    num_mes: int = 2
    num_ves: int = 2

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValidationError(
                "time_s", self.time_s, "churn events cannot happen before t=0"
            )
        if self.action not in (ACTION_ARRIVE, ACTION_DEPART):
            raise ValidationError(
                "action", self.action,
                f"unknown churn action (expected {ACTION_ARRIVE!r} or "
                f"{ACTION_DEPART!r})",
            )
        if self.action == ACTION_ARRIVE and self.spec is None:
            raise ValidationError(
                "spec", None, f"arrive event for {self.name!r} needs a spec"
            )


@dataclass
class ClusterTrafficConfig:
    """Cluster geometry + the shared open-loop knobs.

    The fleet is ``pools`` of
    :class:`~repro.cluster.autoscale.HostPoolSpec`; the default is two
    fixed single-core hosts.  ``cores_per_host`` sizes no pool: it
    defines the *nominal* host (``core`` times ``cores_per_host``) that
    tenant demand -- arrival rates and SLO targets -- is calibrated
    against.  A scenario's ``hosts:`` spelling becomes one pool in
    :func:`repro.api.runner.cluster_inputs`.

    Two consequences for direct callers: setting ``cores_per_host``
    without ``pools`` keeps the default single-core hosts (so each is
    loaded as if it had ``cores_per_host`` cores' worth of demand), and
    an ``autoscaler`` has no headroom on the default pinned fleet --
    give it ``pools`` whose ``min_hosts``/``max_hosts`` leave room to
    scale.
    """

    cores_per_host: int = 1
    core: NpuCoreConfig = field(default_factory=lambda: DEFAULT_CORE)
    scheme: str = "neu10"
    arrival: str = "poisson"
    load: float = 0.6
    end_s: float = 0.002
    seed: int = DEFAULT_SEED
    #: Host pools, elastic and possibly heterogeneous.
    pools: Tuple[HostPoolSpec, ...] = (
        HostPoolSpec("host", min_hosts=2, max_hosts=2),
    )
    #: Closed-loop scaling policy (None = static cluster, the exact
    #: pre-autoscaling code path).  Each run drives its own deep copy
    #: (:attr:`ClusterSimulation.autoscaler`), so this instance never
    #: changes.
    autoscaler: Optional[Autoscaler] = None
    #: Extra observation boundaries every ``interval`` seconds, so the
    #: controller acts even between churn events (None = churn cuts
    #: only).  Ignored without an autoscaler.
    autoscale_interval_s: Optional[float] = None
    #: Virtualization control-plane knobs (None = default VF pools,
    #: free hypercalls, no control-plane telemetry on the result --
    #: the exact pre-virtualization code path).
    virtualization: Optional[VirtualizationSpec] = None
    #: Injected failures (host crashes, VF loss, hypercall spikes,
    #: traffic burst storms); empty = the exact fault-free code path,
    #: bit-identical to releases without fault injection.
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.cores_per_host < 1:
            raise ValidationError(
                "cores_per_host", self.cores_per_host,
                "hosts need at least one core",
            )
        if self.end_s <= 0:
            raise ValidationError(
                "end_s", self.end_s, "cluster run needs a positive end time"
            )
        self.pools = tuple(self.pools)
        self.faults = tuple(self.faults)
        if not self.pools:
            raise ValidationError(
                "pools", self.pools, "a cluster needs at least one host pool"
            )
        names = [p.name for p in self.pools]
        if len(set(names)) != len(names):
            raise ValidationError(
                "pools", names, "host pool names must be unique"
            )
        if self.autoscale_interval_s is not None and self.autoscale_interval_s <= 0:
            raise ValidationError(
                "autoscale_interval_s", self.autoscale_interval_s,
                "autoscale interval must be positive",
            )


@dataclass
class ClusterTrafficResult:
    reports: Dict[str, SloReport]
    #: Time-weighted mean ME utilization per host over the whole run.
    host_me_utilization: Dict[str, float]
    host_ve_utilization: Dict[str, float]
    admission_rate: float
    rejected: List[str]
    segments: int
    #: Core-cycles actually simulated, summed over hosts and segments
    #: (drained hosts stop before the segment boundary, so this can be
    #: below ``hosts x horizon``).
    simulated_cycles: float = 0.0
    #: Audit log of applied scaling steps (empty without an autoscaler).
    autoscale_events: List[AutoscaleEvent] = field(default_factory=list)
    #: (time_s, live host count) after every boundary's actions.
    host_count_timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: Time-weighted mean live host count over the run.
    mean_active_hosts: float = 0.0
    #: Control-plane telemetry (None unless
    #: :attr:`ClusterTrafficConfig.virtualization` was configured).
    virtualization: Optional[VirtualizationSummary] = None
    #: Audit log of injected faults as applied (empty without a
    #: ``faults`` config): one dict per fault with what it actually did
    #: (victim host, migrations, evictions, VFs removed, ...).
    fault_events: List[Dict[str, object]] = field(default_factory=list)

    @property
    def cluster_me_utilization(self) -> float:
        return ordered_mean(self.host_me_utilization.values())

    @property
    def cluster_ve_utilization(self) -> float:
        return ordered_mean(self.host_ve_utilization.values())

    @property
    def cluster_attainment(self) -> float:
        """Attained / offered over every admitted tenant (1.0 if idle)."""
        offered = sum(r.offered for r in self.reports.values())
        if offered == 0:
            return 1.0
        attained = sum(r.attained for r in self.reports.values())
        return attained / offered


@dataclass
class _Resident:
    request_id: int
    host: Host
    spec: TrafficTenantSpec
    num_mes: int
    num_ves: int


def _sorted_churn(churn: Sequence[ChurnEvent]) -> List[ChurnEvent]:
    """Churn in application order: by time, departs before arrives."""
    return sorted(churn, key=lambda e: (e.time_s, e.action != ACTION_DEPART))


class _Fleet:
    """Live-host bookkeeping: activation order, pools, drain targets."""

    def __init__(
        self,
        pools: Sequence[HostPoolSpec],
        core: NpuCoreConfig,
        virtualization: Optional[VirtualizationSpec] = None,
    ) -> None:
        self.pools = {p.name: p for p in pools}

        def host_kwargs(pool: HostPoolSpec) -> Dict[str, int]:
            # No spec -> no kwarg, so Host's own default VF pool applies.
            if virtualization is None:
                return {}
            return {"num_vfs": virtualization.vfs_for(pool.name)}

        #: Every host the pools could ever provide, in activation order.
        self.hosts: Dict[str, List[Host]] = {
            p.name: [
                Host(
                    f"{p.name}{i}",
                    [core] * p.cores_per_host,
                    **host_kwargs(p),
                )
                for i in range(p.max_hosts)
            ]
            for p in pools
        }
        self.host_core: Dict[str, NpuCoreConfig] = {}
        for p in pools:
            aggregate = core.with_engines(
                core.num_mes * p.cores_per_host,
                core.num_ves * p.cores_per_host,
            )
            for host in self.hosts[p.name]:
                self.host_core[host.name] = aggregate
        self.active: Dict[str, List[bool]] = {
            p.name: [i < p.start_hosts for i in range(p.max_hosts)]
            for p in pools
        }
        #: Crashed host indices per pool: never re-activated.
        self.failed: Dict[str, set] = {p.name: set() for p in pools}
        initial = [
            self.hosts[p.name][i] for p in pools for i in range(p.start_hosts)
        ]
        if not initial:
            raise ConfigError("cluster needs at least one live host at t=0")
        self.orch = ClusterOrchestrator(initial)
        #: Hosts that were live at any point (utilization accounting).
        self.ever_active: List[Host] = list(initial)

    # ------------------------------------------------------------------
    def active_hosts(self) -> List[Host]:
        """Live hosts in deterministic (pool, index) order."""
        out: List[Host] = []
        for name, hosts in self.hosts.items():
            flags = self.active[name]
            out.extend(h for h, live in zip(hosts, flags) if live)
        return out

    def all_hosts(self) -> List[Host]:
        """Every host of every pool, live or not (telemetry sums)."""
        return [h for hosts in self.hosts.values() for h in hosts]

    def active_count(self, pool: Optional[str] = None) -> int:
        if pool is None:
            return sum(sum(flags) for flags in self.active.values())
        return sum(self.active[pool])

    def pool_counts(self) -> Dict[str, int]:
        return {name: sum(flags) for name, flags in self.active.items()}

    # ------------------------------------------------------------------
    def activate(self, pool: str, time_s: float, reason: str,
                 log: List[AutoscaleEvent]) -> bool:
        """Bring the lowest-index inactive host of ``pool`` online."""
        spec = self.pools[pool]
        flags = self.active[pool]
        if sum(flags) >= spec.max_hosts:
            return False
        failed = self.failed[pool]
        idx = next(
            (i for i, on in enumerate(flags) if not on and i not in failed),
            None,
        )
        if idx is None:  # every spare host of the pool has crashed
            return False
        host = self.hosts[pool][idx]
        flags[idx] = True
        self.orch.add_host(host)
        if host not in self.ever_active:
            self.ever_active.append(host)
        log.append(AutoscaleEvent(time_s, ACTION_ADD, host.name, pool, reason))
        return True

    def drain(
        self,
        pool: str,
        time_s: float,
        reason: str,
        residents: Dict[str, _Resident],
        log: List[AutoscaleEvent],
    ) -> bool:
        """Drain the least-loaded live host of ``pool`` and retire it.

        Residents are migrated one by one through the placement policy;
        if any tenant cannot be re-placed elsewhere the drain is
        abandoned (already-moved tenants stay moved -- they are valid
        placements either way) and the host remains live.
        """
        spec = self.pools[pool]
        flags = self.active[pool]
        if sum(flags) <= max(spec.min_hosts, 0) or self.active_count() <= 1:
            return False
        live = [
            (h.load, h.name, i)
            for i, (h, on) in enumerate(zip(self.hosts[pool], flags))
            if on
        ]
        _, victim_name, victim_idx = min(live)
        victim = self.hosts[pool][victim_idx]
        moved: List[Tuple[str, str, str]] = []
        for tenant in sorted(
            n for n, r in residents.items() if r.host is victim
        ):
            resident = residents[tenant]
            placement = self.orch.migrate(
                resident.request_id, exclude=(victim.name,)
            )
            if placement is None:
                log.append(AutoscaleEvent(
                    time_s, "drain-aborted", victim.name, pool,
                    f"{tenant!r} does not fit elsewhere", moved,
                ))
                return False
            resident.host = placement.host
            moved.append((tenant, victim.name, placement.host.name))
        self.orch.remove_host(victim.name)
        flags[victim_idx] = False
        log.append(AutoscaleEvent(
            time_s, ACTION_DRAIN, victim.name, pool, reason, moved
        ))
        return True

    def locate(self, host_name: str) -> Optional[Tuple[str, int]]:
        """``(pool, index)`` of a host by name, live or not."""
        for pool, hosts in self.hosts.items():
            for i, host in enumerate(hosts):
                if host.name == host_name:
                    return pool, i
        return None

    def crash(
        self,
        host_name: str,
        residents: Dict[str, "_Resident"],
    ) -> Tuple[List[Tuple[str, str, str]], List[str]]:
        """Fail a live host hard: re-place its residents, mark it dead.

        Unlike :meth:`drain`, a crash cannot be abandoned -- tenants
        that fit nowhere else are *evicted* (their placement released,
        their remaining traffic lost).  The host never returns: its
        pool index lands in :attr:`failed` so the autoscaler cannot
        re-activate it.  Returns ``(migrated, evicted)``.
        """
        located = self.locate(host_name)
        if located is None:
            raise ConfigError(f"cannot crash unknown host {host_name!r}")
        pool, idx = located
        victim = self.hosts[pool][idx]
        migrated: List[Tuple[str, str, str]] = []
        evicted: List[str] = []
        for tenant in sorted(
            n for n, r in residents.items() if r.host is victim
        ):
            resident = residents[tenant]
            placement = self.orch.migrate(
                resident.request_id, exclude=(victim.name,)
            )
            if placement is None:
                self.orch.release(resident.request_id)
                del residents[tenant]
                evicted.append(tenant)
                continue
            resident.host = placement.host
            migrated.append((tenant, victim.name, placement.host.name))
        self.orch.remove_host(victim.name)
        self.active[pool][idx] = False
        self.failed[pool].add(idx)
        return migrated, evicted

    def rebalance(
        self,
        max_moves: int,
        time_s: float,
        reason: str,
        residents: Dict[str, _Resident],
        log: List[AutoscaleEvent],
    ) -> bool:
        """Migrate tenants from the most- to the least-loaded live host.

        Each move must strictly shrink the committed-load spread, so the
        loop terminates and never ping-pongs a tenant; moves go through
        :meth:`ClusterOrchestrator.migrate` with every host but the
        chosen destination excluded, so the placement policy still gets
        the final say on feasibility.
        """
        moved: List[Tuple[str, str, str]] = []
        for _ in range(max_moves):
            active = sorted(
                self.active_hosts(), key=lambda h: (h.load, h.name)
            )
            if len(active) < 2:
                break
            dst, src = active[0], active[-1]
            names = sorted(
                n for n, r in residents.items() if r.host is src
            )
            # First tenant (in name order) whose move strictly shrinks
            # the spread -- a big tenant may overshoot where a small
            # one still helps.
            chosen = None
            for name in names:
                resident = residents[name]
                eu = resident.num_mes + resident.num_ves
                new_src = src.load - eu / (src.total_mes + src.total_ves)
                new_dst = dst.load + eu / (dst.total_mes + dst.total_ves)
                if max(new_src, new_dst) < src.load - 1e-12:
                    chosen = name
                    break
            if chosen is None:
                break
            resident = residents[chosen]
            placement = self.orch.migrate(
                resident.request_id,
                exclude=tuple(
                    h.name for h in active if h.name != dst.name
                ),
            )
            if placement is None:
                break
            resident.host = placement.host
            moved.append((chosen, src.name, placement.host.name))
        if moved:
            log.append(AutoscaleEvent(
                time_s, ACTION_REBALANCE, "", "", reason, moved
            ))
        return bool(moved)


def run_cluster_traffic(
    events: Sequence[ChurnEvent],
    cfg: Optional[ClusterTrafficConfig] = None,
) -> ClusterTrafficResult:
    """Play a churn script and aggregate cluster-wide SLO metrics.

    With ``cfg.autoscaler`` set, scaling actions are applied at segment
    boundaries (before that boundary's churn events) based on the
    previous segment's observation; the action log, host-count timeline
    and time-weighted mean fleet size land on the result.

    Thin wrapper over :class:`ClusterSimulation`: constructing the
    state machine and running it straight to the horizon is exactly the
    code path earlier releases took, so results are bit-identical.
    """
    return ClusterSimulation(events, cfg).run()


#: Every mutable attribute a checkpoint captures, pickled as one dict so
#: shared object identity (a resident's ``host`` *is* the fleet's host,
#: which *is* an orchestrator entry) survives the round trip.
_STATE_ATTRS = (
    # The live churn/fault scripts (injection can extend them mid-run).
    "churn",
    "faults",
    # Fleet + orchestration state (hosts, hypervisors, placements).
    "fleet",
    "residents",
    "rejected",
    "rejection_causes",
    "onboard_until",
    "onboarding_delay_s",
    # Accumulated metrics.
    "reports",
    "busy",
    "segments",
    "simulated_cycles",
    "autoscale_events",
    "host_count_timeline",
    "host_seconds",
    "fault_events",
    "vf_timeline",
    "last_hypercalls",
    # Controller state between segments.
    "autoscaler",
    "rejected_before_segment",
    # Streaming per-segment observations (serve replay).
    "segment_log",
)


class ClusterSimulation:
    """Steppable cluster-simulation state machine.

    The timeline (churn, faults, autoscale ticks, load-phase edges) is
    built once as a unified sorted :class:`~repro.traffic.stepper.Timeline`;
    :meth:`step_segment` consumes it one segment at a time --
    apply the previous segment's autoscale observation, apply the
    opening boundary's churn and point faults, simulate every live
    host's resident tenants to the next boundary, merge the per-tenant
    reports.  :meth:`run` steps to the horizon and scores, which is the
    exact code path (and bit-identical output) of the historical
    one-shot ``run_cluster_traffic``.

    Between segments the entire mutable state can be captured with
    :meth:`snapshot` and rebuilt -- in this process or a fresh one --
    with :meth:`restore`, so interrupted runs resume bit-identically.
    Per-(tenant, segment) RNG streams are derived from the seed and
    never persist across segments, so the checkpoint carries no RNG
    state.  Every id the run issues comes from a counter on the object
    that owns the table it keys (placement requests from the
    orchestrator, vNPUs from each host's manager), so the fleet carries
    its own id state: one process may hold several live simulations and
    restore any checkpoint among them.

    A live run can also be steered: :meth:`inject_churn` /
    :meth:`inject_fault` splice new events into the not-yet-simulated
    part of the timeline (``repro serve`` maps tenant and traffic-spike
    injection onto these).
    """

    #: Index of the segment whose step raised after its boundary was
    #: applied; a run with one set cannot step, score or checkpoint.
    failed_segment: Optional[int] = None

    def __init__(
        self,
        events: Sequence[ChurnEvent],
        cfg: Optional[ClusterTrafficConfig] = None,
    ) -> None:
        self._configure(events, cfg)
        self._start(events)
        self._build_timeline()

    def _configure(
        self,
        events: Sequence[ChurnEvent],
        cfg: Optional[ClusterTrafficConfig],
    ) -> None:
        """What derives from ``(events, cfg)`` alone -- the only part
        :meth:`restore` builds, since the checkpoint holds the rest."""
        cfg = cfg if cfg is not None else ClusterTrafficConfig()
        self.cfg = cfg
        #: Demand reference: arrival rates and SLO targets are calibrated
        #: against this nominal host, independent of actual placement.
        self.nominal_core = cfg.core.with_engines(
            cfg.core.num_mes * cfg.cores_per_host,
            cfg.core.num_ves * cfg.cores_per_host,
        )
        virt = cfg.virtualization
        if virt is not None:
            unknown = set(virt.pool_num_vfs) - {p.name for p in cfg.pools}
            if unknown:
                known = ", ".join(sorted(p.name for p in cfg.pools))
                raise ConfigError(
                    f"virtualization names unknown pool(s) {sorted(unknown)}; "
                    f"known: {known}"
                )
        self.virt = virt
        self.virt_cost = virt.hypercall_cost_s if virt is not None else 0.0
        SCHEDULERS.get(cfg.scheme)  # helpful unknown-scheme error up front
        self.interval = (
            cfg.autoscale_interval_s if cfg.autoscaler is not None else None
        )
        self.first_pool = cfg.pools[0].name
        #: Control-plane telemetry is only consumed by the virtualization
        #: summary and the autoscaler's observations; skip the per-segment
        #: fleet walks entirely on the plain path.
        self.track_control_plane = virt is not None or cfg.autoscaler is not None
        #: Identity of this (events, config) pair, stamped into every
        #: checkpoint.  It hashes the caller's script, never a restored
        #: one (which may hold injected events).  The run steps its own
        #: copy of the autoscaler, so ``cfg`` -- and with it the digest
        #: -- stays as configured.  ``None`` when the configuration is
        #: not picklable (e.g. an ad-hoc local autoscaler class): such
        #: runs simulate fine, they just cannot be checkpointed.
        try:
            self.config_digest: Optional[str] = hashlib.sha256(
                pickle.dumps((_sorted_churn(events), cfg), protocol=4)
            ).hexdigest()
        except (AttributeError, TypeError, pickle.PicklingError):
            self.config_digest = None

    def _start(self, events: Sequence[ChurnEvent]) -> None:
        """The fresh run state a checkpoint replaces: the fleet, the
        scripts and every accumulator, at t=0."""
        cfg = self.cfg
        self.fleet = _Fleet(cfg.pools, cfg.core, self.virt)
        self.orch = self.fleet.orch

        self.fault_events: List[Dict[str, object]] = []
        self.residents: Dict[str, _Resident] = {}
        self.rejected: List[str] = []
        self.rejection_causes: Dict[str, str] = {}
        #: Simulated time until which a tenant's arrivals are held back
        #: by control-plane latency (admission / migration hypercalls).
        self.onboard_until: Dict[str, float] = {}
        self.onboarding_delay_s = 0.0
        self.reports: Dict[str, SloReport] = {}
        self.busy: Dict[str, Tuple[float, float]] = {
            h.name: (0.0, 0.0) for h in self.fleet.ever_active
        }

        #: The policy this run drives: a private copy, because policies
        #: keep state between observations and the caller's config must
        #: not carry it into another run (or into a restore's digest).
        self.autoscaler = copy.deepcopy(cfg.autoscaler)
        self._set_scripts(events, cfg.faults)
        self._log_window_faults(self.faults)

        self.segments = 0
        self.simulated_cycles = 0.0
        self.autoscale_events: List[AutoscaleEvent] = []
        self.host_count_timeline: List[Tuple[float, int]] = []
        self.host_seconds = 0.0
        self.rejected_before_segment = 0
        #: Fleet-wide hypercall reading at the previous segment start, for
        #: per-segment deltas (boundary churn is attributed to the segment
        #: it opens).
        self.last_hypercalls = 0
        self.vf_timeline: List[Tuple[float, int, int]] = []
        #: One observation per simulated segment; the autoscaler reads
        #: the latest at the next boundary.
        self.segment_log: List[SegmentObservation] = []
        self._next = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total_segments(self) -> int:
        return len(self.boundaries) - 1

    @property
    def segments_completed(self) -> int:
        return self._next

    @property
    def done(self) -> bool:
        return self._next >= self.total_segments

    @property
    def time_s(self) -> float:
        """Current simulated time (the boundary opening the next segment)."""
        return self.boundaries[self._next]

    # ------------------------------------------------------------------
    # Timeline installation (construction, restore, live injection)
    # ------------------------------------------------------------------
    def _install_script(
        self, churn: Sequence[ChurnEvent], faults: Sequence[FaultSpec]
    ) -> None:
        """(Re)build the unified timeline from churn + fault scripts."""
        self._set_scripts(churn, faults)
        self._build_timeline()

    def _set_scripts(
        self, churn: Sequence[ChurnEvent], faults: Sequence[FaultSpec]
    ) -> None:
        """Keep both scripts in their deterministic application order:
        churn by time, departs before arrives; faults by fire time,
        then kind, then target."""
        self.churn = _sorted_churn(churn)
        self.faults = sorted(
            faults, key=lambda f: (f.time_s, f.kind, f.host or "", f.count)
        )
        self.storms = [f for f in self.faults if f.kind == FAULT_BURST_STORM]
        self.spikes = [
            f for f in self.faults if f.kind == FAULT_HYPERCALL_SPIKE
        ]

    def _build_timeline(self) -> None:
        self.timeline: Timeline = build_timeline(
            self.churn, self.faults, self.cfg.end_s, self.interval
        )
        self.boundaries = list(self.timeline.boundaries)

    def inject_churn(self, event: ChurnEvent) -> None:
        """Splice a live churn event into the remaining timeline."""
        self._inject(churn=(event,))

    def inject_fault(self, fault: FaultSpec) -> None:
        """Splice a live fault into the remaining timeline."""
        self._inject(faults=(fault,))

    def _inject(
        self,
        churn: Sequence[ChurnEvent] = (),
        faults: Sequence[FaultSpec] = (),
    ) -> None:
        if self.done:
            raise SimulationError(
                "cannot inject into a finished simulation"
            )
        now = self.time_s
        for item in list(churn) + list(faults):
            if item.time_s <= now:
                raise ValidationError(
                    "time_s", item.time_s,
                    f"injected events must land strictly after t={now}",
                )
            if item.time_s >= self.cfg.end_s:
                raise ValidationError(
                    "time_s", item.time_s,
                    "injected events must land before the horizon "
                    f"end_s={self.cfg.end_s}",
                )
        old_churn, old_faults = self.churn, self.faults
        old_prefix = self.boundaries[: self._next + 1]
        self._install_script(
            old_churn + list(churn), old_faults + list(faults)
        )
        try:
            if self.boundaries[: self._next + 1] != old_prefix:
                # A new cut within float-epsilon of an already-consumed
                # autoscale tick would rewrite history; refuse it.
                raise ValidationError(
                    "time_s",
                    [item.time_s for item in list(churn) + list(faults)],
                    "injection would perturb already-simulated boundaries",
                )
            for event in churn:
                self._validate_injected_churn(event)
        except ValidationError:
            self._install_script(old_churn, old_faults)
            raise
        self._log_window_faults(faults)

    def _log_window_faults(self, faults: Sequence[FaultSpec]) -> None:
        """Audit the storm and spike windows among ``faults`` that open
        before the horizon (point faults are audited as they fire)."""
        for fault in faults:
            if (
                fault.kind in (FAULT_BURST_STORM, FAULT_HYPERCALL_SPIKE)
                and fault.time_s < self.cfg.end_s
            ):
                self.fault_events.append({
                    "time_s": fault.time_s, "kind": fault.kind,
                    "applied": True,
                    "duration_s": fault.duration_s, "factor": fault.factor,
                })

    def _validate_injected_churn(self, event: ChurnEvent) -> None:
        """Refuse a churn injection that could blow up at its boundary.

        Projects the tenant's residency through the pending (not yet
        simulated) part of the installed script, which already holds
        ``event``.  An arrival's admit/reject
        outcome depends on future capacity and cannot be known here, so
        anything that *might* make :meth:`_apply_churn` raise is
        refused up front -- a live injection must never corrupt the run
        it steers.
        """
        now = self.time_s
        if event.name in self.residents:
            state = "resident"
        elif event.name in self.rejected:
            state = "rejected"
        else:
            state = "absent"
        for ev in self.churn:
            if ev is event:
                break
            if ev.time_s < now or ev.name != event.name:
                continue
            if ev.action == ACTION_ARRIVE:
                state = "maybe-resident"
            elif state == "resident":
                state = "absent"
            elif state == "maybe-resident":
                state = "maybe-gone"
        if event.action == ACTION_ARRIVE and state in (
            "resident", "maybe-resident"
        ):
            raise ValidationError(
                "name", event.name,
                f"tenant is (or may still be) resident at t={event.time_s}; "
                "schedule a depart first",
            )
        if event.action == ACTION_DEPART and state in (
            "absent", "maybe-gone"
        ):
            raise ValidationError(
                "name", event.name,
                f"tenant is not (or may not be) resident at t={event.time_s}",
            )

    # ------------------------------------------------------------------
    # Boundary application
    # ------------------------------------------------------------------
    def _check_boundary_churn(self, at: float) -> None:
        """Pre-flight a boundary's churn before anything mutates.

        Raises the exact :class:`ConfigError` :meth:`_apply_churn`
        would, but *before* the autoscaler acts or any earlier event at
        the boundary lands, so a failing :meth:`step_segment` leaves
        the simulation untouched and retryable instead of half-applied.
        (An arrival's admit/reject outcome cannot be predicted without
        simulating, so a same-boundary re-arrival of one name passes
        here; :meth:`_inject` refuses to produce one.)
        """
        resident = set(self.residents)
        rejected = set(self.rejected)
        arrived: set = set()
        for tev in self.timeline.events_at.get(at, ()):
            if tev.kind != EVENT_CHURN:
                continue
            ev = tev.payload
            if ev.action == ACTION_ARRIVE:
                if ev.name in resident:
                    raise ConfigError(
                        f"tenant {ev.name!r} is already resident"
                    )
                arrived.add(ev.name)
            elif ev.name in resident:
                resident.discard(ev.name)
            elif ev.name not in rejected and ev.name not in arrived:
                raise ConfigError(f"tenant {ev.name!r} is not resident")

    def _hypercall_cost_at(self, at: float) -> float:
        """Control-plane latency per hypercall at time ``at``."""
        cost = self.virt_cost
        for spike in self.spikes:
            if spike.covers(at):
                cost *= spike.factor
        return cost

    def _load_multiplier(self, t0: float, t1: float) -> float:
        """Offered-load factor for the segment ``[t0, t1)``.

        Storm edges cut the timeline, so a segment is either fully
        inside or fully outside every storm window; the midpoint test
        is robust to float jitter at the edges.
        """
        mid = 0.5 * (t0 + t1)
        mult = 1.0
        for storm in self.storms:
            if storm.covers(mid):
                mult *= storm.factor
        return mult

    def _apply_churn(self, ev: ChurnEvent, at: float) -> None:
        if ev.action == ACTION_ARRIVE:
            if ev.name in self.residents:
                raise ConfigError(f"tenant {ev.name!r} is already resident")
            request = PlacementRequest(
                owner=ev.name, num_mes=ev.num_mes, num_ves=ev.num_ves
            )
            placement = self.orch.submit(request)
            if placement is None:
                self.rejected.append(ev.name)
                self.rejection_causes[ev.name] = self.orch.rejection_causes.get(
                    request.request_id, REJECT_CAPACITY
                )
                return
            self.residents[ev.name] = _Resident(
                request_id=placement.request.request_id,
                host=placement.host,
                spec=ev.spec,
                num_mes=ev.num_mes,
                num_ves=ev.num_ves,
            )
            if self.virt_cost > 0:
                # One create hypercall stands between admission and
                # the tenant's first served request.
                self.onboard_until[ev.name] = at + self._hypercall_cost_at(at)
        else:
            resident = self.residents.pop(ev.name, None)
            if resident is None:
                if ev.name in self.rejected:
                    return  # never admitted; nothing to release
                raise ConfigError(f"tenant {ev.name!r} is not resident")
            self.orch.release(resident.request_id)
            self.onboard_until.pop(ev.name, None)

    def _apply_fault(self, fault: FaultSpec, at: float) -> None:
        """Fire one point fault at boundary ``at``."""
        fleet = self.fleet
        if fault.kind == FAULT_HOST_CRASH:
            live = fleet.active_hosts()
            victim = None
            if fault.host is not None:
                victim = next(
                    (h for h in live if h.name == fault.host), None
                )
            elif len(live) > 1:
                # Most-loaded live host; name-order tiebreak.
                victim = max(live, key=lambda h: (h.load, h.name))
            if victim is None or len(live) <= 1:
                # Never crash the last live host (the run could not
                # continue) or a host that is not live.
                self.fault_events.append({
                    "time_s": at, "kind": fault.kind,
                    "host": fault.host, "applied": False,
                })
                return
            migrated, evicted = fleet.crash(victim.name, self.residents)
            for name in evicted:
                self.onboard_until.pop(name, None)
            if self.virt_cost > 0:
                # Every re-placed tenant pays destroy + create.
                cost = self._hypercall_cost_at(at)
                for tenant, _src, _dst in migrated:
                    self.onboard_until[tenant] = max(
                        self.onboard_until.get(tenant, 0.0), at + 2 * cost
                    )
            self.fault_events.append({
                "time_s": at, "kind": fault.kind, "host": victim.name,
                "applied": True,
                "migrated": [list(m) for m in migrated],
                "evicted": list(evicted),
            })
        elif fault.kind == FAULT_VF_LOSS:
            live = fleet.active_hosts()
            victim = None
            if fault.host is not None:
                victim = next(
                    (h for h in live if h.name == fault.host), None
                )
            elif live:
                # Host with the most free VFs; name-order tiebreak.
                victim = max(live, key=lambda h: (h.free_vfs, h.name))
            removed = (
                remove_free_vfs(victim, fault.count)
                if victim is not None
                else 0
            )
            self.fault_events.append({
                "time_s": at, "kind": fault.kind,
                "host": victim.name if victim is not None else fault.host,
                "applied": removed > 0,
                "removed": removed,
            })

    def _apply_actions(
        self, actions: Sequence[ScalingAction], at: float
    ) -> None:
        fleet = self.fleet
        for act in actions:
            if act.action == ACTION_REBALANCE:
                fleet.rebalance(
                    act.count, at, act.reason, self.residents,
                    self.autoscale_events,
                )
                continue
            pool = act.pool or self.first_pool
            if pool not in fleet.pools:
                known = ", ".join(sorted(fleet.pools))
                raise ConfigError(
                    f"autoscaler targeted unknown pool {pool!r}; "
                    f"known: {known}"
                )
            for _ in range(act.count):
                done = (
                    fleet.activate(
                        pool, at, act.reason, self.autoscale_events
                    )
                    if act.action == ACTION_ADD
                    else fleet.drain(
                        pool, at, act.reason, self.residents,
                        self.autoscale_events,
                    )
                )
                if not done:
                    break

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _check_intact(self) -> None:
        if self.failed_segment is not None:
            raise SimulationError(
                f"segment {self.failed_segment} failed part-way, so this "
                "run is half-stepped; restore a checkpoint to go on"
            )

    def step_segment(self) -> Optional[SegmentObservation]:
        """Simulate the next segment; return its observation.

        Applies the previous segment's autoscale observation, the
        opening boundary's churn and point faults, then simulates every
        live host to the next boundary and merges the results.  Returns
        ``None`` only for a (defensively handled) zero-width segment;
        raises :class:`~repro.errors.SimulationError` past the horizon
        -- check :attr:`done` first.

        A boundary that cannot apply raises before it touches any state,
        so the run stays retryable.  Anything that raises later leaves
        the run half-stepped: it is marked failed, and every later
        step, :meth:`result` and :meth:`snapshot` raises a
        :class:`~repro.errors.SimulationError` naming the segment.
        """
        self._check_intact()
        if self.done:
            raise SimulationError(
                "cluster simulation already reached its horizon"
            )
        seg_index = self._next
        # All-or-nothing boundary application: reject a bad boundary
        # before the autoscaler or any of its events touch state, so a
        # caller observing the error holds an intact, retryable run.
        self._check_boundary_churn(self.boundaries[seg_index])
        try:
            return self._step(seg_index)
        except BaseException:
            self.failed_segment = seg_index
            raise

    def _step(self, seg_index: int) -> Optional[SegmentObservation]:
        """The part of :meth:`step_segment` that changes the run."""
        cfg = self.cfg
        fleet = self.fleet
        t0 = self.boundaries[seg_index]
        t1 = self.boundaries[seg_index + 1]
        if self.autoscaler is not None and self.segment_log:
            # The previous segment's logged observation: residents and
            # rejections change only inside this method, so it still
            # describes the fleet at this boundary.
            events_before = len(self.autoscale_events)
            self._apply_actions(
                self.autoscaler.observe(self.segment_log[-1]), t0
            )
            if self.virt_cost > 0:
                # A migration is one destroy plus one create hypercall;
                # the moved tenant is off the air for both.
                for aev in self.autoscale_events[events_before:]:
                    for tenant, _src, _dst in aev.migrations:
                        if tenant in self.residents:
                            self.onboard_until[tenant] = max(
                                self.onboard_until.get(tenant, 0.0),
                                t0 + 2 * self._hypercall_cost_at(t0),
                            )
        self.rejected_before_segment = len(self.rejected)
        for tev in self.timeline.events_at.get(t0, ()):
            if tev.kind == EVENT_CHURN:
                self._apply_churn(tev.payload, t0)
            elif tev.kind == EVENT_FAULT:
                self._apply_fault(tev.payload, t0)
        self._next = seg_index + 1
        seg_s = t1 - t0
        if seg_s <= 0:  # defensive: boundaries are strictly increasing
            return None
        self.segments += 1
        active = fleet.active_hosts()
        self.host_count_timeline.append((t0, len(active)))
        self.host_seconds += len(active) * seg_s
        seg_vf_in_use = seg_vf_capacity = seg_iommu = seg_hypercalls = 0
        if self.track_control_plane:
            # Control-plane occupancy over the live hosts at segment
            # start; hypercall delta over the whole fleet.
            seg_vf_in_use = sum(h.hypervisor.vf_in_use for h in active)
            seg_vf_capacity = sum(h.hypervisor.vf_capacity for h in active)
            seg_iommu = sum(h.hypervisor.iommu_mapping_count for h in active)
            if self.virt is not None:  # only the summary consumes the timeline
                self.vf_timeline.append((t0, seg_vf_in_use, seg_vf_capacity))
            hypercalls_now = sum(
                h.hypervisor.hypercall_count for h in fleet.all_hosts()
            )
            seg_hypercalls = hypercalls_now - self.last_hypercalls
            self.last_hypercalls = hypercalls_now
        seg_cycles = cfg.core.seconds_to_cycles(seg_s)
        by_host: Dict[str, List[Tuple[str, _Resident]]] = {}
        for name, resident in self.residents.items():
            by_host.setdefault(resident.host.name, []).append((name, resident))

        seg_load = cfg.load
        if self.storms:
            seg_load = cfg.load * self._load_multiplier(t0, t1)
        ol_cfg = OpenLoopConfig(
            core=self.nominal_core,
            duration_s=seg_s,
            load=seg_load,
            arrival=cfg.arrival,
            seed=cfg.seed,
        )
        isa = scheme_isa(cfg.scheme)
        sims: List[Simulator] = []
        # Per simulated host, what scoring needs: its name and each
        # tenant's (name, SLO target, offered requests) by tenant id.
        scoring: List[Tuple[str, List[Tuple[str, float, int]]]] = []
        for host in active:
            group = by_host.get(host.name)
            if not group:
                continue
            drawn: List[Tuple[str, _Resident, float, List[float]]] = []
            for name, resident in sorted(group):
                spec = resident.spec
                svc = _calibrate_cached(
                    spec.model, spec.batch, resident.num_mes, resident.num_ves,
                    cfg.scheme, self.nominal_core,
                )
                process = arrival_process_for(spec, ol_cfg, svc, seg_cycles)
                rng = spawn_rng(cfg.seed, name, seg_index)
                arrivals = process.generate(seg_cycles, rng)
                hold_s = self.onboard_until.get(name, 0.0) - t0
                if hold_s > 0:
                    # Requests landing while the control plane is still
                    # onboarding the tenant queue until it comes up:
                    # the hypercall latency is paid in queueing delay.
                    hold_s = min(hold_s, seg_s)
                    hold_cycles = cfg.core.seconds_to_cycles(hold_s)
                    arrivals = [max(a, hold_cycles) for a in arrivals]
                    self.onboarding_delay_s += hold_s
                drawn.append((name, resident, spec.slo.resolve(svc), arrivals))
            if all(not arrivals for *_, arrivals in drawn):
                continue
            host_core = fleet.host_core[host.name]
            tenants = [
                Tenant(
                    tenant_id=idx,
                    name=name,
                    graph=build_trace(
                        resident.spec.model, resident.spec.batch,
                        core=host_core,
                    ).compiled(isa),
                    alloc_mes=resident.num_mes,
                    alloc_ves=resident.num_ves,
                    target_requests=None,
                    priority=resident.spec.priority,
                    arrivals=arrivals,
                )
                for idx, (name, resident, _, arrivals) in enumerate(drawn)
            ]
            sims.append(Simulator(
                host_core,
                make_scheduler(cfg.scheme),
                tenants,
                horizon_cycles=seg_cycles,
                record_ops=False,
            ))
            scoring.append((host.name, [
                (name, target, len(arrivals))
                for name, _, target, arrivals in drawn
            ]))

        # Hosts are independent within a stable segment: they step as
        # one batch, and merge in deterministic host order.
        seg_me = seg_ve = 0.0
        seg_offered = seg_attained = 0
        for (host_name, host_tenants), result in zip(
            scoring, run_simulators(sims)
        ):
            # Drain can end the simulation before the segment boundary;
            # utilization only covers the cycles actually simulated.
            host_core = fleet.host_core[host_name]
            simulated_s = min(
                seg_s, host_core.cycles_to_seconds(result.total_cycles)
            )
            me_seconds = result.stats.me_utilization() * simulated_s
            ve_seconds = result.stats.ve_utilization() * simulated_s
            me_s, ve_s = self.busy.get(host_name, (0.0, 0.0))
            self.busy[host_name] = (me_s + me_seconds, ve_s + ve_seconds)
            self.simulated_cycles += min(result.total_cycles, seg_cycles)
            seg_me += me_seconds
            seg_ve += ve_seconds
            for idx, (name, target, offered) in enumerate(host_tenants):
                report = build_slo_report(
                    name, cfg.scheme, target, result.tenant(idx), seg_s,
                    offered=offered,
                )
                seg_offered += report.offered
                seg_attained += report.attained
                if name in self.reports:
                    self.reports[name].extend(report)
                else:
                    self.reports[name] = report
        denom = max(1, len(active)) * seg_s
        observation = SegmentObservation(
            segment_index=seg_index,
            time_s=t1,
            duration_s=seg_s,
            active_hosts=len(active),
            pool_hosts=fleet.pool_counts(),
            resident_tenants=len(self.residents),
            rejections=len(self.rejected) - self.rejected_before_segment,
            me_utilization=seg_me / denom,
            ve_utilization=seg_ve / denom,
            offered=seg_offered,
            attained=seg_attained,
            hypercalls=seg_hypercalls,
            vf_in_use=seg_vf_in_use,
            vf_capacity=seg_vf_capacity,
            iommu_mappings=seg_iommu,
        )
        self.segment_log.append(observation)
        return observation

    def advance(self, until_s: float) -> List[SegmentObservation]:
        """Step every segment that ends at or before ``until_s``."""
        self._check_intact()
        out: List[SegmentObservation] = []
        while not self.done and self.boundaries[self._next + 1] <= until_s:
            observation = self.step_segment()
            if observation is not None:
                out.append(observation)
        return out

    def run(self) -> ClusterTrafficResult:
        """Step to the horizon and score (the classic one-shot path)."""
        while not self.done:
            self.step_segment()
        return self.result()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _virtualization_summary(self) -> Optional[VirtualizationSummary]:
        virt = self.virt
        if virt is None:
            return None
        hypercalls: Dict[str, int] = {
            "create": 0, "reconfigure": 0, "destroy": 0
        }
        for host in self.fleet.all_hosts():
            for kind, count in host.hypervisor.hypercall_counts.items():
                hypercalls[kind] = hypercalls.get(kind, 0) + count
        return VirtualizationSummary(
            hypercalls=hypercalls,
            vf_occupancy_timeline=self.vf_timeline,
            peak_vf_in_use=max(
                (used for _, used, _ in self.vf_timeline), default=0
            ),
            # Counted per rejected *request* (a tenant retried after a
            # rejection counts each attempt, matching ``rejected``);
            # ``rejection_causes`` keeps the last cause per tenant name.
            vf_exhaustion_rejections=self.orch.rejection_cause_counts().get(
                REJECT_VF_EXHAUSTED, 0
            ),
            rejection_causes=dict(self.rejection_causes),
            iommu_windows_attached=sum(
                h.hypervisor.iommu.windows_attached_total
                for h in self.fleet.all_hosts()
            ),
            iommu_dma_registrations=sum(
                h.hypervisor.iommu.dma_registrations_total
                for h in self.fleet.all_hosts()
            ),
            final_iommu_mappings=sum(
                h.hypervisor.iommu_mapping_count
                for h in self.fleet.all_hosts()
            ),
            final_vf_in_use=sum(
                h.hypervisor.vf_in_use for h in self.fleet.all_hosts()
            ),
            onboarding_delay_s=self.onboarding_delay_s,
            hypercall_cost_s=virt.hypercall_cost_s,
        )

    def result(self) -> ClusterTrafficResult:
        """Score the run so far into a :class:`ClusterTrafficResult`.

        Callable mid-run: every aggregate (per-tenant reports, host
        busy-seconds, control-plane counters) is maintained as
        mergeable partial state, so a paused or restored simulation
        reports consistent partial metrics.  After the final segment
        the result is bit-identical to the one-shot path's.
        """
        self._check_intact()
        total_s = self.cfg.end_s
        return ClusterTrafficResult(
            # Copies: later segments extend the live reports in place.
            reports={name: r.copy() for name, r in self.reports.items()},
            host_me_utilization={
                h.name: self.busy.get(h.name, (0.0, 0.0))[0] / total_s
                for h in self.fleet.ever_active
            },
            host_ve_utilization={
                h.name: self.busy.get(h.name, (0.0, 0.0))[1] / total_s
                for h in self.fleet.ever_active
            },
            admission_rate=self.orch.admission_rate(),
            rejected=self.rejected,
            segments=self.segments,
            simulated_cycles=self.simulated_cycles,
            autoscale_events=self.autoscale_events,
            host_count_timeline=self.host_count_timeline,
            mean_active_hosts=self.host_seconds / total_s,
            virtualization=self._virtualization_summary(),
            fault_events=sorted(
                self.fault_events, key=lambda e: (e["time_s"], str(e["kind"]))
            ),
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> ClusterCheckpoint:
        """Capture the complete between-segments state.

        One pickle over every mutable piece -- fleet (hosts,
        hypervisors, orchestrator, and with them their id counters),
        residents, accumulated metrics, the autoscaler's internal state,
        the live churn/fault scripts -- so :meth:`restore` continues
        bit-identically, in this process or a fresh one.
        Per-(tenant, segment) RNG streams are derived from the seed and
        need no state here.
        """
        self._check_intact()
        if self.config_digest is None:
            raise CheckpointError(
                "this configuration is not picklable (custom "
                "autoscaler?); checkpointing is unavailable for it"
            )
        state: Dict[str, object] = {
            name: getattr(self, name) for name in _STATE_ATTRS
        }
        return ClusterCheckpoint.create(
            state, self.config_digest, self._next, self.time_s
        )

    @classmethod
    def restore(
        cls,
        checkpoint: ClusterCheckpoint,
        events: Sequence[ChurnEvent],
        cfg: Optional[ClusterTrafficConfig] = None,
    ) -> "ClusterSimulation":
        """Rebuild a simulation from a :meth:`snapshot` checkpoint.

        ``events`` and ``cfg`` must be the same script and
        configuration the snapshot was taken under (enforced via the
        config digest).  The ids the run issues live in the restored
        fleet, so a restore never disturbs another live simulation in
        the process.  No fresh fleet is built: the checkpoint's replaces
        it whole.  The timeline is built once, from the scripts the
        checkpoint carries (injected events included).
        """
        sim = cls.__new__(cls)
        sim._configure(events, cfg)
        if sim.config_digest is None:
            raise CheckpointError(
                "this configuration is not picklable (custom "
                "autoscaler?); checkpoints cannot restore under it"
            )
        if checkpoint.config_digest != sim.config_digest:
            raise CheckpointError(
                "checkpoint was taken under a different scenario (config "
                f"digest {checkpoint.config_digest[:12]}... != this run's "
                f"{sim.config_digest[:12]}...)"
            )
        state = checkpoint.state()
        try:
            for name in _STATE_ATTRS:
                setattr(sim, name, state[name])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"checkpoint state is incomplete: {exc}"
            ) from exc
        sim.orch = sim.fleet.orch
        sim._install_script(sim.churn, sim.faults)
        index = int(checkpoint.segment_index)
        if not 0 <= index <= sim.total_segments:
            raise CheckpointError(
                f"checkpoint segment index {index} is outside the "
                f"{sim.total_segments}-segment timeline"
            )
        if sim.boundaries[index] != checkpoint.time_s:
            raise CheckpointError(
                f"checkpoint time {checkpoint.time_s} does not match "
                f"boundary {sim.boundaries[index]} at segment {index}"
            )
        sim._next = index
        return sim
