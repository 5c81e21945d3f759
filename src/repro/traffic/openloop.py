"""Open-loop serving runs on one NPU core.

The closed-loop methodology (``serving.server.run_collocation``) answers
"how fast can collocated tenants go"; this module answers the production
question: "at a given *offered load*, do tenants meet their SLOs?".

Load is expressed as a utilization factor per tenant: ``load=0.8`` means
each tenant's mean arrival rate is 80% of the reciprocal of its
*calibrated* closed-loop service time at its own allocation.  Below 1.0
queues stay short; above 1.0 the tenant is offered more work than its
vNPU can serve and attainment collapses -- the regime the paper's
harvesting story is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from repro.config import DEFAULT_CORE, DEFAULT_SEED, NpuCoreConfig, spawn_rng
from repro.errors import ConfigError
from repro.api.registries import make_scheduler, scheme_isa
from repro.megabatch import run_simulators
from repro.serving.server import ServingConfig, WorkloadSpec, run_collocation
from repro.sim.engine import Simulator, Tenant
from repro.traffic.arrivals import ArrivalProcess, make_arrival_process
from repro.traffic.slo import SloReport, SloSpec, build_slo_report
from repro.workloads.traces import build_trace


@dataclass(frozen=True)
class TrafficTenantSpec:
    """One tenant of an open-loop scenario."""

    model: str
    batch: int = 8
    #: Relative share of the configured load factor.
    weight: float = 1.0
    slo: SloSpec = field(default_factory=SloSpec)
    alloc_mes: Optional[int] = None
    alloc_ves: Optional[int] = None
    priority: float = 1.0
    #: Per-tenant arrival-kind override (None = scenario default).
    arrival: Optional[str] = None


@dataclass
class OpenLoopConfig:
    """Parameters of one open-loop measurement window."""

    core: NpuCoreConfig = field(default_factory=lambda: DEFAULT_CORE)
    duration_s: float = 0.002
    load: float = 0.8
    arrival: str = "poisson"
    seed: int = DEFAULT_SEED
    #: Drain mode runs past the window until every admitted request is
    #: served (latency-complete); otherwise the horizon cuts queues off
    #: and unfinished requests count as SLO misses.
    drain: bool = False

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")
        if self.load <= 0:
            raise ConfigError("load factor must be positive")


@dataclass
class OpenLoopResult:
    scheme: str
    load: float
    duration_s: float
    reports: List[SloReport]
    me_utilization: float
    ve_utilization: float
    total_cycles: float

    def report(self, name: str) -> SloReport:
        for rep in self.reports:
            if rep.name == name:
                return rep
        raise KeyError(f"no tenant {name!r} in this run")

    @property
    def min_attainment(self) -> float:
        if not self.reports:
            return 1.0
        return min(r.attainment for r in self.reports)


def _default_allocs(
    specs: Sequence[TrafficTenantSpec], core: NpuCoreConfig
) -> List[tuple]:
    share_mes = max(1, core.num_mes // max(1, len(specs)))
    share_ves = max(1, core.num_ves // max(1, len(specs)))
    return [
        (
            s.alloc_mes if s.alloc_mes is not None else share_mes,
            s.alloc_ves if s.alloc_ves is not None else share_ves,
        )
        for s in specs
    ]


@lru_cache(maxsize=256)
def _calibrate_cached(
    model: str,
    batch: int,
    alloc_mes: int,
    alloc_ves: int,
    scheme: str,
    core: NpuCoreConfig,
) -> float:
    """Mean closed-loop latency (cycles) of the model running alone at
    the allocation it will hold in the collocated open-loop run."""
    pair = run_collocation(
        [WorkloadSpec(model, batch, alloc_mes=alloc_mes, alloc_ves=alloc_ves)],
        scheme,
        ServingConfig(core=core, target_requests=3, record_ops=False),
    )
    svc = pair.tenants[0].mean_latency_cycles
    if svc <= 0:
        raise ConfigError(f"calibration produced zero service time for {model}")
    return svc


def isolated_service_cycles(
    spec: TrafficTenantSpec,
    scheme: str,
    core: NpuCoreConfig,
    n_tenants: int = 1,
) -> float:
    """Public calibration entry point (memoised)."""
    share_mes = max(1, core.num_mes // max(1, n_tenants))
    share_ves = max(1, core.num_ves // max(1, n_tenants))
    return _calibrate_cached(
        spec.model,
        spec.batch,
        spec.alloc_mes if spec.alloc_mes is not None else share_mes,
        spec.alloc_ves if spec.alloc_ves is not None else share_ves,
        scheme,
        core,
    )


def arrival_process_for(
    spec: TrafficTenantSpec,
    cfg: OpenLoopConfig,
    service_cycles: float,
    duration_cycles: float,
) -> ArrivalProcess:
    rate = cfg.load * spec.weight / service_cycles
    return make_arrival_process(
        spec.arrival or cfg.arrival, rate, duration_cycles=duration_cycles
    )


@dataclass
class PreparedOpenLoop:
    """A built-but-unrun open-loop window.

    ``prepare_open_loop`` front-loads everything stochastic or
    structural (calibration, arrival streams, tenant construction) so
    the simulator can be stepped through
    :func:`repro.megabatch.run_simulators` -- as a batch of one, or
    batched with other windows -- and scored afterwards with
    :func:`finalize_open_loop`.  Results are identical either way.
    """

    sim: Simulator
    scheme: str
    cfg: OpenLoopConfig
    tenants: List[Tenant]
    targets: Dict[int, float]
    #: Arrivals *generated* per tenant for the window; the conservation
    #: source of truth for ``offered`` (an arrival exactly on the
    #: horizon is never issued by the engine but was still offered).
    offered: Dict[int, int] = field(default_factory=dict)


def prepare_open_loop(
    specs: Sequence[TrafficTenantSpec],
    scheme: str,
    cfg: Optional[OpenLoopConfig] = None,
) -> PreparedOpenLoop:
    """Build the simulator and SLO targets for one open-loop window."""
    if not specs:
        raise ConfigError("open-loop run needs at least one tenant")
    cfg = cfg if cfg is not None else OpenLoopConfig()
    core = cfg.core
    duration_cycles = core.seconds_to_cycles(cfg.duration_s)
    allocs = _default_allocs(specs, core)
    isa = scheme_isa(scheme)

    tenants: List[Tenant] = []
    targets: Dict[int, float] = {}
    offered: Dict[int, int] = {}
    model_counts: Dict[str, int] = {}
    for spec in specs:
        model_counts[spec.model] = model_counts.get(spec.model, 0) + 1
    for idx, (spec, (mes, ves)) in enumerate(zip(specs, allocs)):
        svc = _calibrate_cached(spec.model, spec.batch, mes, ves, scheme, core)
        process = arrival_process_for(spec, cfg, svc, duration_cycles)
        rng = spawn_rng(cfg.seed, scheme, spec.model, idx)
        arrivals = process.generate(duration_cycles, rng)
        trace = build_trace(spec.model, spec.batch, core=core)
        # Repeated models get an index suffix so reports stay addressable.
        name = (
            trace.abbrev
            if model_counts[spec.model] == 1
            else f"{trace.abbrev}#{idx}"
        )
        tenants.append(
            Tenant(
                tenant_id=idx,
                name=name,
                graph=trace.compiled(isa),
                alloc_mes=mes,
                alloc_ves=ves,
                target_requests=None,
                priority=spec.priority,
                arrivals=arrivals,
            )
        )
        targets[idx] = spec.slo.resolve(svc)
        offered[idx] = len(arrivals)

    sim = Simulator(
        core,
        make_scheduler(scheme),
        tenants,
        horizon_cycles=float("inf") if cfg.drain else duration_cycles,
        record_ops=False,
    )
    return PreparedOpenLoop(
        sim=sim, scheme=scheme, cfg=cfg, tenants=tenants, targets=targets,
        offered=offered,
    )


def finalize_open_loop(prep: PreparedOpenLoop, result) -> OpenLoopResult:
    """Score a finished window's :class:`SimResult` into reports."""
    reports = [
        build_slo_report(
            tenant.name,
            prep.scheme,
            prep.targets[tenant.tenant_id],
            result.tenant(tenant.tenant_id),
            prep.cfg.duration_s,
            offered=prep.offered.get(tenant.tenant_id),
        )
        for tenant in prep.tenants
    ]
    return OpenLoopResult(
        scheme=prep.scheme,
        load=prep.cfg.load,
        duration_s=prep.cfg.duration_s,
        reports=reports,
        me_utilization=result.stats.me_utilization(),
        ve_utilization=result.stats.ve_utilization(),
        total_cycles=result.total_cycles,
    )


def run_open_loop(
    specs: Sequence[TrafficTenantSpec],
    scheme: str,
    cfg: Optional[OpenLoopConfig] = None,
) -> OpenLoopResult:
    """Simulate one open-loop window and score every tenant's SLO."""
    prep = prepare_open_loop(specs, scheme, cfg)
    return finalize_open_loop(prep, run_simulators([prep.sim])[0])


def sweep_load(
    specs: Sequence[TrafficTenantSpec],
    scheme: str,
    loads: Sequence[float],
    cfg: Optional[OpenLoopConfig] = None,
) -> List[OpenLoopResult]:
    """One open-loop run per load factor (same seed, same window)."""
    cfg = cfg if cfg is not None else OpenLoopConfig()
    return [run_open_loop(specs, scheme, replace(cfg, load=load)) for load in loads]
