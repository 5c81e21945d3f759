"""Serving runners: collocate workloads under a scheme and measure.

``run_collocation`` reproduces the paper's main methodology (SectionV-A):
two workloads, each on a vNPU with half the core's engines, executed
under one of {PMT, V10, Neu10-NH, Neu10, Neu10-temporal} until every
workload completes its request target.  :func:`prepare_collocation` is
the one builder of a closed-loop run on one core: :func:`run_solo`,
Figs. 5, 12 and 24 and the open-loop calibration build through it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.api import registries
from repro.config import DEFAULT_CORE, NpuCoreConfig
from repro.megabatch import run_simulators
from repro.serving.metrics import PairMetrics, TenantMetrics
from repro.sim.engine import SimResult, Simulator, Tenant
from repro.workloads.traces import build_trace

SCHEME_PMT = "pmt"
SCHEME_V10 = "v10"
SCHEME_NEU10_NH = "neu10-nh"
SCHEME_NEU10 = "neu10"
SCHEME_TEMPORAL = "neu10-temporal"

#: The paper's default comparison set -- a snapshot of the scheduler
#: registry (:data:`repro.api.registries.SCHEDULERS`) at import time,
#: kept for backwards compatibility.  Code that must see schemes
#: registered later should call
#: :func:`repro.api.registries.default_scheme_names` instead.
ALL_SCHEMES = registries.default_scheme_names()


@dataclass
class WorkloadSpec:
    """One tenant of a serving run."""

    model: str
    batch: int = 32
    alloc_mes: Optional[int] = None
    alloc_ves: Optional[int] = None
    priority: float = 1.0
    arrivals: Optional[Sequence[float]] = None


@dataclass
class ServingConfig:
    """Parameters of one collocation measurement."""

    core: NpuCoreConfig = field(default_factory=lambda: DEFAULT_CORE)
    target_requests: int = 8
    record_assignment: bool = False
    record_ops: bool = True


def _build_tenants(
    specs: Sequence[WorkloadSpec], scheme: str, cfg: ServingConfig
) -> List[Tenant]:
    isa = registries.scheme_isa(scheme)
    tenants: List[Tenant] = []
    default_mes = max(1, cfg.core.num_mes // max(1, len(specs)))
    default_ves = max(1, cfg.core.num_ves // max(1, len(specs)))
    for idx, spec in enumerate(specs):
        trace = build_trace(spec.model, spec.batch, core=cfg.core)
        tenants.append(
            Tenant(
                tenant_id=idx,
                name=trace.abbrev,
                graph=trace.compiled(isa),
                alloc_mes=spec.alloc_mes if spec.alloc_mes is not None else default_mes,
                alloc_ves=spec.alloc_ves if spec.alloc_ves is not None else default_ves,
                target_requests=cfg.target_requests,
                priority=spec.priority,
                arrivals=list(spec.arrivals) if spec.arrivals is not None else None,
            )
        )
    return tenants


def _to_metrics(result: SimResult, scheme: str, pair_label: str) -> PairMetrics:
    tenants = [
        TenantMetrics(
            name=tr.name,
            scheme=scheme,
            p95_latency_cycles=tr.p95_latency,
            mean_latency_cycles=tr.mean_latency,
            throughput_rps=tr.throughput_rps,
            me_utilization=tr.me_utilization,
            ve_utilization=tr.ve_utilization,
            blocked_fraction=tr.blocked_fraction,
            completed_requests=tr.completed_requests,
        )
        for tr in result.tenants.values()
    ]
    op_durations = {
        tid: result.stats.op_durations(tid) for tid in result.tenants
    }
    return PairMetrics(
        pair=pair_label,
        scheme=scheme,
        tenants=tenants,
        total_me_utilization=result.stats.me_utilization(),
        total_ve_utilization=result.stats.ve_utilization(),
        preemption_count=result.stats.preemption_count,
        total_cycles=result.total_cycles,
        op_durations=op_durations,
    )


@dataclass
class PreparedCollocation:
    """A built-but-unrun collocation measurement: step ``sim`` through
    :func:`repro.megabatch.run_simulators`, alone or with other
    simulators, and summarise the result with
    :func:`finalize_collocation`."""

    sim: Simulator
    scheme: str
    pair_label: str


def prepare_collocation(
    specs: Sequence[WorkloadSpec],
    scheme: str,
    cfg: Optional[ServingConfig] = None,
) -> PreparedCollocation:
    """Build the simulator for one collocation run."""
    cfg = cfg if cfg is not None else ServingConfig()
    tenants = _build_tenants(specs, scheme, cfg)
    sim = Simulator(
        cfg.core,
        registries.make_scheduler(scheme),
        tenants,
        record_assignment=cfg.record_assignment,
        record_ops=cfg.record_ops,
    )
    pair_label = "+".join(t.name for t in tenants)
    return PreparedCollocation(sim=sim, scheme=scheme, pair_label=pair_label)


def finalize_collocation(
    prep: PreparedCollocation, result: SimResult
) -> PairMetrics:
    """Summarise a finished collocation run."""
    return _to_metrics(result, prep.scheme, prep.pair_label)


def run_collocation(
    specs: Sequence[WorkloadSpec],
    scheme: str,
    cfg: Optional[ServingConfig] = None,
) -> PairMetrics:
    """Run collocated workloads under ``scheme`` and summarise."""
    prep = prepare_collocation(specs, scheme, cfg)
    return finalize_collocation(prep, run_simulators([prep.sim])[0])


def run_solo(
    spec: WorkloadSpec,
    cfg: Optional[ServingConfig] = None,
    scheme: str = SCHEME_NEU10_NH,
) -> PairMetrics:
    """Run a single workload alone on the whole core (unless ``spec``
    sets its allocation): the isolation reference."""
    return run_collocation([spec], scheme, cfg)
