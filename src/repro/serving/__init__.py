"""Multi-tenant ML inference serving harness.

Glues vNPUs, workload traces, a scheduling policy and request streams
into one runnable experiment, and summarises results the way the paper's
evaluation reports them (p95 tail latency, average latency, throughput,
ME/VE utilization, harvesting overhead).
"""

from repro.serving.metrics import (
    PairMetrics,
    TenantMetrics,
    percentile,
    slo_attainment,
)
from repro.serving.requests import closed_loop, poisson_arrivals, steady_arrivals
from repro.serving.server import (
    SCHEME_NEU10,
    SCHEME_NEU10_NH,
    SCHEME_PMT,
    SCHEME_TEMPORAL,
    SCHEME_V10,
    ServingConfig,
    make_scheduler,
    run_collocation,
    run_solo,
)

__all__ = [
    "PairMetrics",
    "SCHEME_NEU10",
    "SCHEME_NEU10_NH",
    "SCHEME_PMT",
    "SCHEME_TEMPORAL",
    "SCHEME_V10",
    "ServingConfig",
    "TenantMetrics",
    "closed_loop",
    "make_scheduler",
    "percentile",
    "slo_attainment",
    "poisson_arrivals",
    "run_collocation",
    "run_solo",
    "steady_arrivals",
]
