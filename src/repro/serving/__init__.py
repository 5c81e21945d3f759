"""Closed-loop multi-tenant serving: the paper's collocation runs.

Glues vNPUs, workload traces and a scheduling scheme into one
closed-loop run (Sec. V-A) and summarises it the way the paper's
evaluation reports it (p95 tail latency, average latency, throughput,
ME/VE utilization).  :func:`repro.serving.server.prepare_collocation`
is the one builder of such a run; :func:`run_collocation`,
:func:`run_solo`, the figure modules and the open-loop calibration all
build through it.  Open-loop arrivals live in
:mod:`repro.traffic.arrivals`, and scheduler instances come from
:func:`repro.api.registries.make_scheduler`.
"""

from repro.serving.metrics import PairMetrics, TenantMetrics, slo_attainment
from repro.serving.server import (
    SCHEME_NEU10,
    SCHEME_NEU10_NH,
    SCHEME_PMT,
    SCHEME_TEMPORAL,
    SCHEME_V10,
    ServingConfig,
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
    "run_collocation",
    "run_solo",
    "slo_attainment",
]
