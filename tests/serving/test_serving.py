"""Tests for the serving harness: runners and metrics."""

import dataclasses
import hashlib
import json

import pytest

from repro.api.registries import make_scheduler
from repro.config import DEFAULT_CORE
from repro.errors import ConfigError
from repro.experiments.common import run_pair
from repro.serving import server
from repro.serving.metrics import PairMetrics, TenantMetrics
from repro.serving.server import (
    ALL_SCHEMES,
    SCHEME_NEU10,
    SCHEME_NEU10_NH,
    SCHEME_PMT,
    SCHEME_V10,
    ServingConfig,
    WorkloadSpec,
    run_collocation,
    run_solo,
)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_pair_metrics_lookup():
    pair = PairMetrics(pair="a+b", scheme="neu10", tenants=[
        TenantMetrics("a", "neu10", 1, 1, 1, 0, 0, 0, 1),
    ])
    assert pair.tenant("a").name == "a"
    with pytest.raises(KeyError):
        pair.tenant("zzz")


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def test_make_scheduler_covers_all_schemes():
    for scheme in ALL_SCHEMES:
        assert make_scheduler(scheme) is not None
    with pytest.raises(ConfigError):
        make_scheduler("fifo")


def test_run_solo_mnist():
    pair = run_solo(WorkloadSpec("MNIST", 8), ServingConfig(target_requests=2))
    metrics = pair.tenants[0]
    assert metrics.completed_requests >= 2
    assert metrics.throughput_rps > 0


def test_run_solo_is_a_one_spec_collocation_on_the_whole_core():
    from repro.megabatch import run_simulators
    from repro.sim.engine import Simulator, Tenant
    from repro.sim.sched_static import StaticPartitionScheduler
    from repro.workloads.traces import build_trace

    spec = WorkloadSpec("DLRM", 8)
    cfg = ServingConfig(target_requests=2)
    solo = run_solo(spec, cfg)
    pair = run_collocation([spec], SCHEME_NEU10_NH, cfg)
    for f in dataclasses.fields(PairMetrics):
        assert getattr(solo, f.name) == getattr(pair, f.name), f.name
    # The tenant a hand-built solo run would give: the whole core,
    # NeuISA, the static partition.
    trace = build_trace("DLRM", 8)
    tenant = Tenant(
        tenant_id=0, name=trace.abbrev, graph=trace.neuisa,
        alloc_mes=DEFAULT_CORE.num_mes, alloc_ves=DEFAULT_CORE.num_ves,
        target_requests=2,
    )
    sim = Simulator(DEFAULT_CORE, StaticPartitionScheduler(), [tenant])
    (tr,) = run_simulators([sim])[0].tenants.values()
    (metrics,) = solo.tenants
    assert (metrics.name, metrics.p95_latency_cycles, metrics.mean_latency_cycles) == (
        tr.name, tr.p95_latency, tr.mean_latency
    )
    assert metrics.throughput_rps == tr.throughput_rps


def test_every_closed_loop_single_core_run_builds_through_the_server(monkeypatch):
    """Figs. 5, 12 and 24 and the open-loop calibration build their runs
    with ``prepare_collocation``, not by hand."""
    from repro.experiments import fig05_utilization, fig12_allocator
    from repro.experiments import fig24_assignment
    from repro.traffic import openloop

    built = []
    build_tenants = server._build_tenants

    def spy(specs, scheme, cfg):
        built.append((tuple(s.model for s in specs), scheme))
        return build_tenants(specs, scheme, cfg)

    monkeypatch.setattr(server, "_build_tenants", spy)
    fig05_utilization.run("MNIST", batch=8, num_windows=4)
    fig12_allocator._solo_throughput("MNIST", 8, 1, 1, DEFAULT_CORE, 1)
    fig24_assignment.run("MNIST", "NCF", target_requests=1)
    openloop._calibrate_cached.__wrapped__(
        "MNIST", 8, 2, 2, SCHEME_NEU10, DEFAULT_CORE
    )
    assert built == [
        (("MNIST",), SCHEME_NEU10_NH),
        (("MNIST",), SCHEME_NEU10_NH),
        (("MNIST", "NCF"), SCHEME_NEU10),
        (("MNIST",), SCHEME_NEU10),
    ]


def test_run_collocation_produces_both_tenants():
    cfg = ServingConfig(target_requests=2)
    pair = run_collocation(
        [WorkloadSpec("MNIST", 8), WorkloadSpec("DLRM", 8)],
        SCHEME_NEU10,
        cfg,
    )
    assert len(pair.tenants) == 2
    assert pair.pair == "MNIST+DLRM"
    assert pair.total_me_utilization > 0
    assert pair.op_durations is not None


#: sha256 over canonical JSON of NCF+RsNt's op durations under every
#: scheme, the figures Fig. 23's harvesting breakdown averages.
NCF_RSNT_OP_DURATIONS_SHA256 = (
    "2d04a3530134249edb950ee7f0e4dcabbf7449426476abf7f5964f095e99518c"
)


def test_pair_op_durations_are_pinned():
    run = run_pair("NCF", "RsNt", schemes=ALL_SCHEMES)
    doc = {
        scheme: {
            str(tid): dict(durations)
            for tid, durations in run.results[scheme].op_durations.items()
        }
        for scheme in ALL_SCHEMES
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == NCF_RSNT_OP_DURATIONS_SHA256


def test_collocation_scheme_isa_mapping():
    """PMT/V10 must execute VLIW descriptors; Neu10* NeuISA ones --
    visible through the preemption/harvest statistics."""
    cfg = ServingConfig(target_requests=2)
    nh = run_collocation(
        [WorkloadSpec("MNIST", 8), WorkloadSpec("DLRM", 8)],
        SCHEME_NEU10_NH, cfg,
    )
    assert nh.preemption_count == 0  # static partitions never preempt


@pytest.mark.parametrize("scheme", [SCHEME_PMT, SCHEME_V10, SCHEME_NEU10])
def test_all_schemes_complete(scheme):
    cfg = ServingConfig(target_requests=2)
    pair = run_collocation(
        [WorkloadSpec("MNIST", 8), WorkloadSpec("DLRM", 8)], scheme, cfg
    )
    for t in pair.tenants:
        assert t.completed_requests >= 2
