"""Tests for the serving harness: runners, metrics, request streams."""

import pytest

from repro.config import DEFAULT_CORE
from repro.errors import ConfigError
from repro.serving.metrics import PairMetrics, TenantMetrics, percentile
from repro.serving.requests import poisson_arrivals, steady_arrivals
from repro.serving.server import (
    ALL_SCHEMES,
    SCHEME_NEU10,
    SCHEME_NEU10_NH,
    SCHEME_PMT,
    SCHEME_V10,
    ServingConfig,
    WorkloadSpec,
    make_scheduler,
    run_collocation,
    run_solo,
)


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------
def test_poisson_arrivals_sorted_and_bounded():
    arrivals = poisson_arrivals(100.0, 0.5, DEFAULT_CORE.frequency_hz, seed=1)
    assert arrivals == sorted(arrivals)
    assert all(0 <= a < 0.5 * DEFAULT_CORE.frequency_hz for a in arrivals)
    # ~50 expected; allow wide slack.
    assert 20 <= len(arrivals) <= 100


def test_poisson_deterministic_with_seed():
    a = poisson_arrivals(50.0, 0.2, 1e9, seed=7)
    b = poisson_arrivals(50.0, 0.2, 1e9, seed=7)
    assert a == b


def test_steady_arrivals_evenly_spaced():
    arrivals = steady_arrivals(10.0, 5, 1e9)
    gaps = {round(b - a) for a, b in zip(arrivals, arrivals[1:])}
    assert len(gaps) == 1


def test_request_generators_validate():
    with pytest.raises(ConfigError):
        poisson_arrivals(-1.0, 1.0, 1e9)
    with pytest.raises(ConfigError):
        steady_arrivals(10.0, 0, 1e9)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 95) == 95.0
    assert percentile(values, 100) == 100.0
    assert percentile([], 95) == 0.0


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
