"""Fan-out width, and what fans out.

:func:`repro.parallel.default_workers` sizes every process pool.  Only
independent runs fan out; a cluster segment's hosts are parts of one
answer and step in this process whatever the pool width.
"""

import pytest

from repro.errors import ConfigError
from repro.parallel import WORKERS_ENV, default_workers
from repro.traffic import (
    ChurnEvent,
    ClusterTrafficConfig,
    TrafficTenantSpec,
    cluster_sim,
    run_cluster_traffic,
)


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert default_workers() == 3
    monkeypatch.setenv(WORKERS_ENV, "zero")
    with pytest.raises(ConfigError):
        default_workers()
    monkeypatch.setenv(WORKERS_ENV, "0")
    with pytest.raises(ConfigError):
        default_workers()
    monkeypatch.delenv(WORKERS_ENV)
    assert default_workers() >= 1


def test_cluster_run_starts_no_pool(monkeypatch, spawned_pools):
    monkeypatch.setenv(WORKERS_ENV, "2")
    specs = [
        TrafficTenantSpec(model="MNIST", batch=8),
        TrafficTenantSpec(model="DLRM", batch=8),
    ]
    events = [
        ChurnEvent(0.0, "arrive", "a", spec=specs[0]),
        ChurnEvent(0.0, "arrive", "b", spec=specs[1]),
        ChurnEvent(0.0005, "arrive", "c", spec=specs[0]),
        ChurnEvent(0.00075, "depart", "b"),
    ]
    batches = []
    real = cluster_sim.run_simulators

    def spy(sims):
        batches.append(len(sims))
        return real(sims)

    monkeypatch.setattr(cluster_sim, "run_simulators", spy)
    run_cluster_traffic(
        events,
        ClusterTrafficConfig(scheme="neu10", load=0.9, end_s=0.001, seed=17),
    )
    assert spawned_pools == []
    # Both hosts of a segment stepped as one batch, in this process.
    assert max(batches) == 2
