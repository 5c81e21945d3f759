"""Fan-out width and worker-count determinism.

:func:`repro.parallel.default_workers` sizes every process pool, and
the simulation layers built on :func:`repro.exec.map_chunks` (cluster
churn here) produce identical metrics whether hosts are simulated
serially or in a pool.
"""

import pytest

from repro.errors import ConfigError
from repro.exec import ExecSpec
from repro.parallel import WORKERS_ENV, default_workers
from repro.traffic import (
    ChurnEvent,
    ClusterTrafficConfig,
    TrafficTenantSpec,
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


def _churn_metrics(max_workers):
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
    cfg = ClusterTrafficConfig(
        scheme="neu10", load=0.9, end_s=0.001, seed=17,
        executor=ExecSpec(max_workers=max_workers),
    )
    result = run_cluster_traffic(events, cfg)
    return (
        result.host_me_utilization,
        result.host_ve_utilization,
        result.admission_rate,
        result.segments,
        {
            name: (rep.offered, rep.completed, rep.attained,
                   rep.latencies_cycles)
            for name, rep in result.reports.items()
        },
    )


def test_cluster_traffic_identical_for_any_worker_count(spawned_pools):
    serial = _churn_metrics(1)
    assert _churn_metrics(2) == serial
    assert _churn_metrics(4) == serial
    assert spawned_pools, "the pooled runs never left this process"
