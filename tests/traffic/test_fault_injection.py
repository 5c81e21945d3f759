"""Fault-injection semantics in the cluster traffic engine: crashes
migrate or evict residents, storms multiply offered load, spikes stretch
the control plane, vf-loss shrinks it -- and a fault-free config is
bit-identical to the pre-fault-layer engine."""

import dataclasses
import types

import pytest

from repro.cluster.autoscale import HostPoolSpec
from repro.cluster.virt import (
    FAULT_KINDS,
    FaultSpec,
    VirtualizationSpec,
    remove_free_vfs,
)
from repro.errors import ConfigError
from repro.runtime.sriov import SriovRegistry
from repro.traffic import (
    ChurnEvent,
    ClusterTrafficConfig,
    TrafficTenantSpec,
    run_cluster_traffic,
)

MNIST = TrafficTenantSpec(model="MNIST", batch=4)
NCF = TrafficTenantSpec(model="NCF", batch=4)
ONE_HOST = (HostPoolSpec("host", min_hosts=1, max_hosts=1),)


def _events(extra=()):
    return [
        ChurnEvent(0.0, "arrive", "a", spec=MNIST, num_mes=2, num_ves=2),
        ChurnEvent(0.0, "arrive", "b", spec=NCF, num_mes=2, num_ves=2),
        *extra,
    ]


def _cfg(faults=(), **overrides):
    params = dict(
        load=0.6, end_s=0.002, seed=11,
        faults=tuple(faults),
    )
    params.update(overrides)
    return ClusterTrafficConfig(**params)


def _result_key(result):
    """Everything observable: reports, utilizations, admissions."""
    return (
        {
            name: (r.offered, r.completed, r.attained,
                   tuple(r.latencies_cycles))
            for name, r in result.reports.items()
        },
        result.host_me_utilization,
        result.host_ve_utilization,
        result.admission_rate,
        tuple(result.rejected),
        result.simulated_cycles,
    )


# ----------------------------------------------------------------------
# FaultSpec surface
# ----------------------------------------------------------------------
def test_fault_kinds_registry():
    assert FAULT_KINDS == (
        "host-crash", "vf-loss", "hypercall-spike", "burst-storm",
    )


def test_window_fault_covers_half_open_interval():
    f = FaultSpec(kind="burst-storm", time_s=1.0, duration_s=0.5)
    assert f.covers(1.0) and f.covers(1.49)
    assert not f.covers(0.99) and not f.covers(1.5)
    assert f.end_s == 1.5


def test_point_fault_rejects_duration():
    with pytest.raises(ConfigError):
        FaultSpec(kind="host-crash", time_s=0.0, duration_s=0.1)


# ----------------------------------------------------------------------
# Engine behavior per kind
# ----------------------------------------------------------------------
def test_fault_free_config_bit_identical_to_no_fault_field():
    base = run_cluster_traffic(_events(), _cfg())
    empty = run_cluster_traffic(_events(), _cfg(faults=()))
    assert _result_key(base) == _result_key(empty)
    assert base.fault_events == []


def test_host_crash_migrates_or_evicts_and_is_recorded():
    result = run_cluster_traffic(_events(), _cfg(
        faults=[FaultSpec(kind="host-crash", time_s=0.001)],
    ))
    events = [e for e in result.fault_events if e["kind"] == "host-crash"]
    assert len(events) == 1
    ev = events[0]
    assert ev["applied"] is True
    assert ev["time_s"] == 0.001
    # Two tenants on two hosts: the victim's resident moved or left.
    assert ev["migrated"] or ev["evicted"]


def test_host_crash_never_kills_last_host():
    result = run_cluster_traffic(_events(), _cfg(
        pools=ONE_HOST,
        faults=[FaultSpec(kind="host-crash", time_s=0.001)],
    ))
    events = [e for e in result.fault_events if e["kind"] == "host-crash"]
    assert events and events[0]["applied"] is False


def test_burst_storm_raises_offered_load():
    calm = run_cluster_traffic(_events(), _cfg())
    stormy = run_cluster_traffic(_events(), _cfg(
        faults=[FaultSpec(kind="burst-storm", time_s=0.0005,
                          duration_s=0.001, factor=3.0)],
    ))
    offered = lambda r: sum(rep.offered for rep in r.reports.values())
    assert offered(stormy) > offered(calm)


def test_hypercall_spike_stretches_onboarding():
    cfg = _cfg(virtualization=VirtualizationSpec(hypercall_cost_s=1e-4))
    events = _events(extra=(
        ChurnEvent(0.0008, "arrive", "late", spec=NCF,
                   num_mes=2, num_ves=2),
    ))
    calm = run_cluster_traffic(events, cfg)
    spiky = run_cluster_traffic(events, dataclasses.replace(cfg, faults=(
        FaultSpec(kind="hypercall-spike", time_s=0.0006,
                  duration_s=0.0008, factor=5.0),
    )))
    assert (
        spiky.virtualization.onboarding_delay_s
        > calm.virtualization.onboarding_delay_s
    )


def test_vf_loss_shrinks_admission_capacity():
    cfg = _cfg(
        pools=ONE_HOST,
        virtualization=VirtualizationSpec(num_vfs=3),
        faults=[FaultSpec(kind="vf-loss", time_s=0.0005, count=2)],
    )
    # Two residents from t=0 hold VF indices 0 and 1, so the shrink
    # floor is 2 and only the one free VF can vanish.
    events = _events(extra=(
        ChurnEvent(0.001, "arrive", "late", spec=MNIST,
                   num_mes=1, num_ves=1),
    ))
    result = run_cluster_traffic(events, cfg)
    events_log = [e for e in result.fault_events if e["kind"] == "vf-loss"]
    assert events_log and events_log[0]["applied"] is True
    assert events_log[0]["removed"] == 1
    # The late arrival bounces off the shrunken pool.
    assert "late" in result.rejected


def test_fault_events_sorted_and_deterministic():
    cfg = _cfg(faults=[
        FaultSpec(kind="burst-storm", time_s=0.0012, duration_s=0.0004,
                  factor=2.0),
        FaultSpec(kind="host-crash", time_s=0.0006),
    ])
    a = run_cluster_traffic(_events(), cfg)
    b = run_cluster_traffic(_events(), cfg)
    assert a.fault_events == b.fault_events
    times = [e["time_s"] for e in a.fault_events]
    assert times == sorted(times)
    assert _result_key(a) == _result_key(b)


# ----------------------------------------------------------------------
# SR-IOV vf-loss floor
# ----------------------------------------------------------------------
def _host_stub(num_vfs):
    return types.SimpleNamespace(hypervisor=types.SimpleNamespace(
        sriov=SriovRegistry(num_vfs=num_vfs),
    ))


def test_remove_free_vfs_never_revokes_live_indices():
    host = _host_stub(8)
    sriov = host.hypervisor.sriov
    held = [sriov.assign(i).vf_index for i in range(3)]
    removed = remove_free_vfs(host, 10)
    # Indices 0..2 are live, so only the 5 free VFs above them go.
    assert removed == 5
    assert sriov.num_vfs == max(held) + 1 == 3
    # A released index can be re-issued without colliding.
    sriov.release(1)
    assert sriov.assign(99).vf_index == 1


def test_remove_free_vfs_keeps_at_least_one_vf():
    host = _host_stub(4)
    assert remove_free_vfs(host, 10) == 3
    assert host.hypervisor.sriov.num_vfs == 1
    assert remove_free_vfs(host, 1) == 0


def test_remove_free_vfs_respects_highest_live_index():
    host = _host_stub(6)
    sriov = host.hypervisor.sriov
    for i in range(4):
        sriov.assign(i)
    sriov.release(0)
    sriov.release(1)
    # in_use=2 but index 3 is live: the floor is 4, not 2.
    assert remove_free_vfs(host, 6) == 2
    assert sriov.num_vfs == 4
