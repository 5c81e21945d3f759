"""Virtualized cluster serving: VF-constrained admission, hypercall
cost charging, control-plane telemetry, and determinism."""

import pytest

from repro.cluster.autoscale import Autoscaler, HostPoolSpec
from repro.cluster.virt import REJECT_VF_EXHAUSTED, VirtualizationSpec
from repro.errors import ConfigError
from repro.traffic import (
    ChurnEvent,
    ClusterTrafficConfig,
    TrafficTenantSpec,
    run_cluster_traffic,
)
from repro.traffic.cluster_sim import ClusterSimulation

MNIST = TrafficTenantSpec(model="MNIST", batch=8)
ONE_HOST = (HostPoolSpec("host", min_hosts=1, max_hosts=1),)


def _wave(count: int, end_s: float, depart_first: bool = True):
    events = [
        ChurnEvent(0.0, "arrive", f"t{i}", spec=MNIST, num_mes=1, num_ves=1)
        for i in range(count)
    ]
    if depart_first:
        events.append(ChurnEvent(end_s / 2, "depart", "t0"))
    return events


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
# VF-constrained admission
# ----------------------------------------------------------------------
def test_vf_exhaustion_rejects_and_reports():
    cfg = ClusterTrafficConfig(
        load=0.5, end_s=0.001, seed=1,
        virtualization=VirtualizationSpec(num_vfs=2),
    )
    result = run_cluster_traffic(_wave(6, cfg.end_s), cfg)
    virt = result.virtualization
    assert result.rejected == ["t4", "t5"]
    assert virt.vf_exhaustion_rejections == 2
    assert virt.rejection_causes == {
        "t4": REJECT_VF_EXHAUSTED, "t5": REJECT_VF_EXHAUSTED,
    }
    assert virt.peak_vf_in_use == 4
    assert virt.vf_occupancy_timeline[0] == (0.0, 4, 4)
    assert virt.hypercalls["create"] == 4
    assert virt.hypercalls["destroy"] == 1  # t0's departure
    assert virt.iommu_dma_registrations == 4
    assert virt.final_vf_in_use == 3
    assert virt.final_iommu_mappings == 3


def test_all_tenants_departing_returns_occupancy_to_zero():
    end_s = 0.001
    events = _wave(4, end_s, depart_first=False)
    events += [
        ChurnEvent(end_s / 2, "depart", f"t{i}") for i in range(4)
    ]
    cfg = ClusterTrafficConfig(
        load=0.5, end_s=end_s, seed=1,
        virtualization=VirtualizationSpec(num_vfs=4),
    )
    result = run_cluster_traffic(events, cfg)
    virt = result.virtualization
    assert virt.final_vf_in_use == 0
    assert virt.final_iommu_mappings == 0
    assert virt.hypercalls["create"] == virt.hypercalls["destroy"] == 4


def test_retried_rejection_counts_every_attempt():
    end_s = 0.001
    events = _wave(2, end_s, depart_first=False)
    events += [
        ChurnEvent(0.0, "arrive", "late", spec=MNIST, num_mes=1, num_ves=1),
        ChurnEvent(end_s / 2, "depart", "late"),  # no-op: never admitted
        ChurnEvent(end_s / 2, "arrive", "late", spec=MNIST,
                   num_mes=1, num_ves=1),
    ]
    cfg = ClusterTrafficConfig(
        pools=ONE_HOST, load=0.5, end_s=end_s, seed=1,
        virtualization=VirtualizationSpec(num_vfs=2),
    )
    result = run_cluster_traffic(events, cfg)
    # 'late' bounced off the full VF pool twice: per-attempt counters
    # match `rejected`, the per-name map keeps the last cause.
    assert result.rejected == ["late", "late"]
    assert result.virtualization.vf_exhaustion_rejections == 2
    assert result.virtualization.rejection_causes == {
        "late": REJECT_VF_EXHAUSTED,
    }


def test_unknown_pool_override_rejected():
    cfg = ClusterTrafficConfig(
        pools=ONE_HOST, end_s=0.0005,
        virtualization=VirtualizationSpec(pool_num_vfs={"nope": 2}),
    )
    with pytest.raises(ConfigError, match="unknown pool"):
        run_cluster_traffic(_wave(1, cfg.end_s, depart_first=False), cfg)


def test_per_pool_vf_budgets():
    pools = (
        HostPoolSpec(name="big", min_hosts=1, max_hosts=1),
        HostPoolSpec(name="small", min_hosts=1, max_hosts=1),
    )
    cfg = ClusterTrafficConfig(
        end_s=0.0005, load=0.5, seed=1, pools=pools,
        virtualization=VirtualizationSpec(
            num_vfs=8, pool_num_vfs={"small": 1}
        ),
    )
    result = run_cluster_traffic(_wave(4, cfg.end_s, depart_first=False), cfg)
    # 1 VF on `small` + 8 on `big` >= 4 tenants: all admitted.
    assert result.rejected == []
    _, used, capacity = result.virtualization.vf_occupancy_timeline[0]
    assert capacity == 9 and used == 4


# ----------------------------------------------------------------------
# Hypercall cost charging
# ----------------------------------------------------------------------
def test_hypercall_cost_charges_onboarding_delay():
    base = dict(pools=ONE_HOST, load=0.5, end_s=0.001, seed=1)
    events = _wave(2, 0.001, depart_first=False)
    free = run_cluster_traffic(
        events,
        ClusterTrafficConfig(
            **base, virtualization=VirtualizationSpec(num_vfs=4)
        ),
    )
    cost = 0.0002
    priced = run_cluster_traffic(
        events,
        ClusterTrafficConfig(
            **base,
            virtualization=VirtualizationSpec(
                num_vfs=4, hypercall_cost_s=cost
            ),
        ),
    )
    assert free.virtualization.onboarding_delay_s == 0.0
    assert priced.virtualization.onboarding_delay_s == pytest.approx(2 * cost)
    # Arrivals are held, not dropped: same offered load, higher latency.
    for name in priced.reports:
        assert priced.reports[name].offered == free.reports[name].offered
    assert sum(r.mean_latency for r in priced.reports.values()) > sum(
        r.mean_latency for r in free.reports.values()
    )


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def _virt_cfg(**overrides):
    params = dict(
        load=0.5, end_s=0.001, seed=1,
        virtualization=VirtualizationSpec(
            num_vfs=2, hypercall_cost_s=0.00005
        ),
    )
    params.update(overrides)
    return ClusterTrafficConfig(**params)


def test_virtualized_run_is_deterministic_in_process():
    events = _wave(6, 0.001)
    first = run_cluster_traffic(events, _virt_cfg())
    second = run_cluster_traffic(events, _virt_cfg())
    assert _result_key(first) == _result_key(second)
    assert first.virtualization.to_dict() == second.virtualization.to_dict()


def test_unvirtualized_run_is_deterministic_and_reports_nothing():
    events = _wave(4, 0.001)
    cfg = ClusterTrafficConfig(load=0.5, end_s=0.001, seed=1)
    first = run_cluster_traffic(events, cfg)
    second = run_cluster_traffic(events, cfg)
    assert first.virtualization is None and second.virtualization is None
    assert _result_key(first) == _result_key(second)


# ----------------------------------------------------------------------
# Autoscaler observations carry control-plane telemetry
# ----------------------------------------------------------------------
class _Recorder(Autoscaler):
    name = "recorder"

    def __init__(self):
        self.observations = []

    def observe(self, obs):
        self.observations.append(obs)
        return []


def test_segment_observations_carry_vf_and_hypercall_fields():
    cfg = ClusterTrafficConfig(
        load=0.5, end_s=0.001, seed=1,
        pools=(HostPoolSpec("host", min_hosts=1, max_hosts=4,
                            initial_hosts=2),),
        autoscaler=_Recorder(),
        autoscale_interval_s=0.00025,
        virtualization=VirtualizationSpec(num_vfs=2),
    )
    sim = ClusterSimulation(_wave(6, cfg.end_s), cfg)
    result = sim.run()
    # The run drives its own copy of the configured policy.
    assert not cfg.autoscaler.observations
    observations = sim.autoscaler.observations
    assert observations
    first = observations[0]
    assert first.vf_in_use == 4 and first.vf_capacity == 4
    assert first.vf_occupancy == 1.0
    assert first.hypercalls == 4  # the admission wave's creates
    assert first.iommu_mappings == 4
    # After t0 departs mid-run, occupancy drops in a later observation.
    assert any(obs.vf_in_use == 3 for obs in observations)
    # The autoscaler sees exactly what the run logged: each segment's
    # observation at the next boundary, across VF rejections and a
    # departure (the final segment has no next boundary).
    assert result.virtualization.vf_exhaustion_rejections > 0
    assert observations == sim.segment_log[:-1]
