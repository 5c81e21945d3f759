"""Autoscaling: policies, elastic driver, determinism, migrations."""

import pytest

from repro.api.registries import AUTOSCALERS, make_autoscaler
from repro.cluster.autoscale import (
    HostPoolSpec,
    ScalingAction,
    SegmentObservation,
    SloBurnRateAutoscaler,
    StaticAutoscaler,
    TargetUtilizationAutoscaler,
    ThresholdAutoscaler,
)
from repro.cluster.host import Host
from repro.cluster.orchestrator import ClusterOrchestrator, PlacementRequest
from repro.config import DEFAULT_CORE
from repro.errors import AllocationError, ConfigError
from repro.traffic.cluster_sim import (
    ChurnEvent,
    ClusterTrafficConfig,
    run_cluster_traffic,
)
from repro.traffic.openloop import TrafficTenantSpec
from repro.traffic.slo import SloSpec

SPEC = TrafficTenantSpec(model="MNIST", batch=8, slo=SloSpec(relative=5.0))


def obs(**overrides):
    base = dict(
        segment_index=0, time_s=0.001, duration_s=0.001, active_hosts=2,
        pool_hosts={"default": 2}, resident_tenants=2, rejections=0,
        me_utilization=0.5, ve_utilization=0.4, offered=100, attained=95,
    )
    base.update(overrides)
    return SegmentObservation(**base)


# ----------------------------------------------------------------------
# Policy unit tests (pure observation -> action)
# ----------------------------------------------------------------------
def test_static_never_scales():
    policy = StaticAutoscaler()
    assert policy.observe(obs(offered=100, attained=0)) == []
    assert policy.observe(obs(me_utilization=1.0)) == []


def test_threshold_scales_up_above_high_and_down_below_low():
    policy = ThresholdAutoscaler(high=0.75, low=0.25)
    up = policy.observe(obs(me_utilization=0.9))
    assert [a.action for a in up] == ["add", "rebalance"]
    down = policy.observe(obs(me_utilization=0.1, ve_utilization=0.05))
    assert [a.action for a in down] == ["drain"]
    # Inside the hysteresis band: hold.
    assert policy.observe(obs(me_utilization=0.5)) == []


def test_threshold_scales_up_on_rejections_even_at_low_util():
    policy = ThresholdAutoscaler()
    acts = policy.observe(obs(me_utilization=0.1, rejections=2))
    assert acts[0].action == "add"
    assert "rejections" in acts[0].reason


def test_threshold_validates_band():
    with pytest.raises(ConfigError):
        ThresholdAutoscaler(high=0.2, low=0.5)
    with pytest.raises(ConfigError):
        ThresholdAutoscaler(step=0)


def test_target_utilization_tracks_setpoint():
    policy = TargetUtilizationAutoscaler(target=0.5, max_step=8)
    # 2 hosts at 100% -> want ceil(2 * 1.0 / 0.5) = 4 -> add 2.
    up = policy.observe(obs(me_utilization=1.0, ve_utilization=1.0))
    assert up[0].action == "add" and up[0].count == 2
    # 2 hosts at 10% -> want 1 -> drain 1.
    down = policy.observe(obs(me_utilization=0.1, ve_utilization=0.1))
    assert down[0].action == "drain" and down[0].count == 1
    # Exactly on target: hold.
    assert policy.observe(obs(me_utilization=0.5, ve_utilization=0.5)) == []


def test_target_utilization_clamps_step():
    policy = TargetUtilizationAutoscaler(target=0.1, max_step=2)
    up = policy.observe(obs(me_utilization=1.0))  # wants 20 hosts
    assert up[0].count == 2


def test_slo_burn_rate_scales_up_fast_and_drains_slow():
    policy = SloBurnRateAutoscaler(
        slo_target=0.9, quiet_segments=3, fast_alpha=1.0
    )
    # One terrible segment: burn (1-0.5)/0.1 = 5 -> immediate scale-up.
    up = policy.observe(obs(offered=100, attained=50))
    assert up[0].action == "add"
    # Three comfortable segments (burn 0.2 < 0.5) before one drain.
    quiet = obs(offered=100, attained=98)
    assert policy.observe(quiet) == []
    assert policy.observe(quiet) == []
    drain = policy.observe(quiet)
    assert [a.action for a in drain] == ["drain"]
    # Counter reset: the next quiet segment does not drain again.
    assert policy.observe(quiet) == []


def test_slo_burn_rate_rejections_short_circuit():
    policy = SloBurnRateAutoscaler()
    acts = policy.observe(obs(offered=100, attained=100, rejections=1))
    assert acts[0].action == "add"


def test_slo_burn_rate_validates_params():
    with pytest.raises(ConfigError):
        SloBurnRateAutoscaler(slo_target=1.0)
    with pytest.raises(ConfigError):
        SloBurnRateAutoscaler(low_burn=2.0, high_burn=1.0)
    with pytest.raises(ConfigError):
        SloBurnRateAutoscaler(quiet_segments=0)


def test_scaling_action_validation():
    with pytest.raises(ConfigError):
        ScalingAction("explode")
    with pytest.raises(ConfigError):
        ScalingAction("add", count=0)


def test_host_pool_spec_validation():
    with pytest.raises(ConfigError):
        HostPoolSpec(max_hosts=0)
    with pytest.raises(ConfigError):
        HostPoolSpec(min_hosts=3, max_hosts=2)
    with pytest.raises(ConfigError):
        HostPoolSpec(min_hosts=1, max_hosts=4, initial_hosts=5)
    assert HostPoolSpec(min_hosts=2).start_hosts == 2
    assert HostPoolSpec(min_hosts=0).start_hosts == 1


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_lists_all_builtin_policies():
    names = AUTOSCALERS.names()
    for expected in ("static", "threshold", "target-utilization",
                     "slo-burn-rate"):
        assert expected in names


def test_make_autoscaler_unknown_name_suggests():
    with pytest.raises(ConfigError, match="slo-burn-rate"):
        make_autoscaler("slo-burn-rat")


def test_make_autoscaler_rejects_unknown_params():
    with pytest.raises(TypeError):
        make_autoscaler("threshold", wat=1)


# ----------------------------------------------------------------------
# Orchestrator elasticity
# ----------------------------------------------------------------------
def _host(name):
    return Host(name, [DEFAULT_CORE])


def test_orchestrator_add_and_remove_host():
    orch = ClusterOrchestrator([_host("a")])
    orch.add_host(_host("b"))
    assert [h.name for h in orch.hosts] == ["a", "b"]
    with pytest.raises(AllocationError):
        orch.add_host(_host("b"))  # duplicate name
    orch.remove_host("b")
    assert [h.name for h in orch.hosts] == ["a"]
    with pytest.raises(AllocationError):
        orch.remove_host("a")  # never remove the last host
    with pytest.raises(AllocationError):
        orch.remove_host("ghost")


def test_orchestrator_refuses_to_remove_occupied_host():
    orch = ClusterOrchestrator([_host("a"), _host("b")])
    orch.submit(PlacementRequest(owner="t", num_mes=1, num_ves=1))
    victim = orch.placements()[0].host.name
    with pytest.raises(AllocationError, match="drain"):
        orch.remove_host(victim)


def test_orchestrator_migrate_moves_placement():
    a, b = _host("a"), _host("b")
    orch = ClusterOrchestrator([a, b])
    placement = orch.submit(PlacementRequest(owner="t", num_mes=1, num_ves=1))
    source = placement.host
    moved = orch.migrate(placement.request.request_id)
    assert moved is not None and moved.host is not source
    assert not source.resident and moved.host.resident
    # The request id is stable across the move.
    assert orch.placements()[0].request.request_id == \
        placement.request.request_id


def test_orchestrator_migrate_returns_none_when_nowhere_to_go():
    a, b = _host("a"), _host("b")
    orch = ClusterOrchestrator([a, b])
    placement = orch.submit(PlacementRequest(owner="t", num_mes=1, num_ves=1))
    other = b if placement.host is a else a
    other.place(
        PlacementRequest(owner="hog", num_mes=4, num_ves=4).as_vnpu_config(),
        owner="hog",
    )
    before = placement.host
    assert orch.migrate(placement.request.request_id) is None
    assert orch.placements()[0].host is before  # untouched


# ----------------------------------------------------------------------
# Closed loop through run_cluster_traffic
# ----------------------------------------------------------------------
def _cfg(**overrides):
    base = dict(
        scheme="neu10", arrival="poisson", load=0.5, end_s=0.001, seed=13,
        pools=(HostPoolSpec("h", min_hosts=1, max_hosts=3, initial_hosts=1),),
        autoscale_interval_s=0.00025,
    )
    base.update(overrides)
    return ClusterTrafficConfig(**base)


def _arrivals(n, mes=1, ves=1):
    return [
        ChurnEvent(0.0, "arrive", f"t{i}", spec=SPEC, num_mes=mes, num_ves=ves)
        for i in range(n)
    ]


def test_overload_triggers_scale_up_and_rebalance():
    result = run_cluster_traffic(
        _arrivals(4),
        _cfg(autoscaler=make_autoscaler("slo-burn-rate", slo_target=0.75)),
    )
    actions = [e.action for e in result.autoscale_events]
    assert "add" in actions
    assert "rebalance" in actions
    # The fleet actually grew.
    assert max(n for _, n in result.host_count_timeline) > 1
    assert result.mean_active_hosts > 1.0
    # Rebalance migrations are recorded tenant by tenant.
    moves = [
        m for e in result.autoscale_events for m in e.migrations
    ]
    assert all(len(m) == 3 for m in moves)


def test_static_policy_matches_disabled_autoscaler_without_interval():
    """The elastic plumbing with a no-op policy and no extra boundaries
    must reproduce the plain driver bit for bit."""
    events = _arrivals(2)
    plain = run_cluster_traffic(
        events,
        ClusterTrafficConfig(load=0.5, end_s=0.001, seed=13),
    )
    elastic = run_cluster_traffic(
        events,
        ClusterTrafficConfig(
            load=0.5, end_s=0.001, seed=13,
            pools=(HostPoolSpec("host", min_hosts=1, max_hosts=4,
                                initial_hosts=2),),
            autoscaler=make_autoscaler("static"),
        ),
    )
    assert set(plain.reports) == set(elastic.reports)
    for name in plain.reports:
        assert plain.reports[name].latencies_cycles == \
            elastic.reports[name].latencies_cycles
    assert plain.host_me_utilization == elastic.host_me_utilization
    assert elastic.autoscale_events == []


def test_min_hosts_floor_is_respected():
    result = run_cluster_traffic(
        _arrivals(1),
        _cfg(
            load=0.1,
            pools=(HostPoolSpec("h", min_hosts=2, max_hosts=3,
                                initial_hosts=2),),
            autoscaler=make_autoscaler("threshold", low=0.9, high=0.95),
        ),
    )
    # Utilization is far below `low` every segment, but the pool floor
    # keeps two hosts alive.
    assert all(n >= 2 for _, n in result.host_count_timeline)


def test_max_hosts_ceiling_is_respected():
    result = run_cluster_traffic(
        _arrivals(6),
        _cfg(autoscaler=make_autoscaler("threshold", high=0.05, low=0.01)),
    )
    assert all(n <= 3 for _, n in result.host_count_timeline)


def test_drain_migrates_residents_and_retires_host():
    result = run_cluster_traffic(
        _arrivals(2),
        _cfg(
            end_s=0.002,
            load=0.05,
            pools=(HostPoolSpec("h", min_hosts=1, max_hosts=3,
                                initial_hosts=3),),
            autoscaler=make_autoscaler("threshold", low=0.5, high=0.9),
        ),
    )
    drains = [e for e in result.autoscale_events if e.action == "drain"]
    assert drains, "idle hosts must be drained"
    assert min(n for _, n in result.host_count_timeline) < 3


def test_same_seed_reproduces_autoscaled_run():
    # One config object for both runs: each run drives its own copy of
    # the slo-burn-rate policy, so its burn average cannot carry over.
    events = _arrivals(4)
    cfg = _cfg(autoscaler=make_autoscaler("slo-burn-rate", slo_target=0.75))
    a = run_cluster_traffic(events, cfg)
    b = run_cluster_traffic(events, cfg)
    assert [e.to_dict() for e in a.autoscale_events] == \
        [e.to_dict() for e in b.autoscale_events]
    for name in a.reports:
        assert a.reports[name].latencies_cycles == \
            b.reports[name].latencies_cycles


def test_heterogeneous_pools_place_and_report_by_pool_name():
    cfg = ClusterTrafficConfig(
        scheme="neu10", load=0.5, end_s=0.0005, seed=13,
        pools=(
            HostPoolSpec("small", cores_per_host=1, min_hosts=1,
                         max_hosts=1),
            HostPoolSpec("big", cores_per_host=2, min_hosts=1, max_hosts=1),
        ),
    )
    result = run_cluster_traffic(_arrivals(2, mes=2, ves=2), cfg)
    assert set(result.host_me_utilization) == {"small0", "big0"}
    assert result.admission_rate == 1.0


def test_unknown_pool_in_action_fails_loudly():
    class Rogue(StaticAutoscaler):
        def observe(self, observation):
            return [ScalingAction("add", pool="nope")]

    with pytest.raises(ConfigError, match="unknown pool"):
        run_cluster_traffic(
            _arrivals(2), _cfg(end_s=0.001, autoscaler=Rogue())
        )


def test_duplicate_pool_names_rejected():
    with pytest.raises(ConfigError):
        ClusterTrafficConfig(
            pools=(HostPoolSpec("p"), HostPoolSpec("p")),
        )


def test_interval_boundaries_have_no_float_jitter_duplicates():
    """7 * 0.0001 != 0.0007 in floats; the boundary grid must not turn
    that into a phantom ~0-width segment next to a churn event."""
    from repro.traffic.stepper import merge_boundaries

    cuts = merge_boundaries(
        [ChurnEvent(0.0007, "depart", "x")], 0.002, 0.0001
    )
    assert 0.0007 in cuts
    gaps = [b - a for a, b in zip(cuts, cuts[1:])]
    assert min(gaps) > 1e-6
    # The grid itself is still there (20 intervals, one churn-aligned).
    assert len(cuts) == 21


def test_rebalance_skips_oversized_tenant_for_a_smaller_one():
    """A first-in-name-order tenant whose move would overshoot the load
    spread must not block moving a smaller tenant that shrinks it.

    Setup (8-EU hosts): `zsmall` (2 EU) then `abig` (6 EU) land on h0
    (full, load 1.0), `mid` (4 EU) on h1 (load 0.5).  Moving `abig`
    would put h1 at 1.25 -- blocked; moving `zsmall` balances 0.75/0.75.
    """
    events = [
        ChurnEvent(0.0, "arrive", "zsmall", spec=SPEC, num_mes=1, num_ves=1),
        ChurnEvent(0.0, "arrive", "mid", spec=SPEC, num_mes=2, num_ves=2),
        ChurnEvent(0.0, "arrive", "abig", spec=SPEC, num_mes=3, num_ves=3),
    ]
    result = run_cluster_traffic(
        events,
        _cfg(
            end_s=0.001,
            pools=(HostPoolSpec("h", min_hosts=2,
                                max_hosts=2, initial_hosts=2),),
            # Fleet is pinned at max, but scale-up attempts still emit
            # the follow-up rebalance -- which must pick `zsmall`.
            autoscaler=make_autoscaler("threshold", high=0.02, low=0.01),
        ),
    )
    moves = [m for e in result.autoscale_events for m in e.migrations]
    assert ("zsmall", "h0", "h1") in [tuple(m) for m in moves]
    assert all(m[0] != "abig" for m in moves)
