"""Cluster-scale open-loop simulation under tenant churn."""

import copy

import pytest

from repro.cluster.autoscale import HostPoolSpec
from repro.errors import ConfigError, SimulationError
from repro.traffic import (
    ChurnEvent,
    ClusterTrafficConfig,
    SloSpec,
    TrafficTenantSpec,
    cluster_sim,
    run_cluster_traffic,
)

from repro.traffic.cluster_sim import ClusterSimulation

MNIST = TrafficTenantSpec(model="MNIST", batch=8)
DLRM = TrafficTenantSpec(model="DLRM", batch=8)
ONE_HOST = (HostPoolSpec("host", min_hosts=1, max_hosts=1),)


def test_failed_boundary_leaves_the_simulation_intact():
    """A boundary that cannot apply must apply *nothing*.

    The depart of "b" and the conflicting re-arrival of "a" share one
    boundary; the bad arrival must be rejected before the depart lands,
    so the run stays consistent and the error is retry-stable instead
    of double-applying the depart.
    """
    events = [
        ChurnEvent(0.0, "arrive", "a", spec=MNIST),
        ChurnEvent(0.0, "arrive", "b", spec=MNIST),
        ChurnEvent(0.0005, "depart", "b"),
        ChurnEvent(0.0005, "arrive", "a", spec=MNIST),
    ]
    cfg = ClusterTrafficConfig(load=0.5, end_s=0.001, seed=4)
    sim = ClusterSimulation(events, cfg)
    sim.step_segment()
    assert set(sim.residents) == {"a", "b"}
    before = sim.segments_completed
    for _ in range(2):  # the retry fails identically
        with pytest.raises(ConfigError, match="already resident"):
            sim.step_segment()
        assert set(sim.residents) == {"a", "b"}
        assert sim.segments_completed == before


def _script(end_s: float):
    return [
        ChurnEvent(0.0, "arrive", "mnist-a", spec=MNIST),
        ChurnEvent(0.0, "arrive", "dlrm-a", spec=DLRM),
        ChurnEvent(end_s / 2, "depart", "mnist-a"),
        ChurnEvent(end_s / 2, "arrive", "mnist-b", spec=MNIST),
    ]


def test_churn_script_end_to_end():
    cfg = ClusterTrafficConfig(load=0.5, end_s=0.001, seed=1)
    result = run_cluster_traffic(_script(cfg.end_s), cfg)
    assert result.segments == 2
    assert set(result.reports) <= {"mnist-a", "dlrm-a", "mnist-b"}
    assert "mnist-a" in result.reports and "mnist-b" in result.reports
    assert result.reports["mnist-a"].offered > 0
    for name, report in result.reports.items():
        assert 0.0 <= report.attainment <= 1.0, name
    assert 0.0 <= result.cluster_me_utilization <= 1.0
    assert result.admission_rate == 1.0
    assert result.rejected == []


def test_departure_frees_capacity_for_later_arrival():
    """One tiny host: the second tenant only fits after the first leaves."""
    big = TrafficTenantSpec(model="MNIST", batch=8)
    events = [
        ChurnEvent(0.0, "arrive", "a", spec=big, num_mes=4, num_ves=4),
        ChurnEvent(0.0005, "depart", "a"),
        ChurnEvent(0.0005, "arrive", "b", spec=big, num_mes=4, num_ves=4),
    ]
    cfg = ClusterTrafficConfig(pools=ONE_HOST, load=0.5, end_s=0.001, seed=2)
    result = run_cluster_traffic(events, cfg)
    assert result.admission_rate == 1.0
    assert "a" in result.reports and "b" in result.reports


def test_overcommit_is_rejected_and_recorded():
    events = [
        ChurnEvent(0.0, "arrive", "a", spec=MNIST, num_mes=4, num_ves=4),
        ChurnEvent(0.0, "arrive", "b", spec=MNIST, num_mes=4, num_ves=4),
    ]
    cfg = ClusterTrafficConfig(pools=ONE_HOST, load=0.5, end_s=0.0005, seed=3)
    result = run_cluster_traffic(events, cfg)
    assert result.rejected == ["b"]
    assert result.admission_rate == pytest.approx(0.5)
    assert "b" not in result.reports


def test_depart_of_rejected_tenant_is_a_noop():
    """A churn script may depart a tenant whose arrival was rejected;
    the run must not abort."""
    events = [
        ChurnEvent(0.0, "arrive", "a", spec=MNIST, num_mes=4, num_ves=4),
        ChurnEvent(0.0, "arrive", "b", spec=MNIST, num_mes=4, num_ves=4),
        ChurnEvent(0.0004, "depart", "b"),
        ChurnEvent(0.0004, "depart", "a"),
        ChurnEvent(0.0004, "arrive", "c", spec=MNIST, num_mes=4, num_ves=4),
    ]
    cfg = ClusterTrafficConfig(pools=ONE_HOST, load=0.5, end_s=0.0008, seed=6)
    result = run_cluster_traffic(events, cfg)
    assert result.rejected == ["b"]
    assert "a" in result.reports and "c" in result.reports


def test_host_utilization_capped_by_simulated_time():
    """One short burst early in a long otherwise-idle window must not be
    booked as busy for the whole window."""
    events = [ChurnEvent(0.0, "arrive", "a", spec=MNIST, num_mes=4, num_ves=4)]
    cfg = ClusterTrafficConfig(pools=ONE_HOST, load=0.01, end_s=0.002, seed=8)
    result = run_cluster_traffic(events, cfg)
    assert 0.0 <= result.host_me_utilization["host0"] < 0.5


def test_same_seed_reproduces_cluster_run():
    cfg = ClusterTrafficConfig(load=0.5, end_s=0.001, seed=7)
    a = run_cluster_traffic(_script(cfg.end_s), cfg)
    b = run_cluster_traffic(_script(cfg.end_s), cfg)
    for name in a.reports:
        assert a.reports[name].latencies_cycles == b.reports[name].latencies_cycles


def test_mid_run_result_keeps_the_window_it_scored():
    """Segments extend the live per-tenant reports in place, so a
    result taken mid-run must hold copies that later segments leave
    alone."""
    cfg = ClusterTrafficConfig(load=0.8, end_s=0.001, seed=7)
    sim = ClusterSimulation(_script(cfg.end_s), cfg)
    sim.step_segment()
    early = sim.result()
    frozen = copy.deepcopy(early.reports)
    while not sim.done:
        sim.step_segment()
    assert early.reports == frozen
    final = sim.result().reports["dlrm-a"]
    assert final.offered > frozen["dlrm-a"].offered
    assert final.latencies_cycles[: len(frozen["dlrm-a"].latencies_cycles)] \
        == frozen["dlrm-a"].latencies_cycles


def test_host_segment_failure_surfaces_as_itself_after_one_call(monkeypatch):
    """A segment's hosts step in this process: a failing step raises
    its own typed error at once, with no retries and no wrapping."""
    calls = []

    def failing(sims):
        calls.append(sims)
        raise SimulationError("host segment diverged")

    monkeypatch.setattr(cluster_sim, "run_simulators", failing)
    cfg = ClusterTrafficConfig(load=0.5, end_s=0.001, seed=1)
    with pytest.raises(SimulationError, match="host segment diverged"):
        run_cluster_traffic(_script(cfg.end_s), cfg)
    assert len(calls) == 1


def test_failed_host_step_leaves_no_half_stepped_run(monkeypatch):
    """A host step that raises after its boundary applied has advanced
    the run and admitted its tenants, but simulated nothing.  Going on
    from there would drop that segment's requests without a word, so
    every later step, score and checkpoint refuses, naming the segment;
    a restore from an earlier checkpoint recovers the run exactly."""
    events = [
        ChurnEvent(0.0, "arrive", "a", spec=MNIST),
        ChurnEvent(0.0005, "arrive", "b", spec=MNIST),
    ]
    cfg = ClusterTrafficConfig(load=0.5, end_s=0.001, seed=1)
    clean = ClusterSimulation(events, cfg)
    checkpoint = clean.snapshot()
    reference = clean.run()
    assert reference.segments == 2

    real = cluster_sim.run_simulators
    calls = []

    def fail_once(sims):
        calls.append(sims)
        if len(calls) == 1:
            raise SimulationError("host segment diverged")
        return real(sims)

    monkeypatch.setattr(cluster_sim, "run_simulators", fail_once)
    sim = ClusterSimulation(events, cfg)
    with pytest.raises(SimulationError, match="host segment diverged"):
        sim.step_segment()
    for call in (
        sim.step_segment,
        lambda: sim.advance(cfg.end_s),
        sim.run,
        sim.result,
        sim.snapshot,
    ):
        with pytest.raises(SimulationError, match="segment 0 failed"):
            call()
    assert len(calls) == 1 and sim.failed_segment == 0

    restored = ClusterSimulation.restore(checkpoint, events, cfg).run()
    assert restored.segments == reference.segments
    assert restored.reports == reference.reports


def test_churn_script_validation():
    with pytest.raises(ConfigError):
        ChurnEvent(-1.0, "arrive", "a", spec=MNIST)
    with pytest.raises(ConfigError):
        ChurnEvent(0.0, "reboot", "a", spec=MNIST)
    with pytest.raises(ConfigError):
        ChurnEvent(0.0, "arrive", "a")  # no spec
    with pytest.raises(ConfigError):
        run_cluster_traffic(
            [ChurnEvent(0.0, "depart", "ghost")],
            ClusterTrafficConfig(end_s=0.0005),
        )


def test_config_needs_a_host_pool():
    with pytest.raises(ConfigError, match="at least one host pool"):
        ClusterTrafficConfig(pools=())


def test_slo_override_reaches_cluster_reports():
    strict = TrafficTenantSpec(model="MNIST", batch=8, slo=SloSpec(target_cycles=1.0))
    events = [ChurnEvent(0.0, "arrive", "strict", spec=strict)]
    cfg = ClusterTrafficConfig(pools=ONE_HOST, load=0.5, end_s=0.0005, seed=4)
    result = run_cluster_traffic(events, cfg)
    assert result.reports["strict"].attainment == 0.0
