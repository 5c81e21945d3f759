"""Engine-level tests: request lifecycle, conservation, determinism."""

import pytest

import repro.compiler as comp
from repro.compiler.lowering import lower_graph_neuisa
from repro.config import NpuCoreConfig
from repro.errors import SimulationError
from repro.sim.engine import Simulator, Tenant
from repro.sim.sched_neu10 import Neu10Scheduler
from repro.sim.sched_static import StaticPartitionScheduler

from tests.conftest import make_me_graph, make_tenant, make_ve_graph

CORE = NpuCoreConfig()


def test_single_request_completes():
    tenant = make_tenant(make_me_graph(), CORE, alloc_mes=4, alloc_ves=4,
                         target_requests=1)
    result = Simulator(CORE, StaticPartitionScheduler(), [tenant]).run()
    tr = result.tenant(0)
    assert tr.completed_requests >= 1
    assert tr.mean_latency > 0


def test_closed_loop_latency_excludes_queueing():
    """Closed-loop requests are issued at completion of the previous one,
    so latency equals service time and is roughly constant."""
    tenant = make_tenant(make_me_graph(), CORE, alloc_mes=4, alloc_ves=4,
                         target_requests=4)
    result = Simulator(CORE, StaticPartitionScheduler(), [tenant]).run()
    lats = result.tenant(0).latencies_cycles
    assert len(lats) >= 4
    assert max(lats) / min(lats) < 1.05


def test_open_loop_queueing_inflates_latency():
    """Arrivals faster than service accumulate queueing delay."""
    probe = make_tenant(make_me_graph(), CORE, alloc_mes=4, alloc_ves=4,
                        target_requests=1)
    service = Simulator(CORE, StaticPartitionScheduler(), [probe]).run()
    svc = service.tenant(0).mean_latency

    arrivals = [i * svc * 0.5 for i in range(6)]  # 2x overload
    compiled = lower_graph_neuisa(make_me_graph(), CORE)
    tenant = Tenant(0, "open", compiled, alloc_mes=4, alloc_ves=4,
                    target_requests=6, arrivals=arrivals)
    result = Simulator(CORE, StaticPartitionScheduler(), [tenant]).run()
    lats = result.tenant(0).latencies_cycles
    assert lats[-1] > lats[0] * 1.5  # queue builds up


def test_throughput_matches_completed_over_time():
    tenant = make_tenant(make_ve_graph(), CORE, alloc_mes=2, alloc_ves=2,
                         target_requests=3)
    result = Simulator(CORE, StaticPartitionScheduler(), [tenant]).run()
    tr = result.tenant(0)
    seconds = CORE.cycles_to_seconds(result.total_cycles)
    assert tr.throughput_rps == pytest.approx(tr.completed_requests / seconds)


def test_utilization_bounded():
    t0 = make_tenant(make_me_graph(), CORE, 0, alloc_mes=2, alloc_ves=2,
                     target_requests=2)
    t1 = make_tenant(make_ve_graph(), CORE, 1, alloc_mes=2, alloc_ves=2,
                     target_requests=2)
    result = Simulator(CORE, Neu10Scheduler(), [t0, t1]).run()
    assert 0.0 < result.stats.me_utilization() <= 1.0 + 1e-9
    assert 0.0 < result.stats.ve_utilization() <= 1.0 + 1e-9


def test_two_tenant_run_is_deterministic():
    def once():
        t0 = make_tenant(make_me_graph(), CORE, 0, target_requests=2)
        t1 = make_tenant(make_ve_graph(), CORE, 1, target_requests=2)
        result = Simulator(CORE, Neu10Scheduler(), [t0, t1]).run()
        return (
            result.total_cycles,
            tuple(result.tenant(0).latencies_cycles),
            tuple(result.tenant(1).latencies_cycles),
        )

    assert once() == once()


def test_duplicate_tenant_ids_rejected():
    t0 = make_tenant(make_me_graph(), CORE, 0)
    t1 = make_tenant(make_ve_graph(), CORE, 0)
    with pytest.raises(SimulationError):
        Simulator(CORE, Neu10Scheduler(), [t0, t1])


def test_empty_tenant_list_rejected():
    with pytest.raises(SimulationError):
        Simulator(CORE, Neu10Scheduler(), [])


def test_empty_workload_rejected():
    compiled = lower_graph_neuisa(make_me_graph(), CORE)
    compiled.ops = []
    with pytest.raises(SimulationError):
        Tenant(0, "empty", compiled, alloc_mes=1, alloc_ves=1)


def test_horizon_stops_simulation():
    tenant = make_tenant(make_me_graph(), CORE, alloc_mes=1, alloc_ves=1,
                         target_requests=10_000)
    sim = Simulator(CORE, StaticPartitionScheduler(), [tenant],
                    horizon_cycles=50_000.0)
    result = sim.run()
    assert result.total_cycles <= 50_001.0


def test_horizon_inside_an_operator_leaves_it_unrecorded():
    """Operators still open when the run stops are not recorded; the
    ones that finished before the horizon are, exactly as in a full
    run."""
    def run(horizon):
        tenant = make_tenant(make_me_graph(), CORE, alloc_mes=4,
                             alloc_ves=4, target_requests=1)
        sim = Simulator(CORE, StaticPartitionScheduler(), [tenant],
                        horizon_cycles=horizon, record_ops=True)
        return sim.run().stats.op_records

    full = run(float("inf"))
    _, _, _, _, start, end = full[2]
    horizon = (start + end) / 2
    assert start < horizon < end
    assert run(horizon) == full[:2]


def test_more_engines_never_slower():
    lat = {}
    for mes in (1, 2, 4):
        tenant = make_tenant(make_me_graph(), CORE, alloc_mes=mes,
                             alloc_ves=4, target_requests=1)
        result = Simulator(CORE, StaticPartitionScheduler(), [tenant]).run()
        lat[mes] = result.tenant(0).mean_latency
    assert lat[4] <= lat[2] <= lat[1]


def test_request_latency_positive_and_ordered():
    tenant = make_tenant(make_ve_graph(), CORE, alloc_mes=2, alloc_ves=2,
                         target_requests=3)
    result = Simulator(CORE, StaticPartitionScheduler(), [tenant]).run()
    tr = result.tenant(0)
    assert all(l > 0 for l in tr.latencies_cycles)
    assert tr.p95_latency >= tr.mean_latency * 0.5
