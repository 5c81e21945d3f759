"""Differential tests: the fast path must be bit-identical to the
reference engine.

Every scheme runs the same scenario twice -- ``Simulator(...,
fast_path=True)`` and ``fast_path=False`` -- and every observable
(SimStats integrals and counters, per-request latencies, queueing
delays, SLO attainment) must compare *exactly* equal, not approximately:
the fast path only memoises pure functions of the scheduler state, so
any drift is a bug.
"""

import pytest

from repro.api.registries import scheme_isa
from repro.config import NpuCoreConfig, spawn_rng
from repro.serving.server import (
    ALL_SCHEMES,
    SCHEME_TEMPORAL,
    make_scheduler,
)
from repro.sim.engine import FAST_PATH_ENV, Simulator, Tenant
from repro.sim.sched_static import StaticPartitionScheduler
from repro.traffic import OpenLoopConfig, TrafficTenantSpec, run_open_loop
from repro.traffic.arrivals import PoissonProcess
from repro.workloads.traces import build_trace

CORE = NpuCoreConfig()
SCHEMES = list(ALL_SCHEMES) + [SCHEME_TEMPORAL]


def _closed_loop_tenants(scheme, target_requests=4):
    isa = scheme_isa(scheme)
    tenants = []
    for idx, (model, batch) in enumerate([("MNIST", 8), ("DLRM", 8)]):
        trace = build_trace(model, batch, core=CORE)
        tenants.append(
            Tenant(
                tenant_id=idx,
                name=f"{model}#{idx}",
                graph=trace.compiled(isa),
                alloc_mes=2,
                alloc_ves=2,
                target_requests=target_requests,
            )
        )
    return tenants


def _open_loop_tenants(scheme, duration_cycles):
    isa = scheme_isa(scheme)
    tenants = []
    for idx, (model, batch) in enumerate([("MNIST", 8), ("DLRM", 8)]):
        trace = build_trace(model, batch, core=CORE)
        rate = 1.0 / 120_000.0
        arrivals = PoissonProcess(rate).generate(
            duration_cycles, spawn_rng(33, scheme, model, idx)
        )
        tenants.append(
            Tenant(
                tenant_id=idx,
                name=f"{model}#{idx}",
                graph=trace.compiled(isa),
                alloc_mes=2,
                alloc_ves=2,
                target_requests=None,
                arrivals=arrivals,
            )
        )
    return tenants


def _stats_snapshot(result):
    stats = result.stats
    return {
        "total_cycles": stats.total_cycles,
        "me_busy_integral": stats.me_busy_integral,
        "ve_busy_integral": stats.ve_busy_integral,
        "me_busy_per_tenant": dict(stats.me_busy_per_tenant),
        "ve_busy_per_tenant": dict(stats.ve_busy_per_tenant),
        "blocked_cycles_per_tenant": dict(stats.blocked_cycles_per_tenant),
        "preemption_count": stats.preemption_count,
        "reclaim_penalty_cycles": stats.reclaim_penalty_cycles,
        "op_records": [
            (r.tenant_id, r.op_index, r.request_id, r.start_cycle,
             r.end_cycle)
            for r in stats.op_records
        ],
        "tenants": {
            tid: (
                tr.latencies_cycles,
                tr.queueing_cycles,
                tr.completed_requests,
                tr.offered_requests,
                tr.me_utilization,
                tr.ve_utilization,
                tr.blocked_fraction,
            )
            for tid, tr in result.tenants.items()
        },
    }


@pytest.mark.parametrize("scheme", SCHEMES)
def test_closed_loop_bit_identical(scheme):
    runs = {}
    for fast in (True, False):
        sim = Simulator(
            CORE,
            make_scheduler(scheme),
            _closed_loop_tenants(scheme),
            fast_path=fast,
        )
        runs[fast] = _stats_snapshot(sim.run())
    assert runs[True] == runs[False]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_open_loop_bit_identical(scheme):
    horizon = 1_500_000.0
    runs = {}
    for fast in (True, False):
        sim = Simulator(
            CORE,
            make_scheduler(scheme),
            _open_loop_tenants(scheme, horizon),
            horizon_cycles=horizon,
            fast_path=fast,
        )
        runs[fast] = _stats_snapshot(sim.run())
    assert runs[True] == runs[False]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_open_loop_slo_reports_bit_identical(scheme, monkeypatch):
    """End-to-end run_open_loop: latencies and attainment match exactly
    with the fast path toggled through the environment escape hatch."""
    specs = [
        TrafficTenantSpec(model="MNIST", batch=8),
        TrafficTenantSpec(model="DLRM", batch=8),
    ]
    cfg = OpenLoopConfig(duration_s=0.0015, load=1.1, arrival="bursty", seed=5)
    results = {}
    for fast in ("1", "0"):
        monkeypatch.setenv(FAST_PATH_ENV, fast)
        results[fast] = run_open_loop(specs, scheme, cfg)
    r1, r0 = results["1"], results["0"]
    assert r1.total_cycles == r0.total_cycles
    assert r1.me_utilization == r0.me_utilization
    assert r1.ve_utilization == r0.ve_utilization
    for a, b in zip(r1.reports, r0.reports):
        assert a.latencies_cycles == b.latencies_cycles
        assert a.queueing_cycles == b.queueing_cycles
        assert a.attainment == b.attainment
        assert a.goodput_rps == b.goodput_rps
        assert (a.offered, a.completed, a.attained) == (
            b.offered, b.completed, b.attained
        )


def test_env_escape_hatch(monkeypatch):
    monkeypatch.setenv(FAST_PATH_ENV, "0")
    sim = Simulator(CORE, make_scheduler("neu10"),
                    _closed_loop_tenants("neu10", target_requests=1))
    assert sim.fast_path is False
    monkeypatch.delenv(FAST_PATH_ENV)
    sim = Simulator(CORE, make_scheduler("neu10"),
                    _closed_loop_tenants("neu10", target_requests=1))
    assert sim.fast_path is True
    # The explicit argument wins over the environment.
    monkeypatch.setenv(FAST_PATH_ENV, "0")
    sim = Simulator(CORE, make_scheduler("neu10"),
                    _closed_loop_tenants("neu10", target_requests=1),
                    fast_path=True)
    assert sim.fast_path is True


def test_fast_path_populates_memo_and_cache(monkeypatch):
    import repro.sim.engine as engine_mod

    # Isolate from the process-wide plan memo so this run starts cold.
    monkeypatch.setattr(engine_mod, "_PLAN_MEMOS", {})
    sim = Simulator(CORE, make_scheduler("neu10"),
                    _closed_loop_tenants("neu10"))
    assert sim.fast_path is True
    sim.run()
    assert len(sim._decision_memo) > 0
    assert sim._factor_cache.hits > 0


def test_plan_memo_shared_across_simulators(monkeypatch):
    """A second structurally identical simulation starts with a warm
    memo (and still produces bit-identical results -- covered by the
    differential tests above)."""
    import repro.sim.engine as engine_mod

    monkeypatch.setattr(engine_mod, "_PLAN_MEMOS", {})
    first = Simulator(CORE, make_scheduler("neu10"),
                      _closed_loop_tenants("neu10"))
    first.run()
    assert len(first._decision_memo) > 0
    second = Simulator(CORE, make_scheduler("neu10"),
                       _closed_loop_tenants("neu10"))
    assert second._decision_memo is first._decision_memo
    # A different allocation layout gets its own memo.
    other_tenants = _closed_loop_tenants("neu10")
    other_tenants[0].alloc_mes = 3
    third = Simulator(CORE, make_scheduler("neu10"), other_tenants)
    assert third._decision_memo is not first._decision_memo


def test_reference_path_stays_cold():
    sim = Simulator(CORE, make_scheduler("neu10"),
                    _closed_loop_tenants("neu10"), fast_path=False)
    sim.run()
    assert len(sim._decision_memo) == 0
    assert sim._factor_cache.hits == 0 and sim._factor_cache.misses == 0


@pytest.mark.parametrize("scheme", ["pmt", "v10"])
def test_history_dependent_schemes_fill_a_private_memo(scheme):
    """PMT and V10 memoise under a policy token, in a memo private to
    each run: a second simulation of the same layout starts cold."""
    first = Simulator(CORE, make_scheduler(scheme),
                      _closed_loop_tenants(scheme))
    first.run()
    assert len(first._decision_memo) > 0
    second = Simulator(CORE, make_scheduler(scheme),
                       _closed_loop_tenants(scheme))
    assert len(second._decision_memo) == 0


class _ForcingStatic(StaticPartitionScheduler):
    """Fingerprints like Neu10-NH and forces a re-decision whenever the
    first tenant has ME work left, but keeps the base class's
    forced_decision_at (None)."""

    def memo_context(self):
        return None

    def decide(self, sim):
        decision = super().decide(sim)
        if any(u.is_me_unit and not u.done
               for u in sim.tenants[0].active_units):
            decision.next_decision_at = sim.now + 30_000.0
        return decision


class _MismatchedHook(_ForcingStatic):
    """A hook whose time disagrees with the decision's."""

    def forced_decision_at(self, sim):
        return sim.now + 1.0


@pytest.mark.parametrize("scheduler_cls", [_ForcingStatic, _MismatchedHook])
def test_forced_plans_without_a_matching_hook_are_not_memoised(scheduler_cls):
    runs = {}
    for fast in (True, False):
        sim = Simulator(CORE, scheduler_cls(),
                        _closed_loop_tenants("neu10-nh"), fast_path=fast)
        runs[fast] = _stats_snapshot(sim.run())
        if fast:
            memo = sim._decision_memo
            assert len(memo) > 0
            assert not any(entry[10] for entry in memo.values())
    assert runs[True] == runs[False]
