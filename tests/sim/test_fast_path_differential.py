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

from repro.api.registries import make_scheduler, scheme_isa
from repro.baselines.pmt import PmtScheduler
from repro.config import NpuCoreConfig, spawn_rng
from repro.serving.server import ALL_SCHEMES, SCHEME_TEMPORAL
from repro.sim.engine import FAST_PATH_ENV, Simulator, Tenant
from repro.sim.sched_static import StaticPartitionScheduler
from repro.traffic import OpenLoopConfig, TrafficTenantSpec, run_open_loop
from repro.traffic.arrivals import PoissonProcess
from repro.workloads.traces import build_trace

CORE = NpuCoreConfig()
SCHEMES = list(ALL_SCHEMES) + [SCHEME_TEMPORAL]


def _closed_loop_tenants(scheme, target_requests=4,
                         models=(("MNIST", 8), ("DLRM", 8))):
    isa = scheme_isa(scheme)
    tenants = []
    for idx, (model, batch) in enumerate(models):
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
        "op_records": list(stats.op_records),
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
def test_closed_loop_bit_identical_with_cross_tenant_fifo_ties(scheme):
    """BERT and RNRS: V10 hands VE capacity to VE operators in creation
    order across tenants, so its decisions here depend on the
    fingerprint's creation-rank permutation, and a stale cached
    permutation replays the wrong plan."""
    models = (("BERT", 8), ("RNRS", 8))
    runs = {}
    for fast in (True, False):
        sim = Simulator(
            CORE,
            make_scheduler(scheme),
            _closed_loop_tenants(scheme, target_requests=1, models=models),
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


# ----------------------------------------------------------------------
# Fingerprint state carried on the units: codes and the rank permutation
# ----------------------------------------------------------------------
def _reference_unit_key(sim):
    """``unit_state_fingerprint``'s key, computed from scratch from each
    unit's attributes, as the fingerprint did before units carried their
    codes."""
    from repro.sim.scheduler_base import UnitKind, UnitState

    kinds = [UnitKind.ME_UTOP, UnitKind.VE_UTOP, UnitKind.VLIW_ME,
             UnitKind.VLIW_VE]
    states = [UnitState.READY, UnitState.RUNNING, UnitState.DONE]
    flat = []
    for tenant in sim.tenants:
        flat.append(-1)
        for u in tenant.active_units:
            sc = states.index(u.state)
            if u.tpl_id >= 0 and u.granted_me < 64:
                flat.append(u.tpl_id * 256 + sc * 64 + u.granted_me)
            else:
                flat.append((kinds.index(u.kind), sc, u.me_engines_needed,
                             u.granted_me, u.ve_rate, u.hbm_rate,
                             u.parallelism))
    rc = None
    if sim.reclaims:
        rc = tuple(sim.reclaiming_for(t.tenant_id) for t in sim.tenants)
    ids = [u.unit_id for t in sim.tenants for u in t.active_units]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank_perm = () if order == list(range(len(ids))) else tuple(order)
    return (rc, rank_perm, tuple(flat))


def _assert_unit_codes(sim):
    from repro.sim.scheduler_base import unit_code

    for tenant in sim.tenants:
        for u in tenant.active_units:
            assert u.code == unit_code(u.tpl_id, u.state, u.granted_me)


def _assert_rank_cache(sim):
    """The cached rank permutation may be stale only while some tenant's
    replaced units are still to be noticed by the frame."""
    if sim._rank_perm is not None and not any(
        t._units_mutated for t in sim.tenants
    ):
        assert sim._rank_perm == _reference_unit_key(sim)[1]


def _guard_fingerprints(sim):
    """Check, at every fingerprint ``sim``'s scheduler takes, each live
    unit's code, the fingerprint key and the cached rank permutation
    against a from-scratch computation.  Returns the fingerprint count."""
    scheduler = sim.scheduler
    original = scheduler.state_fingerprint
    # PMT and V10 wrap the unit key with a policy token.
    tokened = scheduler.memo_context() is None
    count = [0]

    def checked(s):
        _assert_unit_codes(s)
        fp = original(s)
        if fp is not None:
            count[0] += 1
            key = fp[0][0] if tokened else fp[0]
            assert key == _reference_unit_key(s)
            assert s._rank_perm == key[1]
            assert fp[1] == [u for t in s.tenants for u in t.active_units]
        return fp

    scheduler.state_fingerprint = checked
    return count


@pytest.fixture
def cold_memos(monkeypatch):
    """Start every plan memo cold, so fresh decisions write codes too."""
    import repro.sim.engine as engine_mod

    monkeypatch.setattr(engine_mod, "_PLAN_MEMOS", {})


def _guarded_sim(scheme, kind, record_ops):
    if kind == "closed":
        return Simulator(CORE, make_scheduler(scheme),
                         _closed_loop_tenants(scheme), record_ops=record_ops)
    horizon = 1_500_000.0
    return Simulator(CORE, make_scheduler(scheme),
                     _open_loop_tenants(scheme, horizon),
                     horizon_cycles=horizon, record_ops=record_ops)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind,record_ops", [("closed", True), ("open", False)])
def test_unit_codes_and_rank_perm_hold_at_every_epoch(
    scheme, kind, record_ops, cold_memos
):
    """At every epoch the frame offers a promotion hook -- where a
    mega-batch lane binds to a chain node -- each live unit's code
    equals a from-scratch packing and the cached rank permutation the
    from-scratch one; every fingerprint equals the from-scratch key, and
    a run whose hook declines every epoch equals a plain run exactly."""
    sim = _guarded_sim(scheme, kind, record_ops)
    fingerprints = _guard_fingerprints(sim)
    offers = []

    def offer(plan_key, units):
        _assert_unit_codes(sim)
        _assert_rank_cache(sim)
        assert units == [u for t in sim.tenants for u in t.active_units]
        offers.append(plan_key)
        return None  # the frame steps the epoch itself

    result = sim.run(offer)
    assert sim.epochs > 0
    if scheme != SCHEME_TEMPORAL:
        assert fingerprints[0] > 0 and offers
    reference = _guarded_sim(scheme, kind, record_ops).run()
    assert _stats_snapshot(result) == _stats_snapshot(reference)


def test_unit_codes_hold_through_preemptions(cold_memos):
    """Closed-loop Neu10 reclaims harvested engines: replayed and fresh
    preemptions keep every code and fingerprint exact."""
    sim = _guarded_sim("neu10", "closed", False)
    fingerprints = _guard_fingerprints(sim)
    result = sim.run()
    assert result.stats.preemption_count > 0
    assert fingerprints[0] > 0


def test_unit_codes_hold_through_megabatch_materialisation(
    monkeypatch, cold_memos
):
    """A mega-batch lane that leaves array mode stamps its units back
    out with their codes and flags them as replaced, so the frame
    recomputes the rank permutation before the next fingerprint."""
    import repro.megabatch.engine as mb

    materialised = []
    real = mb._materialize

    def counting(lane):
        units = real(lane)
        materialised.append(lane)
        _assert_unit_codes(lane.sim)
        _assert_rank_cache(lane.sim)
        return units

    monkeypatch.setattr(mb, "_materialize", counting)
    sims = [_guarded_sim("neu10", kind, False) for kind in ("open", "closed")]
    fingerprints = [_guard_fingerprints(sim) for sim in sims]
    engine = mb.MegaBatchEngine(sims)
    results = engine.run()
    assert materialised and engine.group_stats["array_epochs"] > 0
    assert all(count[0] > 0 for count in fingerprints)
    for kind, result in zip(("open", "closed"), results):
        reference = _guarded_sim("neu10", kind, False).run()
        assert _stats_snapshot(result) == _stats_snapshot(reference)


# ----------------------------------------------------------------------
# PMT owner switches replayed from the plan memo
# ----------------------------------------------------------------------
#: Three tenants, so a switch's next owner is a choice: with two it
#: follows from the unit state and the current owner, and a key that
#: leaves it out would still replay the right plan.
_PMT_MODELS = (("MNIST", 8), ("DLRM", 8), ("NCF", 8))
_PMT_OPEN_HORIZON = 3_000_000.0


def _three_tenant_pmt_sim(quantum, kind, priorities, fast_path):
    tenants = []
    for idx, ((model, batch), priority) in enumerate(
        zip(_PMT_MODELS, priorities)
    ):
        graph = build_trace(model, batch, core=CORE).compiled(scheme_isa("pmt"))
        if kind == "closed":
            stream = {"target_requests": 5}
        else:
            stream = {
                "target_requests": None,
                "arrivals": PoissonProcess(1.0 / 150_000.0).generate(
                    _PMT_OPEN_HORIZON, spawn_rng(41, model, idx)
                ),
            }
        tenants.append(
            Tenant(tenant_id=idx, name=f"{model}#{idx}", graph=graph,
                   alloc_mes=1, alloc_ves=1, priority=priority, **stream)
        )
    horizon = _PMT_OPEN_HORIZON if kind == "open" else float("inf")
    return Simulator(CORE, PmtScheduler(quantum_cycles=quantum), tenants,
                     horizon_cycles=horizon, fast_path=fast_path)


@pytest.mark.parametrize("priorities", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5)])
@pytest.mark.parametrize("kind", ["closed", "open"])
@pytest.mark.parametrize("quantum", [5_000.0, 20_000.0, 50_000.0])
def test_pmt_three_tenant_switches_bit_identical(quantum, kind, priorities):
    """Quantum expiries (closed loop) and owners running out of work
    (open loop) both switch; every replayed switch must hand the core to
    the owner a fresh least-service pick would."""
    runs = {}
    for fast in (True, False):
        sim = _three_tenant_pmt_sim(quantum, kind, priorities, fast)
        runs[fast] = _stats_snapshot(sim.run())
    assert runs[True] == runs[False]


def test_pmt_replays_owner_switches_through_the_hook():
    """A memo hit on a switch key runs ``replay_policy``, which leaves
    the scheduler with the key's next owner and a fresh quantum."""
    sim = _three_tenant_pmt_sim(20_000.0, "closed", (1.0, 1.0, 1.0), True)
    scheduler = sim.scheduler
    real = scheduler.replay_policy
    switches = []

    def spy(s, key):
        real(s, key)
        if len(key) == 3:
            switches.append(key)
            assert scheduler._current == key[2]
            assert scheduler._quantum_end == s.now + scheduler.quantum_cycles

    scheduler.replay_policy = spy
    result = sim.run()
    assert switches
    assert len({key[2] for key in switches}) > 1
    reference = _three_tenant_pmt_sim(
        20_000.0, "closed", (1.0, 1.0, 1.0), False
    ).run()
    assert _stats_snapshot(result) == _stats_snapshot(reference)
