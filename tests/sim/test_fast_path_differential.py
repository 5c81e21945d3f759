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
from repro.baselines.v10 import V10Scheduler
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
def _reference_code(u):
    """One unit's part of ``unit_state_fingerprint``'s key, computed from
    scratch from its attributes, as the fingerprint did before units
    carried their codes."""
    from repro.sim.scheduler_base import UnitKind, UnitState

    kinds = [UnitKind.ME_UTOP, UnitKind.VE_UTOP, UnitKind.VLIW_ME,
             UnitKind.VLIW_VE]
    sc = [UnitState.READY, UnitState.RUNNING, UnitState.DONE].index(u.state)
    if u.tpl_id >= 0 and u.granted_me < 64:
        return u.tpl_id * 256 + sc * 64 + u.granted_me
    return (kinds.index(u.kind), sc, u.me_engines_needed, u.granted_me,
            u.ve_rate, u.hbm_rate, u.parallelism)


def _reference_rank_perm(sim):
    ids = [u.unit_id for t in sim.tenants for u in t.active_units]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return () if order == list(range(len(ids))) else tuple(order)


def _reference_unit_key(sim):
    """``unit_state_fingerprint``'s key, computed from scratch."""
    flat = []
    for tenant in sim.tenants:
        flat.append(-1)
        flat.extend(_reference_code(u) for u in tenant.active_units)
    rc = None
    if sim.reclaims:
        rc = tuple(sim.reclaiming_for(t.tenant_id) for t in sim.tenants)
    return (rc, _reference_rank_perm(sim), tuple(flat))


def _reference_pmt_key(sim):
    """``PmtScheduler``'s key, computed from scratch from the unit
    attributes and the policy state: between switches the reclaim
    count, the owner's codes and each other tenant's flag (-1 idle, -2
    VE work only, -3 wants MEs); at a switch the reclaim count, the next
    owner's codes and every other unit as -2 - (2 * (state * 64 + grant)
    + is ME)."""
    from repro.sim.scheduler_base import UnitState

    sched = sim.scheduler
    states = [UnitState.READY, UnitState.RUNNING, UnitState.DONE]

    def has_work(t):
        return any(u.state is not UnitState.DONE for u in t.active_units)

    candidates = [t for t in sim.tenants if has_work(t)]
    if not candidates:
        return None
    current = next(
        (t for t in sim.tenants if t.tenant_id == sched._current), None
    )
    flat = [len(sim.reclaims)]
    if (current is None or not has_work(current)
            or (sim.now >= sched._quantum_end - 1e-9 and len(candidates) > 1)):
        served = sim.stats.me_busy_per_tenant
        pool = [t for t in candidates if t is not current] or candidates
        nxt = min(pool, key=lambda t: served.get(t.tenant_id, 0.0)
                  / max(t.priority, 1e-9))
        for tenant in sim.tenants:
            flat.append(-1)
            for u in tenant.active_units:
                code = _reference_code(u)
                if tenant is not nxt and isinstance(code, int):
                    grant = states.index(u.state) * 64 + u.granted_me
                    code = -2 - (2 * grant + int(u.is_me_unit))
                flat.append(code)
        return (tuple(flat), sched._current, nxt.tenant_id)
    for tenant in sim.tenants:
        if tenant is current:
            flat.extend(_reference_code(u) for u in tenant.active_units)
        elif any(u.is_me_unit and u.state is not UnitState.DONE
                 and u.me_engines_needed > 0 for u in tenant.active_units):
            flat.append(-3)
        else:
            flat.append(-2 if has_work(tenant) else -1)
    return (tuple(flat), sched._current)


def _reference_v10_key(sim):
    """``V10Scheduler``'s key, computed from scratch from the unit
    attributes, with the service choices ``decide`` makes: every READY
    ME unit but the picked one is -2 - its engine count."""
    from repro.sim.scheduler_base import UnitState

    _running, beneficiary, picked = sim.scheduler._service_choices(sim)
    flat = [len(sim.reclaims)]
    for tenant in sim.tenants:
        flat.append(-1)
        for u in tenant.active_units:
            if (u.is_me_unit and u.state is UnitState.READY
                    and u is not picked):
                flat.append(-2 - u.me_engines_needed)
            else:
                flat.append(_reference_code(u))
    return (
        (_reference_rank_perm(sim), tuple(flat)),
        None if beneficiary is None else beneficiary.tenant_id,
        None if picked is None else picked.owner,
    )


def _reference_key(sim):
    name = sim.scheduler.name
    if name == "pmt":
        return _reference_pmt_key(sim)
    if name == "v10":
        return _reference_v10_key(sim)
    return _reference_unit_key(sim)


def _assert_plan_units(sim, key, units):
    """A plan's units are every active unit, except between PMT owner
    switches (a 2-long PMT key), where they are the owner's active units
    and every other unit is READY or DONE without any grant."""
    from repro.sim.scheduler_base import UnitState

    every = [u for t in sim.tenants for u in t.active_units]
    if sim.scheduler.name != "pmt" or len(key) == 3:
        assert units == every
        return
    owner = next(t for t in sim.tenants if t.tenant_id == key[1])
    assert units == owner.active_units
    for tenant in sim.tenants:
        if tenant is owner:
            continue
        for u in tenant.active_units:
            assert u.state in (UnitState.READY, UnitState.DONE)
            assert u.granted_me == 0 and u.granted_ve == 0.0
            assert not u.harvesting


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
        assert sim._rank_perm == _reference_rank_perm(sim)


def _guard_fingerprints(sim):
    """Check, at every fingerprint ``sim``'s scheduler takes, each live
    unit's code, the fingerprint key, the plan's units and the cached
    rank permutation against a from-scratch computation.  Returns the
    fingerprint count."""
    scheduler = sim.scheduler
    original = scheduler.state_fingerprint
    count = [0]

    def checked(s):
        _assert_unit_codes(s)
        fp = original(s)
        if fp is not None:
            count[0] += 1
            key, units = fp
            assert key == _reference_key(s)
            _assert_plan_units(s, key, units)
            if scheduler.name == "v10":
                assert s._rank_perm == key[0][0]
            elif scheduler.name != "pmt":
                assert s._rank_perm == key[1]
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
    equals a from-scratch packing, the cached rank permutation the
    from-scratch one and the plan's units the units its key names;
    every fingerprint equals the from-scratch key of its scheduler, and
    a run whose hook declines every epoch equals a plain run exactly."""
    sim = _guarded_sim(scheme, kind, record_ops)
    fingerprints = _guard_fingerprints(sim)
    offers = []

    def offer(plan_key, units):
        _assert_unit_codes(sim)
        _assert_rank_cache(sim)
        _assert_plan_units(sim, plan_key, units)
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


def _three_tenant_sim(scheduler, kind, priorities, fast_path):
    tenants = []
    for idx, ((model, batch), priority) in enumerate(
        zip(_PMT_MODELS, priorities)
    ):
        graph = build_trace(model, batch, core=CORE).compiled(
            scheme_isa(scheduler.name)
        )
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
    return Simulator(CORE, scheduler, tenants,
                     horizon_cycles=horizon, fast_path=fast_path)


def _three_tenant_pmt_sim(quantum, kind, priorities, fast_path):
    return _three_tenant_sim(
        PmtScheduler(quantum_cycles=quantum), kind, priorities, fast_path
    )


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


@pytest.mark.parametrize("priorities", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5)])
@pytest.mark.parametrize("kind", ["closed", "open"])
def test_v10_three_tenant_picks_bit_identical(kind, priorities):
    """With three tenants the least-served pick chooses between two
    waiting tenants, whose READY ME operators the key reduces to their
    engine counts; every replayed pick must run the operator a fresh
    decision would."""
    runs = {}
    for fast in (True, False):
        sim = _three_tenant_sim(V10Scheduler(), kind, priorities, fast)
        runs[fast] = _stats_snapshot(sim.run())
    assert runs[True] == runs[False]


# ----------------------------------------------------------------------
# Keys name only what the plan reads
# ----------------------------------------------------------------------
def _vliw_me(owner, tpl_id, engines, running=False):
    """A VLIW ME operator whose template is ``tpl_id``; its rates differ
    with the template, as two operators' rates do."""
    from repro.sim.scheduler_base import ExecUnit, UnitKind, UnitState

    return ExecUnit(
        kind=UnitKind.VLIW_ME, owner=owner, op_index=tpl_id,
        op_name=f"op{tpl_id}", request_id=0, me_engines_needed=engines,
        remaining_me=50_000.0, remaining_ve=1_000.0,
        ve_rate=0.01 * tpl_id, hbm_rate=0.5 * tpl_id, tpl_id=tpl_id,
        state=UnitState.RUNNING if running else UnitState.READY,
        granted_me=engines if running else 0,
    )


def _waiting_key(scheduler, waiting):
    """The key of a state in which tenant 0 runs a 2-ME operator and
    tenants 1 and 2 wait, tenant 2 with the operator ``waiting``."""
    sim = _three_tenant_sim(scheduler, "closed", (1.0, 1.0, 1.0), True)
    units = [_vliw_me(0, 1, 2, running=True), _vliw_me(1, 2, 1), waiting]
    for tenant, unit in zip(sim.tenants, units):
        tenant.active_units = [unit]
    if isinstance(scheduler, PmtScheduler):
        scheduler._current = 0
        scheduler._quantum_end = float("inf")
    key, plan_units = scheduler.state_fingerprint(sim)
    return key, plan_units


def test_keys_leave_out_a_waiting_tenants_operator():
    """Between PMT switches a waiting tenant is only its flags, so two
    states that differ in its operator share one key (and one plan over
    the owner's units); V10 reads a waiting VLIW ME operator only for
    its engine count, so they share one V10 key when the counts match
    and not otherwise."""
    pmt = [_waiting_key(PmtScheduler(), _vliw_me(2, tpl, engines))
           for tpl, engines in ((3, 2), (4, 2), (5, 4))]
    assert all(len(key) == 2 for key, _units in pmt)
    assert pmt[0][0] == pmt[1][0] == pmt[2][0]
    assert all(units[0].owner == 0 and len(units) == 1 for _key, units in pmt)

    same = _waiting_key(V10Scheduler(), _vliw_me(2, 3, 2))[0]
    other_template = _waiting_key(V10Scheduler(), _vliw_me(2, 4, 2))[0]
    other_count = _waiting_key(V10Scheduler(), _vliw_me(2, 5, 4))[0]
    assert same[1:] == (None, None)  # no deficit, and an operator runs
    assert same == other_template
    assert same != other_count
