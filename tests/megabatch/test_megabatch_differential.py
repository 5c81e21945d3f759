"""Differential tests: the mega-batch engine must be bit-identical to
stepping each simulator alone.

Every test builds the *same* simulator configurations twice -- once run
individually through ``Simulator.run()`` (itself already differentially
tested against ``fast_path=False``) and once run through
``MegaBatchEngine`` -- and compares every observable exactly: stats
integrals, counters, per-request latencies, queueing delays, op
records.  No tolerance anywhere: the batch engine only replays memoised
epochs the scalar engine planned, so any drift is a bug.

The engine must be order-insensitive (a lane's result does not
depend on its position or its neighbours), size-insensitive (a batch
of one, a batch that is mostly one scheme plus a straggler, a 64-lane
batch), and mix-insensitive (open-loop and closed-loop lanes of
several schemes in one batch).

``run_simulators`` is the driver of every library simulation, so the
routing tests below pin who steps what: a lone chainable simulation
enters the chain path, lanes that can never bind to a chain node run
through ``Simulator.run()`` without a promotion hook, and every
simulation steps in exactly one epoch frame, however often its lane
leaves array mode.

Disabling a node's entry epoch (the precomputed epoch after a hop that
carries nothing) keeps every output the same, so the entry tests pin it
directly: it carries most epochs where hosts hold one tenant, an
arrival or a horizon that cuts it falls back bit-identically, and every
stored entry equals the general epoch from the node's base work.
"""

import json
import math

import pytest

from repro.api.registries import make_scheduler, scheme_isa
from repro.config import NpuCoreConfig, spawn_rng
import repro.megabatch.engine as mb
from repro.megabatch import MEGABATCH_ENV, MegaBatchEngine, megabatch_default
from repro.serving.server import ALL_SCHEMES, SCHEME_TEMPORAL
from repro.sim.engine import FAST_PATH_ENV, MIN_DELTA, Simulator, Tenant
from repro.sim.scheduler_base import creation_rank_perm
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


def _open_loop_tenants(scheme, duration_cycles, seed=33, rate=1.0 / 120_000.0):
    isa = scheme_isa(scheme)
    tenants = []
    for idx, (model, batch) in enumerate([("MNIST", 8), ("DLRM", 8)]):
        trace = build_trace(model, batch, core=CORE)
        arrivals = PoissonProcess(rate).generate(
            duration_cycles, spawn_rng(seed, scheme, model, idx)
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


HORIZON = 1_000_000.0


def _make_sim(scheme, kind, seed=33, record_ops=False):
    """One simulator; ``kind`` picks closed- or open-loop tenants."""
    if kind == "closed":
        return Simulator(
            CORE,
            make_scheduler(scheme),
            _closed_loop_tenants(scheme),
            record_ops=record_ops,
        )
    return Simulator(
        CORE,
        make_scheduler(scheme),
        _open_loop_tenants(scheme, HORIZON, seed=seed),
        horizon_cycles=HORIZON,
        record_ops=record_ops,
    )


def _snapshot(result):
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


def _assert_rank_caches(sims):
    """Each simulator's cached creation-rank permutation matches its
    active units, unless a tenant's replaced units are still to be
    noticed by the frame (which then clears the cache)."""
    for sim in sims:
        if sim._rank_perm is None or any(
            t._units_mutated for t in sim.tenants
        ):
            continue
        units = [u for t in sim.tenants for u in t.active_units]
        assert sim._rank_perm == creation_rank_perm(units)


def _assert_batch_matches_scalar(specs):
    """Build each spec twice; batch run must equal per-sim runs exactly.

    ``specs`` is a list of ``(scheme, kind, seed, record_ops)`` tuples;
    the scalar reference preserves list order, so this also checks the
    engine returns results in input order.  Every time a lane leaves
    array mode, every lane's rank cache is checked against a
    from-scratch permutation too: a stale one files plans in the shared
    memo under the wrong fingerprint, which this batch's outputs need
    not show.
    """
    scalar = [_snapshot(_make_sim(*spec).run()) for spec in specs]
    sims = [_make_sim(*spec) for spec in specs]
    engine = MegaBatchEngine(sims)
    real = mb._materialize

    def checked(lane):
        units = real(lane)
        _assert_rank_caches(sims)
        return units

    mb._materialize = checked
    try:
        batched = [_snapshot(result) for result in engine.run()]
    finally:
        mb._materialize = real
    assert batched == scalar
    return engine


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("batch_size", [1, 7])
def test_homogeneous_batch_bit_identical(scheme, batch_size):
    """N divergent-seed open-loop lanes of one scheme, any batch size."""
    specs = [(scheme, "open", 100 + i, False) for i in range(batch_size)]
    _assert_batch_matches_scalar(specs)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_closed_loop_batch_bit_identical(scheme):
    specs = [(scheme, "closed", 33, False) for _ in range(5)]
    _assert_batch_matches_scalar(specs)


def test_large_batch_bit_identical():
    """64 lanes -- the production chunk size -- across divergent seeds."""
    specs = [("neu10", "open", i, False) for i in range(64)]
    engine = _assert_batch_matches_scalar(specs)
    # The whole point of the engine: steady-state epochs replay through
    # chain nodes, not the scalar planner.
    assert engine.group_stats["array_epochs"] > 0


def test_mixed_schemes_and_kinds_in_one_batch():
    """Open- and closed-loop lanes of different schemes in one batch."""
    specs = [
        ("neu10", "open", 1, False),
        ("v10", "closed", 33, False),
        ("neu10", "closed", 33, False),
        ("neu10-nh", "open", 2, False),
        ("pmt", "closed", 33, False),
        ("neu10", "open", 3, False),
        ("neu10-temporal", "closed", 33, False),
    ]
    _assert_batch_matches_scalar(specs)


def test_lane_order_does_not_change_any_lane():
    """Reversing and interleaving the batch permutes results exactly."""
    specs = [("neu10", "open", i, False) for i in range(6)]
    specs += [("v10", "open", i, False) for i in range(3)]
    base = {
        spec: _snapshot(res)
        for spec, res in zip(
            specs, MegaBatchEngine([_make_sim(*s) for s in specs]).run()
        )
    }
    for order in (list(reversed(specs)), specs[1::2] + specs[0::2]):
        results = MegaBatchEngine([_make_sim(*s) for s in order]).run()
        for spec, res in zip(order, results):
            assert _snapshot(res) == base[spec]


def test_record_ops_lanes_bit_identical():
    """Serving-style lanes (record_ops=True) never enter the chain path:
    the engine hands each to ``Simulator.run()``, in input order."""
    specs = [("neu10", "closed", 33, True) for _ in range(3)]
    specs += [("neu10", "open", 5, True)]
    _assert_batch_matches_scalar(specs)


def test_empty_and_single_batches():
    from repro.megabatch import run_simulators

    assert run_simulators([]) == []
    solo = _snapshot(run_simulators([_make_sim("neu10", "open", 9, False)])[0])
    assert solo == _snapshot(_make_sim("neu10", "open", 9, False).run())


# ----------------------------------------------------------------------
# Epoch accounting: a lane's epochs are Simulator.run()'s epochs
# ----------------------------------------------------------------------
#: Chainable lanes: open loop, closed loop (which takes object-mode
#: epochs after its preemptions) and neu10-nh.
EPOCH_LANES = [("neu10", "open"), ("neu10", "closed"), ("neu10-nh", "open")]


def _scalar_epochs(scheme, kind):
    """Epochs ``Simulator.run()`` steps for one lane: the count its
    livelock guard keeps."""
    sim = _make_sim(scheme, kind)
    sim.run()
    return sim.epochs


@pytest.mark.parametrize("scheme,kind", EPOCH_LANES)
def test_group_stats_count_every_epoch_once(scheme, kind):
    """For a batch of one, array plus object epochs is the epoch count
    of a separately run scalar simulator: perfbench's
    ``megabatch.array_epoch_share`` divides by it.  ``object_epochs`` is
    the lane's own ``Simulator.epochs`` less its array epochs, so only
    the separate run shows that a burst counts each epoch once."""
    epochs = _scalar_epochs(scheme, kind)
    engine = MegaBatchEngine([_make_sim(scheme, kind)])
    engine.run()
    stats = engine.group_stats
    assert stats["array_epochs"] > 0
    assert stats["array_epochs"] + stats["object_epochs"] == epochs


@pytest.mark.parametrize("scheme,kind", EPOCH_LANES)
def test_livelock_guard_trips_where_simulator_run_does(scheme, kind):
    """``max_epochs`` bounds a lane's epochs exactly as in
    ``Simulator.run()``: a lane that needs N epochs completes at
    ``max_epochs=N`` and raises the same error at N-1."""
    from repro.errors import SimulationError

    epochs = _scalar_epochs(scheme, kind)
    sim = _make_sim(scheme, kind)
    sim.max_epochs = epochs
    (result,) = MegaBatchEngine([sim]).run()
    assert _snapshot(result) == _snapshot(_make_sim(scheme, kind).run())

    errors = []
    for run in (Simulator.run, lambda s: MegaBatchEngine([s]).run()):
        sim = _make_sim(scheme, kind)
        sim.max_epochs = epochs - 1
        with pytest.raises(SimulationError, match="epochs") as err:
            run(sim)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert f"exceeded {epochs - 1} epochs" in errors[0]


# ----------------------------------------------------------------------
# Scenarios for the end-to-end tests
# ----------------------------------------------------------------------
def _open_loop_scenario():
    from repro.api import Scenario, ScenarioTenant

    return Scenario(
        name="mb-open-loop",
        kind="open_loop",
        scheme="neu10",
        tenants=(
            ScenarioTenant(model="MNIST", batch=8),
            ScenarioTenant(model="DLRM", batch=8),
        ),
        arrival="poisson",
        load=0.8,
        duration_s=0.0015,
        seed=11,
    )


def _serving_scenario():
    from repro.api import Scenario, ScenarioTenant

    return Scenario(
        name="mb-serving",
        kind="serving",
        scheme="neu10",
        tenants=(
            ScenarioTenant(model="MNIST", batch=8),
            ScenarioTenant(model="DLRM", batch=8),
        ),
        target_requests=4,
    )


# ----------------------------------------------------------------------
# Routing: who steps a simulation
# ----------------------------------------------------------------------
@pytest.fixture
def engine_spy(monkeypatch):
    """Record every engine run and every ``Simulator.run()`` call, with
    a promotion hook (``chained``) or without (``scalar``), with both
    toggles unset."""
    monkeypatch.delenv(MEGABATCH_ENV, raising=False)
    monkeypatch.delenv(FAST_PATH_ENV, raising=False)
    seen = {"engines": [], "scalar": [], "chained": []}
    engine_run = MegaBatchEngine.run
    sim_run = Simulator.run

    def spy_engine_run(self):
        seen["engines"].append(self)
        return engine_run(self)

    def spy_sim_run(self, promote=None):
        seen["scalar" if promote is None else "chained"].append(id(self))
        return sim_run(self, promote)

    monkeypatch.setattr(MegaBatchEngine, "run", spy_engine_run)
    monkeypatch.setattr(Simulator, "run", spy_sim_run)
    return seen


def _run_one_via_run_simulators():
    from repro.megabatch import run_simulators

    run_simulators([_make_sim("neu10", "open", 9, False)])


def _run_one_via_run_open_loop():
    from repro.traffic.openloop import (
        OpenLoopConfig,
        TrafficTenantSpec,
        run_open_loop,
    )

    run_open_loop(
        [TrafficTenantSpec("MNIST", 8), TrafficTenantSpec("DLRM", 8)],
        "neu10",
        OpenLoopConfig(duration_s=0.0015, seed=11),
    )


def _run_one_via_run_scenario():
    from repro.api import run_scenario

    run_scenario(_open_loop_scenario())


@pytest.mark.parametrize("entry", [
    _run_one_via_run_simulators,
    _run_one_via_run_open_loop,
    _run_one_via_run_scenario,
])
def test_single_chainable_run_enters_the_chain_path(engine_spy, entry):
    """A lone fast-path neu10 simulation is a batch of one: the engine
    steps it, and its steady-state epochs replay through chain nodes."""
    entry()
    assert engine_spy["scalar"] == []
    assert engine_spy["chained"]
    assert engine_spy["engines"]
    assert max(e.group_stats["array_epochs"] for e in engine_spy["engines"]) > 0


def test_unbindable_lanes_run_through_simulator_run(engine_spy):
    """Lanes that can never bind to a chain node -- op recording, the
    reference path, a scheduler without a memo context -- run through
    ``Simulator.run()`` without a promotion hook; a chainable lane in
    the same batch still gets one, and results keep input order."""
    from repro.megabatch import run_simulators

    builders = [
        lambda: _make_sim("neu10", "closed", record_ops=True),
        lambda: Simulator(
            CORE, make_scheduler("neu10"), _closed_loop_tenants("neu10"),
            record_ops=False, fast_path=False,
        ),
        lambda: _make_sim("pmt", "open", 5, False),
        lambda: _make_sim("neu10", "open", 6, False),
    ]
    sims = [build() for build in builders]
    results = run_simulators(sims)
    unbindable = [id(sim) for sim in sims[:3]]
    assert engine_spy["scalar"] == unbindable
    assert engine_spy["chained"] == [id(sims[3])]
    assert engine_spy["engines"][0].group_stats["array_epochs"] > 0
    reference = [_snapshot(build().run()) for build in builders]
    assert [_snapshot(r) for r in results] == reference


def test_each_simulation_enters_the_epoch_frame_once(monkeypatch):
    """Under ``run_simulators`` every simulator steps in one epoch
    frame: a lane that leaves array mode -- its successor cold in the
    plan memo, or an arrival starting a request onto a cold state --
    hands the frame the units to retire and the frame steps on, instead
    of being re-entered per object epoch.  Cold memos make both exits
    happen; the results are the lane-by-lane ones."""
    import repro.sim.engine as engine_mod
    from repro.megabatch import run_simulators

    monkeypatch.setattr(engine_mod, "_PLAN_MEMOS", {})
    monkeypatch.setattr(mb, "_CHAIN_SCOPES", {})
    specs = [("neu10", "open", seed, False) for seed in (1, 2)]
    specs += [("neu10", "closed", 33, False), ("neu10-nh", "open", 3, False)]
    specs += [("pmt", "open", 4, False)]
    frames = []
    exits = []
    step = Simulator._step_epochs
    burst = mb._burst

    def spy_step(self, *args, **kwargs):
        frames.append(id(self))
        return step(self, *args, **kwargs)

    def spy_burst(lane):
        out = burst(lane)
        exits.append(out)
        return out

    monkeypatch.setattr(Simulator, "_step_epochs", spy_step)
    monkeypatch.setattr(mb, "_burst", spy_burst)
    sims = [_make_sim(*spec) for spec in specs]
    results = run_simulators(sims)
    assert frames == [id(sim) for sim in sims]
    assert {"cold", "materialize"} <= {stop for stop, _mask in exits}
    monkeypatch.setenv(MEGABATCH_ENV, "0")
    reference = run_simulators([_make_sim(*spec) for spec in specs])
    assert [_snapshot(r) for r in results] == [_snapshot(r) for r in reference]


# ----------------------------------------------------------------------
# End-to-end: the fan-out call sites with the toggle flipped
# ----------------------------------------------------------------------
def _run_result_dicts(results):
    return [json.loads(json.dumps(r.to_dict(), sort_keys=True))
            for r in results]


def _assert_sweep_on_off_identical(monkeypatch, base, param, values):
    """The sweep and a plain ``run_scenario`` per point, each with the
    engine on and off (lanes stepped by ``Simulator.run()``), all agree
    exactly once the sweep's executor stamp is checked and removed."""
    from repro.api import run_scenario, sweep_scenario, sweep_variants

    sides = []
    for flag in ("1", "0"):
        monkeypatch.setenv(MEGABATCH_ENV, flag)
        swept = _run_result_dicts(sweep_scenario(
            base, param=param, values=values, max_workers=1
        ))
        for point in swept:
            assert point["provenance"].pop("executor") == {"backend": "pool"}
        sides.append(swept)
        sides.append(_run_result_dicts(
            run_scenario(v) for v in sweep_variants(base, param, values)
        ))
    assert sides[0] == sides[1] == sides[2] == sides[3]


def test_megabatch_default_env_gate(monkeypatch):
    monkeypatch.delenv(MEGABATCH_ENV, raising=False)
    assert megabatch_default() is True
    for off in ("0", "false", "off"):
        monkeypatch.setenv(MEGABATCH_ENV, off)
        assert megabatch_default() is False
    monkeypatch.setenv(MEGABATCH_ENV, "1")
    assert megabatch_default() is True


def test_sweep_scenario_on_off_identical(monkeypatch):
    _assert_sweep_on_off_identical(
        monkeypatch, _open_loop_scenario(), "seed", list(range(9))
    )


def test_sweep_scenario_serving_kind_on_off_identical(monkeypatch):
    _assert_sweep_on_off_identical(
        monkeypatch, _serving_scenario(), "target_requests", [3, 4, 5]
    )


def test_cluster_scenario_on_off_identical(monkeypatch):
    from repro.api import Scenario, ScenarioChurn, run_scenario

    end_s = 0.002
    scenario = Scenario(
        name="mb-cluster",
        kind="cluster",
        scheme="neu10",
        arrival="poisson",
        load=0.8,
        duration_s=end_s,
        seed=11,
        hosts=2,
        churn=(
            ScenarioChurn(0.0, "arrive", "a", model="MNIST", batch=8),
            ScenarioChurn(0.0, "arrive", "b", model="DLRM", batch=8),
            ScenarioChurn(end_s / 2, "arrive", "c", model="MNIST", batch=8),
            ScenarioChurn(end_s * 0.75, "depart", "b"),
        ),
    )
    monkeypatch.setenv(MEGABATCH_ENV, "1")
    on = run_scenario(scenario)
    monkeypatch.setenv(MEGABATCH_ENV, "0")
    off = run_scenario(scenario)
    assert _run_result_dicts([on]) == _run_result_dicts([off])


def _single_host_cluster_scenario():
    from repro.api import Scenario, ScenarioChurn

    end_s = 0.002
    return Scenario(
        name="mb-cluster-1host",
        kind="cluster",
        scheme="neu10",
        arrival="poisson",
        load=0.8,
        duration_s=end_s,
        seed=11,
        hosts=1,
        churn=(
            ScenarioChurn(0.0, "arrive", "a", model="MNIST", batch=8),
            ScenarioChurn(end_s / 2, "arrive", "b", model="DLRM", batch=8),
            ScenarioChurn(end_s * 0.75, "depart", "a"),
        ),
    )


@pytest.mark.parametrize("make_scenario", [
    _open_loop_scenario, _serving_scenario, _single_host_cluster_scenario,
])
def test_run_scenario_identical_across_toggles(monkeypatch, make_scenario):
    """A single run gives the same RunResult through the chain engine,
    under ``REPRO_SIM_MEGABATCH=0`` and on the unmemoised reference
    path.  Provenance records ``fast_path``, so that one field differs
    on the reference side and is compared on its own."""
    from repro.api import run_scenario

    sides = []
    for toggles in ({}, {MEGABATCH_ENV: "0"}, {FAST_PATH_ENV: "0"}):
        monkeypatch.delenv(MEGABATCH_ENV, raising=False)
        monkeypatch.delenv(FAST_PATH_ENV, raising=False)
        for name, value in toggles.items():
            monkeypatch.setenv(name, value)
        sides.append(_run_result_dicts([run_scenario(make_scenario())])[0])
    fast_path = [side["provenance"].pop("fast_path") for side in sides]
    assert fast_path == [True, True, False]
    assert sides[0] == sides[1] == sides[2]


# ----------------------------------------------------------------------
# Entry epochs: a hop that carries nothing steps the node's entry
# ----------------------------------------------------------------------
def _one_tenant_per_host_scenario():
    """Two hosts, one tenant each: like serve_session, where most hops
    retire a lone tenant's group and spawn the next with nothing
    carried."""
    from repro.api import Scenario, ScenarioChurn

    return Scenario(
        name="mb-entry",
        kind="cluster",
        scheme="neu10",
        arrival="poisson",
        load=0.8,
        duration_s=0.002,
        seed=11,
        hosts=2,
        churn=(
            ScenarioChurn(0.0, "arrive", "a", model="MNIST", batch=8),
            ScenarioChurn(0.0, "arrive", "b", model="DLRM", batch=8),
        ),
    )


def test_entry_epochs_carry_a_one_tenant_per_host_cluster(
    engine_spy, monkeypatch
):
    """The entry path fires: in a cluster whose hosts hold one tenant
    each, at least half of the array epochs are entry epochs, and the
    result is the lane-by-lane one."""
    from repro.api import run_scenario

    on = run_scenario(_one_tenant_per_host_scenario())
    stats = [e.group_stats for e in engine_spy["engines"]]
    array = sum(s["array_epochs"] for s in stats)
    entry = sum(s["entry_epochs"] for s in stats)
    assert array > 0 and 2 * entry >= array
    monkeypatch.setenv(MEGABATCH_ENV, "0")
    off = run_scenario(_one_tenant_per_host_scenario())
    assert _run_result_dicts([on]) == _run_result_dicts([off])


def _lane(arrivals, horizon=math.inf):
    """One neu10 core serving MNIST and DLRM open loop, each fed its
    own arrival times (cycles)."""
    isa = scheme_isa("neu10")
    tenants = [
        Tenant(
            tenant_id=idx,
            name=model,
            graph=build_trace(model, 8, core=CORE).compiled(isa),
            alloc_mes=2,
            alloc_ves=2,
            target_requests=None,
            arrivals=list(times),
        )
        for idx, (model, times) in enumerate(zip(("MNIST", "DLRM"), arrivals))
    ]
    return Simulator(
        CORE, make_scheduler("neu10"), tenants,
        horizon_cycles=horizon, record_ops=False,
    )


def _entry_starts(sim):
    """``(clock, entry)`` of every epoch of ``sim``'s scalar run that
    starts on a chain node with an entry and holds that node's base work
    (each slot's template work): where a lane that hopped there with
    nothing carried steps the entry.  The run fills the plan memo, so a
    lane that repeats its history finds every transition warm."""
    scope = mb._scope_for(sim)
    starts = []

    def offer(plan_key, units):
        node = scope.node(plan_key, mb._cursors_of(sim))
        if node is not None and node.entry is not None and all(
            u.remaining_me == tpl[3] and u.remaining_ve == tpl[4]
            for u, tpl in zip(units, node.slot_templates)
        ):
            starts.append((sim.now, node.entry))
        return None  # the scalar frame steps every epoch itself

    sim.run(offer)
    return starts


def _mnist_entries():
    """``(clock, slot-only delta)`` of the entry epochs of MNIST's only
    request while DLRM idles, past the first epoch, which promotes the
    lane and so steps generally: the rest a hop reaches in the burst."""
    starts = _entry_starts(_lane([[0.0], []]))
    assert len(starts) > 2 and starts[0][0] == 0.0
    return [(now, entry[0]) for now, entry in starts[1:]]


def _exactly_after(now, gap):
    """A clock value ``t`` with ``t - now == gap`` exactly, or None when
    floats hold no such value."""
    t = now + gap
    while t - now < gap:
        t = math.nextafter(t, math.inf)
    while t - now > gap:
        t = math.nextafter(t, -math.inf)
    return t if t - now == gap else None


@pytest.mark.parametrize(
    "case", ["arrival-inside", "arrival-at-delta", "horizon-inside"]
)
def test_hand_built_entry_epoch_cuts(case):
    """A lane on an entry epoch matches ``Simulator.run()`` bit for bit
    when an arrival lands strictly inside it (the epoch is cut there),
    exactly at its delta (the scan's strict ``<`` keeps the entry), and
    when the horizon cuts it.  The arrival is DLRM's, onto an idle
    tenant, so an entry stepped past it would start that request late."""
    entries = _mnist_entries()
    now, best = entries[0]
    arrivals, horizon = [[0.0], []], math.inf
    if case == "arrival-inside":
        arrivals[1] = [now + best * 0.37]
    elif case == "arrival-at-delta":
        ties = [_exactly_after(*entry) for entry in entries]
        arrivals[1] = [next(t for t in ties if t is not None)]
    else:
        now, best = entries[-1]  # so that entries before it step
        horizon = now + best * 0.37
    reference = _snapshot(_lane(arrivals, horizon).run())
    engine = MegaBatchEngine([_lane(arrivals, horizon)])
    (result,) = engine.run()
    assert _snapshot(result) == reference
    assert engine.group_stats["entry_epochs"] > 0
    if case != "horizon-inside":
        assert reference["tenants"][1][2] == 1  # DLRM served its request


def _general_epoch(node, monkeypatch):
    """One general burst epoch from ``node``'s base work: a lane
    promoted there with a copy of every slot's template work, no
    arrivals and no horizon, whose hop is cold, so the burst exits after
    that epoch with its results in place and returns its winners."""
    from collections import deque
    from types import SimpleNamespace

    from repro.sim.stats import SimStats

    tenants = [
        SimpleNamespace(
            pending_arrivals=deque(), queued_requests=deque(),
            closed_loop=closed,
        )
        for closed in node.scope.closed
    ]
    sim = SimpleNamespace(
        stats=SimStats(1, 1, record_assignment=False, record_ops=False),
        tenants=tenants, horizon=math.inf, max_epochs=10, now=0.0,
        epochs=1,
    )
    lane = mb._Lane(sim, node.scope)
    lane.node = node
    lane.rem_me = [tpl[3] for tpl in node.slot_templates]
    lane.rem_ve = [tpl[4] for tpl in node.slot_templates]
    monkeypatch.setattr(node, "hops", {})
    monkeypatch.setattr(mb._ChainNode, "transition", lambda *args: None)
    stop, mask = mb._burst(lane)
    monkeypatch.undo()
    assert stop == "cold" and sim.epochs == 1 and lane.array_epochs == 1
    return sim, lane, mask


def test_every_stored_entry_is_one_general_epoch(monkeypatch):
    """For every node a serve_session-like run caches, the stored entry
    equals the general burst epoch stepped from the node's base work:
    its delta, winners, work left and busy products, bit for bit."""
    from repro.api import run_scenario

    monkeypatch.setattr(mb, "_CHAIN_SCOPES", {})
    run_scenario(_one_tenant_per_host_scenario())
    nodes = [
        node
        for scope in mb._CHAIN_SCOPES.values()
        for node in scope.nodes.values()
        if node is not None and node.entry is not None
    ]
    assert len(nodes) > 10
    with monkeypatch.context() as patch:
        for node in nodes:
            best, delta, mask, me_after, ve_after, me_acc, ve_acc = node.entry
            sim, lane, general_mask = _general_epoch(node, patch)
            assert sim.now == delta == max(best, MIN_DELTA)
            assert general_mask == mask
            assert lane.rem_me == me_after and lane.rem_ve == ve_after
            stats = sim.stats
            assert dict(stats.me_busy_per_tenant) == dict(me_acc)
            assert dict(stats.ve_busy_per_tenant) == dict(ve_acc)
            assert stats.total_cycles == delta
