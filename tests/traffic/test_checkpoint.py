"""Snapshot/restore and checkpointed-run bit-identity.

The acceptance bar for the steppable core: a cluster run snapshotted
at any segment boundary -- in this process or restored in a *fresh*
one -- must finish bit-identical to the uninterrupted run, for
adversarial scenarios with autoscalers, faults, and virtualization all
enabled at once.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path

import pytest

from repro.api import (
    ScenarioAutoscaler,
    load_scenario,
    run_scenario,
)
from repro.api.result import canonical_digest
from repro.api.runner import cluster_inputs, run_cluster_checkpointed
from repro.cluster.host import Host
from repro.cluster.virt import FaultSpec, VirtualizationSpec
from repro.errors import CheckpointError, ConfigError, ValidationError
from repro.exec import ExecSpec
from repro.traffic.cluster_sim import ClusterSimulation, run_cluster_traffic
from repro.traffic.stepper import ClusterCheckpoint

REPO_ROOT = Path(__file__).resolve().parents[2]
ADVERSARIAL = REPO_ROOT / "examples" / "scenarios" / "adversarial"
SHOWCASE = REPO_ROOT / "examples" / "scenarios" / "showcase.yaml"


def _adversarial(name: str):
    """Load an adversarial scenario, hardened to exercise *everything*.

    The round-trip contract must hold with autoscaler + faults + virt
    all live, so scenarios missing a block get one grafted on.
    """
    scenario = load_scenario(ADVERSARIAL / f"{name}.yaml")
    assert scenario.faults, name
    replacements = {}
    if scenario.autoscaler is None:
        replacements["autoscaler"] = ScenarioAutoscaler(
            policy="threshold", interval_s=scenario.duration_s / 3
        )
    if scenario.virtualization is None:
        replacements["virtualization"] = VirtualizationSpec(
            num_vfs=4, hypercall_cost_s=0.00002
        )
    if replacements:
        scenario = scenario.replaced(**replacements)
    return scenario


SCENARIOS = [
    "burst_storm",
    "crash_mid_segment",
    "multi_region_diurnal",
    "priority_tiers",
]


def _result_digest(result) -> str:
    import dataclasses

    return canonical_digest(dataclasses.asdict(result))


# ----------------------------------------------------------------------
# In-process round-trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SCENARIOS)
def test_restore_at_every_boundary_is_bit_identical(name):
    scenario = _adversarial(name)
    events, cfg = cluster_inputs(scenario)
    reference = _result_digest(run_cluster_traffic(events, cfg))

    probe = ClusterSimulation(*cluster_inputs(scenario))
    total = probe.total_segments
    assert total >= 3, "adversarial scenarios must have several segments"
    for cut in range(1, total):
        sim = ClusterSimulation(*cluster_inputs(scenario))
        while sim.segments_completed < cut:
            sim.step_segment()
        checkpoint = sim.snapshot()
        # The snapshot itself survives serialisation.
        checkpoint = ClusterCheckpoint.from_dict(checkpoint.to_dict())
        restored = ClusterSimulation.restore(
            checkpoint, *cluster_inputs(scenario)
        )
        assert restored.segments_completed == cut
        assert _result_digest(restored.run()) == reference, (
            f"{name}: restore at segment {cut}/{total} diverged"
        )


def test_snapshot_does_not_perturb_the_donor_run():
    scenario = _adversarial("multi_region_diurnal")
    events, cfg = cluster_inputs(scenario)
    reference = _result_digest(run_cluster_traffic(events, cfg))
    sim = ClusterSimulation(*cluster_inputs(scenario))
    while not sim.done:
        sim.snapshot()
        sim.step_segment()
    assert _result_digest(sim.result()) == reference


# ----------------------------------------------------------------------
# Cross-process round-trips (spawn: nothing may hide in process state)
# ----------------------------------------------------------------------
def _finish_in_child(scenario_dict, checkpoint_dict):
    from repro.api.scenario import Scenario

    scenario = Scenario.from_dict(scenario_dict)
    sim = ClusterSimulation.restore(
        ClusterCheckpoint.from_dict(checkpoint_dict),
        *cluster_inputs(scenario),
    )
    return _result_digest(sim.run())


@pytest.mark.parametrize(
    "name", ["burst_storm", "crash_mid_segment", "multi_region_diurnal"]
)
def test_restore_in_fresh_process_is_bit_identical(name):
    scenario = _adversarial(name)
    reference = _result_digest(
        run_cluster_traffic(*cluster_inputs(scenario))
    )
    sim = ClusterSimulation(*cluster_inputs(scenario))
    cut = sim.total_segments // 2
    while sim.segments_completed < cut:
        sim.step_segment()
    checkpoint = sim.snapshot().to_dict()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        digest = pool.apply(
            _finish_in_child, (scenario.to_dict(), checkpoint)
        )
    assert digest == reference


# ----------------------------------------------------------------------
# Several live simulations in one process
# ----------------------------------------------------------------------
# Every id a run issues belongs to its own fleet, so neither a second
# live run nor a restore can disturb another simulation's ids.  The
# checks compare results with solo runs, never error text: ids issued
# by a shared process-wide stream would depend on what ran before.
def test_interleaved_simulations_each_match_their_solo_run():
    churn = load_scenario(SHOWCASE, "cluster-churn-demo")
    autoscale = load_scenario(SHOWCASE, "cluster-autoscale-demo")
    churn_ref = _result_digest(run_cluster_traffic(*cluster_inputs(churn)))
    autoscale_ref = _result_digest(
        run_cluster_traffic(*cluster_inputs(autoscale))
    )
    first = ClusterSimulation(*cluster_inputs(churn))
    first.step_segment()
    checkpoint = first.snapshot()
    second = ClusterSimulation(*cluster_inputs(autoscale))
    second.step_segment()
    restored = ClusterSimulation.restore(checkpoint, *cluster_inputs(churn))
    assert _result_digest(second.run()) == autoscale_ref
    assert _result_digest(restored.run()) == churn_ref


@pytest.mark.parametrize(
    "load",
    [
        lambda: load_scenario(SHOWCASE, "cluster-autoscale-demo"),
        lambda: _adversarial("crash_mid_segment"),
    ],
    ids=["cluster-autoscale-demo", "crash_mid_segment"],
)
def test_fork_and_donor_both_match_the_uninterrupted_run(load):
    scenario = load()
    reference = _result_digest(
        run_cluster_traffic(*cluster_inputs(scenario))
    )
    donor = ClusterSimulation(*cluster_inputs(scenario))
    checkpoint = donor.snapshot()
    donor.step_segment()
    fork = ClusterSimulation.restore(checkpoint, *cluster_inputs(scenario))
    assert fork.segments_completed == 0
    assert _result_digest(donor.run()) == reference
    assert _result_digest(fork.run()) == reference


def test_checkpoint_state_holds_no_id_block():
    checkpoint = _mid_run_checkpoint(_adversarial("burst_storm"))
    assert "ids" not in checkpoint.state()


# ----------------------------------------------------------------------
# Restore rejects the wrong inputs
# ----------------------------------------------------------------------
def _mid_run_checkpoint(scenario):
    sim = ClusterSimulation(*cluster_inputs(scenario))
    sim.step_segment()
    return sim.snapshot()


def test_restore_refuses_a_different_configuration():
    checkpoint = _mid_run_checkpoint(_adversarial("burst_storm"))
    other = _adversarial("crash_mid_segment")
    with pytest.raises(CheckpointError, match="different scenario"):
        ClusterSimulation.restore(checkpoint, *cluster_inputs(other))


def test_restore_under_the_config_that_ran():
    """The run steps its own copy of the stateful autoscaler, so the
    very ``cfg`` object it ran under still matches its checkpoints."""
    scenario = load_scenario(SHOWCASE, "cluster-autoscale-demo")
    events, cfg = cluster_inputs(scenario)
    sim = ClusterSimulation(events, cfg)
    while sim.segments_completed < sim.total_segments // 2:
        sim.step_segment()
    checkpoint = sim.snapshot()
    reference = _result_digest(sim.run())
    assert sim.autoscale_events
    restored = ClusterSimulation.restore(checkpoint, events, cfg)
    assert _result_digest(restored.run()) == reference


def test_restore_ignores_the_executor():
    """The ``executor:`` block only picks a sweep's backend and is no
    part of a cluster run's configuration, so a checkpoint restores
    under any block or none."""
    scenario = _adversarial("burst_storm")
    reference = _result_digest(
        run_cluster_traffic(*cluster_inputs(scenario))
    )
    checkpoint = _mid_run_checkpoint(
        scenario.replaced(executor=ExecSpec(backend="serial"))
    )
    for executor in (ExecSpec(backend="pool"), None):
        restored = ClusterSimulation.restore(
            checkpoint, *cluster_inputs(scenario.replaced(executor=executor))
        )
        assert _result_digest(restored.run()) == reference


def test_restore_builds_no_fresh_fleet(monkeypatch):
    """The checkpoint's fleet replaces any fresh one, so a restore
    constructs no host.  The config digest still comes from the
    caller's script, while the scripts come from the checkpoint, which
    here holds an injected storm."""
    events, cfg = cluster_inputs(_adversarial("crash_mid_segment"))
    sim = ClusterSimulation(events, cfg)
    sim.step_segment()
    sim.inject_fault(FaultSpec(
        kind="burst-storm", time_s=sim.boundaries[2], duration_s=0.0004,
        factor=3.0,
    ))
    checkpoint = sim.snapshot()
    reference = _result_digest(sim.run())
    built = []
    real_init = Host.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Host, "__init__", counting_init)
    restored = ClusterSimulation.restore(checkpoint, events, cfg)
    assert built == []
    assert _result_digest(restored.run()) == reference
    ClusterSimulation(events, cfg)
    assert built, "the spy never saw a host being built"


def test_restore_refuses_tampered_payload():
    checkpoint = _mid_run_checkpoint(_adversarial("burst_storm"))
    raw = checkpoint.to_dict()
    raw["payload"] = raw["payload"][:-8] + "AAAAAAA="
    scenario = _adversarial("burst_storm")
    with pytest.raises(CheckpointError):
        ClusterSimulation.restore(
            ClusterCheckpoint.from_dict(raw), *cluster_inputs(scenario)
        )


def test_latency_logs_stay_packed():
    """``SloReport`` keeps its logs as ``array('d')`` when built,
    extended, copied and restored from a checkpoint; an earlier copy
    never sees a later extend; and a packed log digests as the list it
    holds."""
    from array import array

    from repro.sim.engine import TenantResult
    from repro.traffic.slo import build_slo_report

    def window(latencies):
        return TenantResult(
            tenant_id=0, name="t", latencies_cycles=list(latencies),
            throughput_rps=0.0, me_utilization=0.0, ve_utilization=0.0,
            blocked_fraction=0.0, completed_requests=len(latencies),
            queueing_cycles=[lat / 2 for lat in latencies],
            offered_requests=len(latencies),
        )

    def assert_packed(report):
        for log in (report.latencies_cycles, report.queueing_cycles):
            assert type(log) is array and log.typecode == "d"

    report = build_slo_report("t", "neu10", 10.0, window([4.0, 12.0]), 0.001)
    early = report.copy()
    report.extend(build_slo_report("t", "neu10", 10.0, window([8.0]), 0.001))
    for held in (report, early, report.copy()):
        assert_packed(held)
    assert list(report.latencies_cycles) == [4.0, 12.0, 8.0]
    assert list(report.queueing_cycles) == [2.0, 6.0, 4.0]
    assert list(early.latencies_cycles) == [4.0, 12.0]
    assert list(early.queueing_cycles) == [2.0, 6.0]
    assert (report.attained, early.attained) == (2, 1)

    scenario = _adversarial("burst_storm")
    donor = ClusterSimulation(*cluster_inputs(scenario))
    donor.advance(scenario.duration_s / 2)
    checkpoint = ClusterCheckpoint.from_dict(donor.snapshot().to_dict())
    restored = ClusterSimulation.restore(
        checkpoint, *cluster_inputs(scenario)
    )
    assert restored.reports
    for name, held in restored.reports.items():
        assert_packed(held)
        assert held.latencies_cycles == donor.reports[name].latencies_cycles
        assert held.queueing_cycles == donor.reports[name].queueing_cycles

    values = [1e16, 0.1, -3.0, 2.5e-7]
    assert canonical_digest({"log": array("d", values)}) == canonical_digest(
        {"log": values}
    )


def test_restore_refuses_unpicklable_configuration():
    class Rogue:
        def observe(self, obs):
            return []

    checkpoint = _mid_run_checkpoint(_adversarial("burst_storm"))
    events, cfg = cluster_inputs(_adversarial("burst_storm"))
    import dataclasses

    cfg = dataclasses.replace(cfg, autoscaler=Rogue())
    # The digest of an unpicklable config is None; restore must report
    # that, not crash formatting the mismatch message.
    with pytest.raises(CheckpointError, match="not picklable"):
        ClusterSimulation.restore(checkpoint, events, cfg)


def test_unpicklable_config_refuses_snapshot_but_still_runs():
    class Rogue:
        def observe(self, obs):
            return []

    scenario = _adversarial("burst_storm")
    events, cfg = cluster_inputs(scenario)
    import dataclasses

    cfg = dataclasses.replace(cfg, autoscaler=Rogue())
    sim = ClusterSimulation(events, cfg)
    assert sim.config_digest is None
    sim.step_segment()
    with pytest.raises(CheckpointError, match="not picklable"):
        sim.snapshot()
    sim.run()  # the simulation itself is unaffected


# ----------------------------------------------------------------------
# Journalled runs (run_cluster_checkpointed)
# ----------------------------------------------------------------------
def test_checkpointed_run_matches_plain_and_resumes(tmp_path):
    scenario = _adversarial("multi_region_diurnal")
    reference = _result_digest(
        run_cluster_traffic(*cluster_inputs(scenario))
    )
    events, cfg = cluster_inputs(scenario)
    journalled = run_cluster_checkpointed(
        events, cfg, directory=tmp_path / "ck"
    )
    assert _result_digest(journalled) == reference
    journal = (tmp_path / "ck" / "journal.jsonl").read_text()
    assert journal.count("\n") >= 3
    # Resume from the completed journal: nothing left to simulate, but
    # the result must still be bit-identical.
    resumed = run_cluster_checkpointed(
        *cluster_inputs(scenario), directory=tmp_path / "ck", resume=True
    )
    assert _result_digest(resumed) == reference


def test_resume_from_truncated_journal(tmp_path):
    """Drop the tail of the journal (simulated crash), resume, compare."""
    scenario = _adversarial("crash_mid_segment")
    reference = _result_digest(
        run_cluster_traffic(*cluster_inputs(scenario))
    )
    run_cluster_checkpointed(
        *cluster_inputs(scenario), directory=tmp_path / "ck"
    )
    journal = tmp_path / "ck" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    assert len(lines) >= 3
    journal.write_text("".join(lines[: len(lines) // 2]))
    ticks = []
    resumed = run_cluster_checkpointed(
        *cluster_inputs(scenario), directory=tmp_path / "ck", resume=True,
        on_segment=lambda done, total, obs: ticks.append((done, total, obs)),
    )
    assert _result_digest(resumed) == reference
    # The first tick reports the resume point (no observation yet).
    assert ticks[0][2] is None and ticks[0][0] > 0
    assert ticks[-1][0] == ticks[-1][1]


def test_cli_resume_refuses_a_journal_of_an_older_version(tmp_path, capsys):
    import json

    from repro.cli import main as cli_main

    argv = [
        "run", str(SHOWCASE), "--scenario", "cluster-autoscale-demo",
        "--json", "--checkpoint", str(tmp_path / "ck"),
    ]
    assert cli_main(argv) == 0
    journal = tmp_path / "ck" / "journal.jsonl"
    entries = [json.loads(line) for line in journal.read_text().splitlines()]
    for version in (1, 2):
        for entry in entries:
            entry["result"]["version"] = version
        journal.write_text("".join(json.dumps(e) + "\n" for e in entries))
        capsys.readouterr()
        assert cli_main(argv + ["--resume"]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: checkpoint version {version} is not supported "
            "(this build reads version 3)\n"
        )


def test_checkpoint_every_n_segments(tmp_path):
    scenario = _adversarial("burst_storm")
    run_cluster_checkpointed(
        *cluster_inputs(scenario), directory=tmp_path / "ck", every=2
    )
    probe = ClusterSimulation(*cluster_inputs(scenario))
    total = probe.total_segments
    journal = (tmp_path / "ck" / "journal.jsonl").read_text()
    recorded = journal.count('"shard"')
    # Every 2nd segment, plus the final one regardless of parity.
    assert recorded == total // 2 + (1 if total % 2 else 0)


def test_checkpointed_run_keeps_no_checkpoint_in_memory(tmp_path, monkeypatch):
    """Each segment's checkpoint goes to the journal file only: the
    journal object of a run holds none of them, so memory stays flat
    however many segments the run records."""
    import repro.exec.journal as journal_mod

    journals = []

    class CapturingJournal(journal_mod.SweepJournal):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            journals.append(self)

    monkeypatch.setattr(journal_mod, "SweepJournal", CapturingJournal)
    scenario = _adversarial("burst_storm")
    run_cluster_checkpointed(
        *cluster_inputs(scenario), directory=tmp_path / "ck", every=1
    )
    (journal,) = journals
    assert journal.completed == {}
    lines = (tmp_path / "ck" / "journal.jsonl").read_text().splitlines()
    assert len(lines) == ClusterSimulation(*cluster_inputs(scenario)).total_segments


def test_checkpointed_run_rejects_bad_arguments(tmp_path):
    scenario = _adversarial("burst_storm")
    with pytest.raises(ValidationError):
        run_cluster_checkpointed(
            *cluster_inputs(scenario), directory=tmp_path / "ck", every=0
        )
    with pytest.raises(ConfigError):
        run_cluster_checkpointed(*cluster_inputs(scenario), resume=True)


# ----------------------------------------------------------------------
# Scenario-level plumbing (run_scenario resume path)
# ----------------------------------------------------------------------
def test_run_scenario_checkpoint_block_round_trip(tmp_path):
    from repro.api import ScenarioCheckpoint

    scenario = _adversarial("multi_region_diurnal")
    plain = run_scenario(scenario).to_dict()
    block = ScenarioCheckpoint(directory=str(tmp_path / "ck"))
    first = run_scenario(scenario, checkpoint=block).to_dict()
    resumed = run_scenario(scenario, checkpoint=block, resume=True).to_dict()
    assert first == plain
    assert resumed == plain
