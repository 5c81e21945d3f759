"""Executor-backed sweeps: bit-identical results, checkpoints, resume."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    EXECUTOR_FIELD_DOCS,
    EXECUTORS,
    Scenario,
    ScenarioChurn,
    ScenarioTenant,
    run_scenario,
    sweep_scenario,
    sweep_scenario_report,
    sweep_variants,
)
from repro.api.registries import ExecutorInfo
from repro.errors import ConfigError, ExecError
from repro.exec import ExecSpec, SerialExecutor

BACKENDS = ("serial", "pool", "local-queue")


@pytest.fixture(scope="module")
def tiny():
    return Scenario(
        name="tiny", kind="open_loop", scheme="neu10",
        tenants=(ScenarioTenant(model="MNIST", batch=8),),
        load=0.8, duration_s=0.0004, seed=7,
    )


@pytest.fixture(scope="module")
def reference(tiny):
    """Each variant run alone, in process (the bit-identity reference).

    ``run_scenario`` shares no dispatch code with the executor
    backends, so it can referee every one of them."""
    return [
        run_scenario(variant).to_dict()
        for variant in sweep_variants(tiny, param="load", values=[0.5, 0.9])
    ]


# ----------------------------------------------------------------------
# Differential: every backend == run_scenario, modulo provenance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matches_run_scenario(tiny, reference, backend):
    report = sweep_scenario_report(
        tiny, param="load", values=[0.5, 0.9], executor=backend,
        max_workers=2,
    )
    assert report.ok
    assert report.backend == backend
    assert (report.total, report.executed, report.resumed) == (2, 2, 0)
    for got, want in zip(
        [r.to_dict() for r in report.results], reference
    ):
        assert got["provenance"].pop("executor") == {"backend": backend}
        assert got == want


def test_sweep_scenario_stamps_default_pool_backend(tiny, reference):
    results = sweep_scenario(
        tiny, param="load", values=[0.5, 0.9], max_workers=1
    )
    for got, want in zip([r.to_dict() for r in results], reference):
        assert got["provenance"].pop("executor") == {"backend": "pool"}
        assert got == want


def test_default_sweep_runs_one_pool_worker_per_chunk(
    tiny, spawned_pools, monkeypatch
):
    """A sweep naming no backend or width gets one worker per CHUNK
    points, so a short sweep stays in-process; a named backend keeps
    the full width."""
    import repro.exec.base

    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "4")
    values = [0.5, 0.7, 0.9]
    monkeypatch.setattr(repro.exec.base, "CHUNK", 64)
    sweep_scenario(tiny, param="load", values=values)
    assert spawned_pools == []
    monkeypatch.setattr(repro.exec.base, "CHUNK", 2)
    sweep_scenario(tiny, param="load", values=values)
    assert spawned_pools == [2]
    sweep_scenario_report(tiny, param="load", values=values, executor="pool")
    assert spawned_pools == [2, 3]


def test_sweep_scenario_routes_executor_block(tiny, reference):
    routed = tiny.replaced(executor=ExecSpec(backend="serial"))
    results = sweep_scenario(routed, param="load", values=[0.5, 0.9])
    assert [r.provenance["executor"] for r in results] == [
        {"backend": "serial"}
    ] * 2
    # The executor block changes the spec (and so its digest) but must
    # never change the simulated metrics.
    assert [r.metrics for r in results] == [r["metrics"] for r in reference]


# ----------------------------------------------------------------------
# Checkpoint + resume
# ----------------------------------------------------------------------
def test_checkpoint_then_full_resume_is_bit_identical(tiny, tmp_path):
    ck = tmp_path / "ck"
    first = sweep_scenario_report(
        tiny, param="load", values=[0.5, 0.9], executor="serial",
        checkpoint=ck,
    )
    again = sweep_scenario_report(
        tiny, param="load", values=[0.5, 0.9], executor="serial",
        checkpoint=ck, resume=True,
    )
    assert (again.resumed, again.executed) == (2, 0)
    assert [r.to_dict() for r in again.results] == [
        r.to_dict() for r in first.results
    ]


def test_partial_journal_resume_runs_only_missing(tiny, tmp_path):
    ck = tmp_path / "ck"
    full = sweep_scenario_report(
        tiny, param="load", values=[0.5, 0.9, 1.1], executor="serial",
        checkpoint=ck,
    )
    # Drop the journal's tail line: the third shard becomes not-done.
    journal = ck / "journal.jsonl"
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:2]) + "\n")
    resumed = sweep_scenario_report(
        tiny, param="load", values=[0.5, 0.9, 1.1], executor="serial",
        checkpoint=ck, resume=True,
    )
    assert (resumed.resumed, resumed.executed) == (2, 1)
    assert [r.to_dict() for r in resumed.results] == [
        r.to_dict() for r in full.results
    ]


def test_resume_across_backends_is_bit_identical(tiny, tmp_path):
    ck = tmp_path / "ck"
    sweep_scenario_report(
        tiny, param="load", values=[0.5, 0.9], executor="pool",
        checkpoint=ck, max_workers=2,
    )
    resumed = sweep_scenario_report(
        tiny, param="load", values=[0.5, 0.9], executor="local-queue",
        checkpoint=ck, resume=True,
    )
    one_shot = sweep_scenario_report(
        tiny, param="load", values=[0.5, 0.9], executor="local-queue",
    )
    assert resumed.executed == 0
    assert [r.to_dict() for r in resumed.results] == [
        r.to_dict() for r in one_shot.results
    ]


def test_resume_without_checkpoint_rejected(tiny):
    with pytest.raises(ConfigError, match="--checkpoint"):
        sweep_scenario_report(
            tiny, param="load", values=[0.5], executor="serial",
            resume=True,
        )


def test_checkpoint_guards_against_foreign_sweep(tiny, tmp_path):
    ck = tmp_path / "ck"
    sweep_scenario_report(
        tiny, param="load", values=[0.5, 0.9], executor="serial",
        checkpoint=ck,
    )
    with pytest.raises(ConfigError, match="different\\s+sweep"):
        sweep_scenario_report(
            tiny, param="load", values=[0.5, 1.3], executor="serial",
            checkpoint=ck, resume=True,
        )


def test_progress_hook_sees_every_shard(tiny, tmp_path):
    ticks = []
    sweep_scenario_report(
        tiny, param="load", values=[0.5, 0.9], executor="serial",
        checkpoint=tmp_path / "ck",
        on_progress=lambda done, total, outcome: ticks.append(
            (done, total, None if outcome is None else outcome.ok)
        ),
    )
    assert ticks == [(1, 2, True), (2, 2, True)]
    ticks.clear()
    sweep_scenario_report(
        tiny, param="load", values=[0.5, 0.9], executor="serial",
        checkpoint=tmp_path / "ck", resume=True,
        on_progress=lambda done, total, outcome: ticks.append(
            (done, total, None if outcome is None else outcome.ok)
        ),
    )
    # One up-front resume tick (outcome None), nothing left to run.
    assert ticks == [(2, 2, None)]


# ----------------------------------------------------------------------
# keep_going failure accounting
# ----------------------------------------------------------------------
def test_keep_going_isolates_failed_points(tiny):
    # "trace" passes validation (it is a registered arrival kind) but
    # fails inside the worker: replaying a trace needs timestamps.
    report = sweep_scenario_report(
        tiny, param="arrival", values=["poisson", "trace"],
        executor="serial", keep_going=True,
    )
    assert len(report.results) == 1
    assert len(report.failures) == 1
    assert report.failures[0].error_type == "ConfigError"
    assert report.results[0].metadata["arrival"] == "poisson"


def test_failed_point_aborts_without_keep_going(tiny):
    with pytest.raises(ExecError):
        sweep_scenario_report(
            tiny, param="arrival", values=["poisson", "trace"],
            executor="serial",
        )


def test_sweep_scenario_raises_on_failed_point_under_keep_going():
    # Departing a tenant that never arrived passes validation but fails
    # inside the run.  The report keeps both failures; sweep_scenario
    # has nowhere to put them, so it must raise instead of returning [].
    ghost = Scenario(
        name="ghost", kind="cluster", scheme="neu10", duration_s=0.0004,
        churn=(ScenarioChurn(time_s=0.0, action="depart", name="ghost"),),
        executor=ExecSpec(
            backend="serial", keep_going=True, retries=0
        ),
    )
    report = sweep_scenario_report(ghost, param="seed", values=[1, 2])
    assert [f.error_type for f in report.failures] == ["ConfigError"] * 2
    with pytest.raises(ExecError):
        sweep_scenario(ghost, param="seed", values=[1, 2])


class _LenientExecutor(SerialExecutor):
    """A third-party backend that reports failures but never raises."""

    name = "lenient"

    def map_tasks(self, fn, tasks, on_complete=None):
        spec = dataclasses.replace(self.spec, keep_going=True)
        return SerialExecutor(spec).map_tasks(fn, tasks, on_complete)


def test_third_party_backend_failures_raise_exec_error(tiny):
    EXECUTORS.add(
        "lenient", ExecutorInfo("lenient", _LenientExecutor, "test only")
    )
    try:
        with pytest.raises(ExecError, match="trace"):
            sweep_scenario_report(
                tiny, param="arrival", values=["poisson", "trace"],
                executor="lenient",
            )
    finally:
        EXECUTORS.remove("lenient")


# ----------------------------------------------------------------------
# Scenario surface
# ----------------------------------------------------------------------
def test_executor_block_round_trips(tiny):
    sc = tiny.replaced(
        executor=ExecSpec(
            backend="local-queue", max_workers=3, task_timeout_s=10.0,
            retries=1, keep_going=True,
        )
    )
    assert Scenario.from_dict(json.loads(sc.to_json())) == sc
    payload = sc.to_dict()["executor"]
    assert payload["backend"] == "local-queue"
    assert payload["task_timeout_s"] == 10.0


def test_executor_block_defaults_omitted_from_dict(tiny):
    assert "executor" not in tiny.to_dict()
    sc = tiny.replaced(executor=ExecSpec())
    assert sc.to_dict()["executor"] == {"backend": "pool"}
    # A block that spells out the defaults encodes as the bare block.
    spelled = Scenario.from_dict(
        tiny.to_dict() | {"executor": {"retries": 2, "retry_backoff_s": 0.05}}
    )
    assert spelled == sc and spelled.digest() == sc.digest()


def test_unknown_backend_rejected_by_validate(tiny):
    sc = tiny.replaced(executor=ExecSpec(backend="nope"))
    with pytest.raises(ConfigError, match="nope"):
        sc.validate()


def test_executor_field_docs_pinned_to_fields():
    fields = {f.name for f in dataclasses.fields(ExecSpec)}
    assert set(EXECUTOR_FIELD_DOCS) == fields


def test_registry_lists_builtin_backends():
    assert set(BACKENDS) <= set(EXECUTORS.names())


# ----------------------------------------------------------------------
# Cluster runs: the block picks a sweep's backend, nothing else
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster():
    return Scenario(
        name="cl", kind="cluster", scheme="neu10", hosts=2,
        duration_s=0.0008, load=0.5,
        churn=(
            ScenarioChurn(time_s=0.0, action="arrive", name="a",
                          model="MNIST"),
            ScenarioChurn(time_s=0.0, action="arrive", name="b",
                          model="DLRM"),
        ),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_cluster_executor_metrics_identical(cluster, backend):
    want = run_scenario(cluster).to_dict()
    got = run_scenario(
        cluster.replaced(executor=ExecSpec(backend=backend))
    ).to_dict()
    # One cluster run dispatches nothing, so it stamps no backend; only
    # the scenario digest, which covers the block, differs.
    assert "executor" not in got["provenance"]
    got["provenance"].pop("scenario_digest")
    want["provenance"].pop("scenario_digest")
    assert got == want
