"""Execute scenarios: one dispatch for every front-end.

``run_scenario`` turns a declarative :class:`repro.api.scenario.Scenario`
into a uniform :class:`repro.api.result.RunResult` by driving the same
engines the bespoke entry points used to call directly:

- ``serving``   -> :func:`repro.serving.server.run_collocation`
- ``open_loop`` -> :func:`repro.traffic.openloop.run_open_loop`
- ``cluster``   -> :func:`run_cluster_checkpointed` over
  :class:`repro.traffic.cluster_sim.ClusterSimulation`
- ``llm``       -> :func:`repro.llmserve.engine.run_llm_serving`
- ``figure``    -> the :data:`repro.api.figures.FIGURES` registry

A sweep runs each scenario variant as its own executor shard through
:func:`sweep_scenario_report` (``sweep_scenario`` is its simple form);
results are identical for any backend or worker count because each
variant is an independent simulation rebuilt from its serialised spec.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.api.result import RunResult, base_provenance, canonical_digest
from repro.api.scenario import Scenario, ScenarioChurn, ScenarioTenant
from repro.errors import (
    CheckpointError, ConfigError, ExecError, ValidationError,
)

if TYPE_CHECKING:
    from repro.traffic.cluster_sim import (
        ChurnEvent,
        ClusterTrafficConfig,
        ClusterTrafficResult,
    )


# ----------------------------------------------------------------------
# Spec adapters
# ----------------------------------------------------------------------
def _to_workload_spec(tenant: ScenarioTenant):
    from repro.serving.server import WorkloadSpec

    return WorkloadSpec(
        model=tenant.model,
        batch=tenant.batch,
        alloc_mes=tenant.alloc_mes,
        alloc_ves=tenant.alloc_ves,
        priority=tenant.priority,
    )


def _to_traffic_spec(tenant: ScenarioTenant):
    from repro.traffic.openloop import TrafficTenantSpec
    from repro.traffic.slo import SloSpec

    return TrafficTenantSpec(
        model=tenant.model,
        batch=tenant.batch,
        weight=tenant.weight,
        slo=SloSpec(
            target_cycles=tenant.slo_target_cycles,
            relative=tenant.slo_relative,
        ),
        alloc_mes=tenant.alloc_mes,
        alloc_ves=tenant.alloc_ves,
        priority=tenant.priority,
        arrival=tenant.arrival,
    )


def _slo_report_metrics(report) -> Dict[str, Any]:
    p50, p95, p99 = report.latency_percentiles(50.0, 95.0, 99.0)
    return {
        "name": report.name,
        "offered": report.offered,
        "completed": report.completed,
        "attained": report.attained,
        "attainment": report.attainment,
        "goodput_rps": report.goodput_rps,
        "throughput_rps": report.throughput_rps,
        "mean_latency_cycles": report.mean_latency,
        "p50_latency_cycles": p50,
        "p95_latency_cycles": p95,
        "p99_latency_cycles": p99,
        "mean_queueing_cycles": report.mean_queueing_delay,
    }


# ----------------------------------------------------------------------
# Kind runners
# ----------------------------------------------------------------------
def _run_serving(scenario: Scenario) -> RunResult:
    from repro.serving.server import ServingConfig, run_collocation

    pair = run_collocation(
        [_to_workload_spec(t) for t in scenario.tenants],
        scenario.scheme,
        # No op records: nothing below reads op durations, and
        # recording would keep these runs off the mega-batch chain path.
        ServingConfig(
            core=scenario.core(),
            target_requests=scenario.target_requests,
            record_ops=False,
        ),
    )
    metrics: Dict[str, Any] = {
        "pair": pair.pair,
        "tenants": [
            {
                "name": t.name,
                "p95_latency_cycles": t.p95_latency_cycles,
                "mean_latency_cycles": t.mean_latency_cycles,
                "throughput_rps": t.throughput_rps,
                "me_utilization": t.me_utilization,
                "ve_utilization": t.ve_utilization,
                "blocked_fraction": t.blocked_fraction,
                "completed_requests": t.completed_requests,
            }
            for t in pair.tenants
        ],
        "total_me_utilization": pair.total_me_utilization,
        "total_ve_utilization": pair.total_ve_utilization,
        "preemption_count": pair.preemption_count,
        "simulated_cycles": pair.total_cycles,
    }
    metadata = {
        "target_requests": scenario.target_requests,
        "models": [t.model for t in scenario.tenants],
    }
    return _wrap(scenario, metrics, metadata)


def _run_open_loop(scenario: Scenario) -> RunResult:
    from repro.traffic.openloop import OpenLoopConfig, run_open_loop

    result = run_open_loop(
        [_to_traffic_spec(t) for t in scenario.tenants],
        scenario.scheme,
        OpenLoopConfig(
            core=scenario.core(),
            duration_s=scenario.duration_s,
            load=scenario.load,
            arrival=scenario.arrival,
            seed=scenario.seed,
            drain=scenario.drain,
        ),
    )
    metrics: Dict[str, Any] = {
        "tenants": [_slo_report_metrics(r) for r in result.reports],
        "min_attainment": result.min_attainment,
        "me_utilization": result.me_utilization,
        "ve_utilization": result.ve_utilization,
        "simulated_cycles": result.total_cycles,
    }
    metadata = {
        "arrival": scenario.arrival,
        "load": scenario.load,
        "duration_s": scenario.duration_s,
        "drain": scenario.drain,
        "models": [t.model for t in scenario.tenants],
    }
    return _wrap(scenario, metrics, metadata)


def _host_pools(scenario: Scenario):
    """The scenario's host pools: its ``pools:``, or one ``host`` pool
    spelled by ``hosts:``/``cores_per_host:``.

    A ``hosts:`` fleet is pinned at ``hosts`` without an autoscaler;
    with one it starts at ``hosts`` and may shrink to one host or grow
    to twice the configured size.
    """
    from repro.cluster.autoscale import HostPoolSpec

    if scenario.pools:
        return scenario.pools
    hosts = scenario.hosts
    elastic = scenario.autoscaler is not None
    return (
        HostPoolSpec(
            name="host",
            cores_per_host=scenario.cores_per_host,
            min_hosts=1 if elastic else hosts,
            max_hosts=2 * hosts if elastic else hosts,
            initial_hosts=hosts,
        ),
    )


def cluster_inputs(scenario: Scenario):
    """The ``(events, cfg)`` pair a cluster scenario simulates.

    The single translation every cluster front-end shares: ``repro
    run`` (plain, checkpointed and resumed), ``repro serve`` and the
    fuzz harness's deep checks all build their
    :class:`~repro.traffic.cluster_sim.ClusterSimulation` from this, so
    a checkpoint taken by one is restorable by the others.  It is also
    the one place the scenario's ``hosts:`` spelling becomes a host
    pool; the cluster engine itself only reads ``pools``.
    """
    from repro.traffic.cluster_sim import ClusterTrafficConfig

    if scenario.kind != "cluster":
        raise ConfigError(
            f"scenario {scenario.name!r} is kind {scenario.kind!r}; "
            "cluster inputs only exist for kind: cluster"
        )
    events = [_to_churn_event(e) for e in scenario.churn]
    cfg = ClusterTrafficConfig(
        cores_per_host=scenario.cores_per_host,
        core=scenario.core(),
        scheme=scenario.scheme,
        arrival=scenario.arrival,
        load=scenario.load,
        end_s=scenario.duration_s,
        seed=scenario.seed,
        pools=_host_pools(scenario),
        autoscaler=(
            scenario.autoscaler.make()
            if scenario.autoscaler is not None
            else None
        ),
        autoscale_interval_s=(
            scenario.autoscaler.interval_s
            if scenario.autoscaler is not None
            else None
        ),
        virtualization=scenario.virtualization,
        faults=scenario.faults,
    )
    return events, cfg


def _cluster_run_result(
    scenario: Scenario, cfg, result, digest: Optional[str] = None
) -> RunResult:
    autoscaler = cfg.autoscaler
    virtualization = cfg.virtualization
    metrics: Dict[str, Any] = {
        "tenants": [
            _slo_report_metrics(result.reports[name])
            for name in sorted(result.reports)
        ],
        "host_me_utilization": dict(result.host_me_utilization),
        "host_ve_utilization": dict(result.host_ve_utilization),
        "cluster_me_utilization": result.cluster_me_utilization,
        "cluster_ve_utilization": result.cluster_ve_utilization,
        "admission_rate": result.admission_rate,
        "rejected": list(result.rejected),
        "segments": result.segments,
        "simulated_cycles": result.simulated_cycles,
    }
    metadata = {
        "hosts": scenario.hosts,
        "cores_per_host": scenario.cores_per_host,
        "arrival": scenario.arrival,
        "load": scenario.load,
        "duration_s": scenario.duration_s,
        "churn_events": len(scenario.churn),
    }
    if autoscaler is not None:
        # Only stamped when the loop is closed, so autoscaler-free
        # results stay bit-identical to pre-autoscaling releases.
        metrics["cluster_attainment"] = result.cluster_attainment
        metrics["mean_active_hosts"] = result.mean_active_hosts
        metrics["host_count_timeline"] = [
            [t, n] for t, n in result.host_count_timeline
        ]
        metrics["autoscale_events"] = [
            e.to_dict() for e in result.autoscale_events
        ]
        metadata["autoscaler"] = {
            "policy": scenario.autoscaler.policy,
            **autoscaler.describe(),
        }
        if scenario.pools:
            metadata["pools"] = [
                {
                    "name": p.name,
                    "cores_per_host": p.cores_per_host,
                    "min_hosts": p.min_hosts,
                    "max_hosts": p.max_hosts,
                    "initial_hosts": p.start_hosts,
                }
                for p in scenario.pools
            ]
    if scenario.faults or result.fault_events:
        # Only stamped when faults are injected, so fault-free results
        # stay bit-identical to releases without fault injection.
        # ``result.fault_events`` without a ``faults:`` block means
        # live injection (repro serve), which must surface too.
        metrics.setdefault("cluster_attainment", result.cluster_attainment)
        metrics["fault_events"] = [dict(e) for e in result.fault_events]
        metadata["faults"] = [
            {"kind": f.kind, "time_s": f.time_s} for f in scenario.faults
        ]
    if virtualization is not None:
        # Only stamped when the control plane is configured, so
        # virtualization-free results stay bit-identical to
        # pre-virtualization releases.
        metrics.setdefault("cluster_attainment", result.cluster_attainment)
        metrics["virtualization"] = result.virtualization.to_dict()
        metadata["virtualization"] = {
            "num_vfs": virtualization.num_vfs,
            "pool_num_vfs": dict(virtualization.pool_num_vfs),
            "hypercall_cost_s": virtualization.hypercall_cost_s,
        }
    return _wrap(scenario, metrics, metadata, digest)


def _to_churn_event(event: ScenarioChurn):
    from repro.traffic.cluster_sim import ChurnEvent
    from repro.traffic.openloop import TrafficTenantSpec
    from repro.traffic.slo import SloSpec

    spec = None
    if event.model is not None:
        spec = TrafficTenantSpec(
            model=event.model,
            batch=event.batch,
            weight=event.weight,
            slo=SloSpec(relative=event.slo_relative),
            priority=event.priority,
        )
    return ChurnEvent(
        time_s=event.time_s,
        action=event.action,
        name=event.name,
        spec=spec,
        num_mes=event.num_mes,
        num_ves=event.num_ves,
    )


def _run_llm(scenario: Scenario) -> RunResult:
    from repro.llmserve.engine import LlmServeConfig, run_llm_serving

    block = scenario.llm
    cfg = LlmServeConfig(
        core=scenario.core(),
        scheme=scenario.scheme,
        seed=scenario.seed,
        duration_s=scenario.duration_s,
        load=scenario.load,
        arrival=scenario.arrival,
        batch_tokens=block.batch_tokens,
        m_total=block.m_total,
        preemption_mode=block.preemption_mode,
        victim_policy=block.victim_policy,
        drain=scenario.drain,
        ttft_slo_scale=block.ttft_slo_scale,
        tpot_slo_scale=block.tpot_slo_scale,
        step_overhead_cycles=block.step_overhead_cycles,
        cycles_per_token=block.cycles_per_token,
        swap_cycles_per_token=block.swap_cycles_per_token,
    )
    result = run_llm_serving(block.tenants, cfg)
    metrics = result.metrics()
    metrics["simulated_cycles"] = result.duration_cycles
    metadata = {
        "arrival": scenario.arrival,
        "load": scenario.load,
        "duration_s": scenario.duration_s,
        "drain": scenario.drain,
        "tenants": [t.name for t in block.tenants],
        "calibrated": block.step_overhead_cycles is None
        or block.cycles_per_token is None,
    }
    return _wrap(scenario, metrics, metadata)


def _run_figure(scenario: Scenario) -> RunResult:
    from repro.api.figures import FIGURES

    info = FIGURES.get(scenario.figure)
    result = info.run_result(**dict(scenario.params))
    # Rebrand under the scenario's name but keep the figure metrics.
    result.scenario = scenario.name
    result.metadata.setdefault("figure", scenario.figure)
    result.provenance.update(
        base_provenance(seed=None, scenario_digest=scenario.digest())
    )
    return result


_KIND_RUNNERS = {
    "serving": _run_serving,
    "open_loop": _run_open_loop,
    "llm": _run_llm,
    "figure": _run_figure,
}


def _wrap(
    scenario: Scenario,
    metrics: Dict[str, Any],
    metadata: Dict[str, Any],
    digest: Optional[str] = None,
) -> RunResult:
    """The scenario's RunResult; ``digest`` is ``scenario.digest()``
    when the caller holds it already."""
    metadata = dict(metadata)
    if scenario.description:
        metadata["description"] = scenario.description
    if scenario.hardware:
        metadata["hardware"] = dict(scenario.hardware)
    return RunResult(
        scenario=scenario.name,
        kind=scenario.kind,
        scheme=scenario.scheme,
        metrics=metrics,
        metadata=metadata,
        provenance=base_provenance(
            seed=scenario.seed,
            scenario_digest=digest if digest is not None else scenario.digest(),
        ),
    )


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
#: Progress callback for stepped cluster runs:
#: ``(segments_completed, total_segments, observation)``; the
#: observation is ``None`` for the initial resumed-count notification.
SegmentHook = Callable[[int, int, Optional[Any]], None]


def _segment_key(index: int) -> str:
    """Journal shard key of the checkpoint after ``index`` segments."""
    return f"segment-{index:06d}"


def run_cluster_checkpointed(
    events: Sequence["ChurnEvent"],
    cfg: Optional["ClusterTrafficConfig"] = None,
    *,
    directory: Optional[str] = None,
    resume: bool = False,
    every: int = 1,
    on_segment: Optional[SegmentHook] = None,
) -> "ClusterTrafficResult":
    """Run a cluster simulation with journaled segment checkpoints.

    With ``directory`` set, a :class:`repro.exec.journal.SweepJournal`
    under it records a
    :class:`~repro.traffic.stepper.ClusterCheckpoint` every ``every``
    completed segments (shard keys ``segment-NNNNNN``; the manifest
    digest is the simulation's config digest, so a directory from a
    different run is refused).  ``resume=True`` restores from the
    furthest recorded checkpoint and continues: the completed run is
    bit-identical to an uninterrupted one.  Without a directory this is
    the plain stepped path, useful for ``on_segment`` progress alone.
    """
    from repro.exec.journal import SweepJournal
    from repro.traffic.cluster_sim import ClusterSimulation
    from repro.traffic.stepper import ClusterCheckpoint

    if every < 1:
        raise ValidationError(
            "every", every, "checkpoint cadence must be >= 1"
        )
    if resume and directory is None:
        raise ConfigError("resuming a cluster run needs a checkpoint directory")
    sim = ClusterSimulation(events, cfg)
    total = sim.total_segments
    journal = None
    if directory is not None:
        if sim.config_digest is None:
            raise CheckpointError(
                "this configuration is not picklable (custom "
                "autoscaler?); checkpointing is unavailable for it"
            )
        keys = [_segment_key(i) for i in range(1, total + 1)]
        journal = SweepJournal(
            directory, sim.config_digest, keys, resume=resume
        )
        if resume and journal.completed:
            latest = max(
                journal.completed,
                key=lambda k: int(k.rsplit("-", 1)[1]),
            )
            cp = ClusterCheckpoint.from_dict(journal.completed[latest])
            sim = ClusterSimulation.restore(cp, events, cfg)
    try:
        if on_segment is not None and sim.segments_completed:
            on_segment(sim.segments_completed, total, None)
        while not sim.done:
            observation = sim.step_segment()
            done_count = sim.segments_completed
            if journal is not None and (done_count % every == 0 or sim.done):
                journal.record(
                    _segment_key(done_count), sim.snapshot().to_dict()
                )
            if on_segment is not None:
                on_segment(done_count, total, observation)
        return sim.result()
    finally:
        if journal is not None:
            journal.close()


def run_scenario(
    scenario: Scenario,
    *,
    resume: bool = False,
    checkpoint=None,
    on_segment=None,
) -> RunResult:
    """Run one scenario and return its structured result.

    The one dispatch every front-end shares: validates the spec
    (resolving scheme/arrival/model/figure/autoscaler names against the
    registries, so typos fail before any simulation), routes on
    ``scenario.kind`` to the matching engine, and wraps the outcome in
    a :class:`~repro.api.result.RunResult` stamped with provenance
    (seed, canonical scenario digest, library version, fast-path flag).

    Cluster scenarios additionally take the stepped driver's knobs:
    ``checkpoint`` (a :class:`~repro.api.scenario.ScenarioCheckpoint`,
    overriding the scenario's own ``checkpoint:`` block) journals a
    segment snapshot every ``every`` segments, ``resume=True`` restores
    from the furthest recorded snapshot and continues, and
    ``on_segment(done, total, observation)`` fires after every
    simulated segment.  None of them changes the metrics: a resumed or
    checkpointed run is bit-identical to an uninterrupted plain one.

    Deterministic: same spec, same library version -> same metrics,
    byte for byte.  Example::

        from repro.api import Scenario, ScenarioTenant, run_scenario

        result = run_scenario(Scenario(
            name="demo", kind="open_loop", scheme="neu10",
            tenants=(ScenarioTenant(model="MNIST", batch=8),),
        ))
        result.metrics["min_attainment"]

    Raises :class:`repro.errors.ConfigError` on an invalid spec.
    """
    scenario.validate()
    block = checkpoint if checkpoint is not None else scenario.checkpoint
    if scenario.kind == "cluster":
        # Without a directory, resume or hook this steps exactly what
        # ClusterSimulation.run() steps.
        events, cfg = cluster_inputs(scenario)
        result = run_cluster_checkpointed(
            events,
            cfg,
            directory=block.directory if block is not None else None,
            resume=resume,
            every=block.every if block is not None else 1,
            on_segment=on_segment,
        )
        return _cluster_run_result(scenario, cfg, result)
    if block is not None or resume or on_segment is not None:
        raise ConfigError(
            f"scenario {scenario.name!r} is kind {scenario.kind!r}; "
            "checkpoint/resume/per-segment progress only apply to "
            "kind: cluster"
        )
    runner = _KIND_RUNNERS.get(scenario.kind)
    if runner is None:  # _validate_shape guards this; belt and braces
        raise ConfigError(f"unknown scenario kind {scenario.kind!r}")
    return runner(scenario)


def _run_scenario_payload(payload: str) -> Dict[str, Any]:
    """Picklable sweep worker: JSON spec in, RunResult dict out."""
    scenario = Scenario.from_dict(json.loads(payload))
    return run_scenario(scenario).to_dict()


def _resolve_sweep(
    scenario: Scenario,
    param: Optional[str],
    values: Optional[Sequence[Any]],
) -> Tuple[str, Sequence[Any]]:
    """The ``(param, values)`` a sweep varies.

    ``param``/``values`` override the scenario's embedded ``sweep:``
    block piecewise: a supplied ``values`` always wins (with the block's
    param when ``param`` is omitted), and a supplied ``param`` reuses the
    block's values only when it names the same field.
    """
    block = scenario.sweep
    if param is None:
        if block is None:
            raise ConfigError(
                f"scenario {scenario.name!r} has no sweep block; "
                "pass --param/--values (or add 'sweep:' to the file)"
            )
        param = block.param
        if values is None:
            values = block.values
    elif values is None:
        if block is not None and block.param == param:
            values = block.values
        else:
            raise ConfigError(
                f"sweeping {param!r} needs explicit values "
                "(--values a,b,c)"
            )
    if not values:
        raise ConfigError("sweep needs at least one value")
    return param, values


def sweep_variants(
    scenario: Scenario,
    param: Optional[str] = None,
    values: Optional[Sequence[Any]] = None,
) -> List[Scenario]:
    """The scenario variants a sweep will run, one per value, each
    renamed ``<name>@<param>=<value>`` (``param``/``values`` resolve
    against the embedded ``sweep:`` block as :func:`sweep_scenario`
    describes)."""
    param, values = _resolve_sweep(scenario, param, values)
    # Variants must not share one checkpoint journal (each has its own
    # config digest; the journal would refuse all but the first).
    base = scenario.replaced(sweep=None, checkpoint=None)
    return [
        base.replaced(
            **{param: value, "name": f"{scenario.name}@{param}={value}"}
        )
        for value in values
    ]


def sweep_scenario(
    scenario: Scenario,
    param: Optional[str] = None,
    values: Optional[Sequence[Any]] = None,
    max_workers: Optional[int] = None,
) -> List[RunResult]:
    """Run one variant per value, each as its own executor shard.

    ``param`` is any scenario field name, including dotted hardware
    overrides (``hardware.num_mes``); ``values`` replace it one at a
    time, each variant renamed ``<name>@<param>=<value>``.  With both
    omitted the scenario's embedded ``sweep:`` block is used; a supplied
    ``values`` always wins, and a supplied ``param`` reuses the block's
    values only when it names the same field.  Variants are validated
    *before* any worker starts, rebuilt from their serialised spec on
    the scenario's ``executor:`` backend (default ``pool``), and
    returned in value order -- results are identical for any
    ``max_workers`` (``1`` = in-process; ``None`` = the block's width,
    else one worker per 64 points up to the CPU count /
    ``REPRO_PARALLEL_WORKERS``, so a short sweep runs in-process).

    The simple form of :func:`sweep_scenario_report`: no checkpoint, and
    a point that fails permanently raises
    :class:`repro.errors.ExecError` even under ``keep_going: true``,
    because this return value has no place to report it.

    Example::

        results = sweep_scenario(sc, param="load", values=[0.5, 0.8, 1.1])
        [r.metrics["min_attainment"] for r in results]
    """
    return sweep_scenario_report(
        scenario, param=param, values=values, max_workers=max_workers,
        keep_going=False,
    ).results


# ----------------------------------------------------------------------
# Sweeps: one executor shard per point, checkpoints, resume
# ----------------------------------------------------------------------
#: Progress callback: ``on_progress(done, total, outcome)`` fires once
#: per shard in completion order (``outcome`` is a
#: :class:`repro.exec.TaskOutcome`); ``done`` counts resumed shards too.
#: A resumed run additionally fires once up front with ``outcome=None``
#: and ``done`` = the number of shards loaded from the checkpoint.
ProgressHook = Callable[[int, int, Any], None]


@dataclass
class SweepReport:
    """Everything a sweep settled.

    ``results`` hold the successful points in value order (all of them,
    unless ``keep_going`` let some fail permanently -- those appear in
    ``failures`` instead, as structured
    :class:`repro.exec.TaskFailure`).  ``resumed`` of the ``total``
    shards were loaded from the checkpoint journal rather than run.
    """

    results: List[RunResult] = field(default_factory=list)
    failures: List[Any] = field(default_factory=list)
    total: int = 0
    executed: int = 0
    resumed: int = 0
    backend: str = "pool"

    @property
    def ok(self) -> bool:
        return not self.failures


def _resolve_exec_spec(
    scenario: Scenario,
    executor: Optional[str],
    max_workers: Optional[int],
    task_timeout_s: Optional[float],
    keep_going: Optional[bool],
    points: int,
):
    """Merge the scenario's ``executor:`` block with call overrides.

    Overrides never touch the scenario itself: the variant digests (and
    so the checkpoint identity) stay equal across backends, which is
    what lets one journal serve any of them.

    A sweep of ``points`` points that names neither a backend nor a
    width gets one ``pool`` worker per :data:`repro.exec.base.CHUNK`
    points, at most :func:`repro.parallel.default_workers`: a worker
    process starts with cold calibration and chain-node caches, which
    only a long sweep repays, so up to 64 points run in-process.
    """
    from repro.exec import ExecSpec, base as exec_base
    from repro.parallel import default_workers

    spec = scenario.executor
    if spec is None:
        spec = ExecSpec()
        if executor is None and max_workers is None:
            max_workers = min(
                default_workers(), -(-points // exec_base.CHUNK)
            )
    changes: Dict[str, Any] = {}
    if executor is not None:
        changes["backend"] = executor
    if max_workers is not None:
        changes["max_workers"] = max_workers
    if task_timeout_s is not None:
        changes["task_timeout_s"] = task_timeout_s
    if keep_going is not None:
        changes["keep_going"] = keep_going
    return dataclasses.replace(spec, **changes) if changes else spec


def _sweep_identity_digest(
    scenario: Scenario, param: str, values: Sequence[Any]
) -> str:
    """Canonical digest naming *which sweep this is* for the checkpoint
    manifest: the base scenario plus what is swept.  Deliberately
    independent of backend, worker count and CLI overrides."""
    base = scenario.replaced(sweep=None)
    return canonical_digest(
        {
            "base_scenario": base.to_dict(),
            "param": param,
            "values": list(values),
        }
    )


def sweep_scenario_report(
    scenario: Scenario,
    param: Optional[str] = None,
    values: Optional[Sequence[Any]] = None,
    max_workers: Optional[int] = None,
    executor: Optional[str] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    keep_going: Optional[bool] = None,
    task_timeout_s: Optional[float] = None,
    on_progress: Optional[ProgressHook] = None,
) -> SweepReport:
    """Run a sweep through a pluggable, fault-tolerant executor.

    The one sweep path (:func:`sweep_scenario` is its simple form): each
    sweep point becomes one shard, keyed by its variant scenario's
    content digest, dispatched through the
    :data:`repro.api.registries.EXECUTORS` backend chosen by
    ``executor`` (or the scenario's ``executor:`` block; default
    ``pool``, one worker per 64 points unless ``max_workers`` or the
    block sets a width).  With ``checkpoint`` set, every settled
    shard is journalled to disk as it completes, and ``resume=True``
    skips shards the journal already holds -- a killed sweep continues
    where it stopped, and the merged results are bit-identical to an
    uninterrupted run's (each shard is a deterministic function of its
    spec).

    ``keep_going`` turns a permanently failed point into a structured
    entry of ``report.failures`` instead of an
    :class:`repro.errors.ExecError` abort; ``task_timeout_s`` bounds a
    single point's wall clock (enforced by the ``local-queue`` backend).
    Overrides do not modify the scenario, so shard digests -- and the
    checkpoint identity -- are the same whatever backend runs them.

    Each result's provenance gains an ``executor`` block
    (``{"backend": name}``) recording how it was dispatched; everything
    else is byte-identical to :func:`run_scenario` of the variant.
    """
    from repro.api.registries import make_executor
    from repro.exec import ExecTask, SweepJournal, summarize_failures

    param, values = _resolve_sweep(scenario, param, values)
    spec = _resolve_exec_spec(
        scenario, executor, max_workers, task_timeout_s, keep_going,
        points=len(values),
    )
    variants = sweep_variants(scenario, param, values)
    for variant in variants:
        variant.validate()  # fail fast, before spawning workers

    shard_keys = [v.digest() for v in variants]
    journal = None
    if checkpoint is not None:
        journal = SweepJournal(
            checkpoint,
            _sweep_identity_digest(scenario, param, values),
            shard_keys,
            resume=resume,
        )
    elif resume:
        raise ConfigError("--resume needs --checkpoint DIR to resume from")

    report = SweepReport(
        total=len(variants),
        resumed=0 if journal is None else sum(
            1 for key in shard_keys if key in journal.completed
        ),
        backend=spec.backend,
    )
    try:
        todo = [
            (index, key)
            for index, key in enumerate(shard_keys)
            if journal is None or key not in journal.completed
        ]
        report.executed = len(todo)
        if resume and on_progress is not None:
            on_progress(report.resumed, report.total, None)
        done_box = [report.resumed]

        def _on_complete(outcome) -> None:
            if journal is not None:
                if outcome.ok:
                    journal.record(outcome.key, outcome.value)
                else:
                    journal.record_failure(
                        outcome.key, outcome.failure.to_dict()
                    )
            done_box[0] += 1
            if on_progress is not None:
                on_progress(done_box[0], report.total, outcome)

        fresh: Dict[str, Any] = {}
        if todo:
            tasks = [
                ExecTask(
                    key=key,
                    payload=json.dumps(variants[index].to_dict()),
                )
                for index, key in todo
            ]
            backend_exec = make_executor(spec)
            outcomes = backend_exec.map_tasks(
                _run_scenario_payload, tasks, on_complete=_on_complete
            )
            for outcome in outcomes:
                if outcome.ok:
                    fresh[outcome.key] = outcome.value
                else:
                    report.failures.append(outcome.failure)

        for key in shard_keys:
            payload = (
                journal.completed.get(key)
                if journal is not None and key in journal.completed
                else fresh.get(key)
            )
            if payload is None:
                continue  # permanently failed under keep_going
            result = RunResult.from_dict(payload)
            # Dispatch provenance: stamped at collection (not in the
            # journal), so a resumed run and an uninterrupted run of the
            # same backend are bit-identical, and runs on different
            # backends differ in nothing else.
            result.provenance["executor"] = {"backend": spec.backend}
            report.results.append(result)
    finally:
        if journal is not None:
            journal.close()
    if report.failures and not spec.keep_going:
        # Unreachable via the built-in backends (they raise ExecError
        # themselves when keep_going is off); guard third-party ones.
        raise ExecError(summarize_failures(report.failures))
    return report
