"""Metamorphic invariants checked over fuzzer-generated scenarios.

Each check states a property the engines must satisfy for *every* valid
scenario -- not a golden value, but a relation between runs or between
fields of one run:

- **round-trip**: YAML/JSON serialisation is lossless and
  digest-stable.
- **conservation**: requests cannot appear or vanish -- per tenant,
  ``attained <= completed <= offered``, drain runs complete everything
  offered, and LLM per-tenant counts sum to the headline counts.
- **determinism**: the same spec yields a bit-identical
  :class:`RunResult` on a repeated run, across
  ``REPRO_SIM_MEGABATCH=0/1``, across ``REPRO_SIM_FAST_PATH=0/1``
  (metrics-identical; the provenance flag legitimately differs), and
  across sweep worker counts.
- **monotonicity**: SLO attainment cannot *improve* when offered load
  doubles (open loop), and cannot *degrade* when the LLM KV budget
  doubles -- within a tolerance that absorbs re-drawn arrival noise.
- **resume**: an executor sweep checkpoint truncated at a random byte
  (a simulated SIGKILL mid-write) resumes to bit-identical results.
- **snapshot-restore**: a cluster run snapshotted at a random segment
  boundary and restored *in a fresh process* finishes with metrics
  bit-identical to the uninterrupted run.

Checks that need extra simulations are gated behind ``deep`` so a small
smoke budget stays fast; the harness samples deep scenarios evenly.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.api.result import RunResult, canonical_digest
from repro.api.runner import (
    run_scenario,
    sweep_scenario,
    sweep_scenario_report,
    sweep_variants,
)
from repro.api.scenario import Scenario

#: Invariant names, as reported in violations and the CLI summary.
INV_ROUNDTRIP = "roundtrip"
INV_CONSERVATION = "conservation"
INV_DETERMINISM = "determinism"
INV_MEGABATCH = "megabatch-differential"
INV_FAST_PATH = "fast-path-differential"
INV_WORKERS = "worker-differential"
INV_LOAD_MONOTONE = "load-monotonicity"
INV_KV_MONOTONE = "kv-monotonicity"
INV_RESUME = "resume-bit-equality"
INV_SNAPSHOT = "snapshot-restore"


@dataclass
class Violation:
    """One invariant broken by one scenario."""

    invariant: str
    scenario_name: str
    detail: str
    scenario: Optional[Scenario] = None

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.scenario_name}: {self.detail}"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "invariant": self.invariant,
            "scenario": self.scenario_name,
            "detail": self.detail,
        }
        if self.scenario is not None:
            out["spec"] = self.scenario.to_dict()
        return out


@dataclass
class CheckOutcome:
    """What one scenario's pass over the catalog settled."""

    violations: List[Violation] = field(default_factory=list)
    checks_run: int = 0


@contextlib.contextmanager
def _env(name: str, value: Optional[str]):
    """Temporarily set (or clear, with None) one environment variable."""
    old = os.environ.get(name)
    if value is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


def _metrics_digest(result: RunResult) -> str:
    """Digest of what the simulation *computed*, excluding provenance.

    The provenance block records how the run was dispatched (fast-path
    flag, executor backend); differential checks that legitimately vary
    those knobs compare this digest instead of the full one.
    """
    return canonical_digest(
        {"metrics": result.metrics, "metadata": result.metadata}
    )


# ----------------------------------------------------------------------
# Structural checks (no extra simulation)
# ----------------------------------------------------------------------
def check_roundtrip(scenario: Scenario) -> List[Violation]:
    """YAML and JSON round-trips are lossless and digest-stable."""
    out: List[Violation] = []
    for fmt, dump, load in (
        ("yaml", scenario.to_yaml, Scenario.from_yaml),
        ("json", scenario.to_json, Scenario.from_json),
    ):
        try:
            text = dump()
            back = load(text)
        except Exception as exc:  # pragma: no cover - a bug if reached
            out.append(Violation(
                INV_ROUNDTRIP, scenario.name,
                f"{fmt} round-trip raised {type(exc).__name__}: {exc}",
                scenario,
            ))
            continue
        if back != scenario:
            out.append(Violation(
                INV_ROUNDTRIP, scenario.name,
                f"{fmt} round-trip changed the spec", scenario,
            ))
        elif back.digest() != scenario.digest():
            out.append(Violation(
                INV_ROUNDTRIP, scenario.name,
                f"{fmt} round-trip changed the digest", scenario,
            ))
    return out


def check_conservation(
    scenario: Scenario, result: RunResult
) -> List[Violation]:
    """Requests can be completed, missed or rejected -- never lost."""
    out: List[Violation] = []

    def bad(detail: str) -> None:
        out.append(
            Violation(INV_CONSERVATION, scenario.name, detail, scenario)
        )

    if scenario.kind in ("open_loop", "cluster"):
        for t in result.metrics.get("tenants", ()):
            offered, completed = t["offered"], t["completed"]
            attained = t["attained"]
            if not 0 <= attained <= completed <= offered:
                bad(
                    f"tenant {t['name']!r}: attained={attained} "
                    f"completed={completed} offered={offered}"
                )
            if offered > 0:
                expect = attained / offered
                if abs(t["attainment"] - expect) > 1e-9:
                    bad(
                        f"tenant {t['name']!r}: attainment="
                        f"{t['attainment']} != attained/offered={expect}"
                    )
        if scenario.kind == "open_loop" and scenario.drain:
            for t in result.metrics.get("tenants", ()):
                if t["completed"] != t["offered"]:
                    bad(
                        f"drain leak: tenant {t['name']!r} offered="
                        f"{t['offered']} completed={t['completed']}"
                    )
        if scenario.kind == "cluster":
            rate = result.metrics.get("admission_rate", 0.0)
            if not 0.0 <= rate <= 1.0:
                bad(f"admission_rate {rate} outside [0, 1]")
    elif scenario.kind == "llm":
        headline = result.metrics["requests"]
        tenants = result.metrics["tenants"]
        arrived = sum(t["arrived"] for t in tenants.values())
        completed = sum(t["completed"] for t in tenants.values())
        if arrived != headline["arrived"]:
            bad(
                f"per-tenant arrived sum {arrived} != "
                f"headline {headline['arrived']}"
            )
        if completed != headline["completed"]:
            bad(
                f"per-tenant completed sum {completed} != "
                f"headline {headline['completed']}"
            )
        if headline["completed"] > headline["arrived"]:
            bad(
                f"completed {headline['completed']} > "
                f"arrived {headline['arrived']}"
            )
        if scenario.drain and headline["completed"] != headline["arrived"]:
            bad(
                f"drain leak: arrived={headline['arrived']} "
                f"completed={headline['completed']}"
            )
    elif scenario.kind == "serving":
        target = result.metadata.get("target_requests")
        for t in result.metrics.get("tenants", ()):
            if t["completed_requests"] < target:
                bad(
                    f"tenant {t['name']!r} completed "
                    f"{t['completed_requests']} < target {target}"
                )
    return out


# ----------------------------------------------------------------------
# Differential checks (extra simulations)
# ----------------------------------------------------------------------
def check_determinism(
    scenario: Scenario,
    result: RunResult,
    run: Callable[[Scenario], RunResult] = run_scenario,
) -> List[Violation]:
    """Same spec, same pipeline -> bit-identical result."""
    again = run(scenario)
    if canonical_digest(again.to_dict()) != canonical_digest(result.to_dict()):
        return [Violation(
            INV_DETERMINISM, scenario.name,
            "repeated run produced a different RunResult digest", scenario,
        )]
    return []


def check_megabatch(
    scenario: Scenario, result: RunResult
) -> List[Violation]:
    """REPRO_SIM_MEGABATCH=0 and =1 agree bit for bit.

    Cluster scenarios exercise the toggle through a plain run, whose
    segments run their busy hosts as lanes of one batch.  Other
    kinds go through a 2-point single-worker sweep, and each swept
    point must also equal a plain ``run_scenario`` of its variant;
    every sweep point is its own batch of one, so this checks the
    toggle on single runs only.  Lane mixing of open-loop
    and serving simulators is covered by ``tests/megabatch`` alone.
    """
    out: List[Violation] = []
    if scenario.kind == "cluster":
        digests = []
        for flag in ("0", "1"):
            with _env("REPRO_SIM_MEGABATCH", flag):
                digests.append(_metrics_digest(run_scenario(scenario)))
        if digests[0] != digests[1]:
            out.append(Violation(
                INV_MEGABATCH, scenario.name,
                "cluster run differs between REPRO_SIM_MEGABATCH=0 and =1",
                scenario,
            ))
        return out
    values = [scenario.load, round(scenario.load * 1.5, 4)]
    digests = []
    base = scenario.replaced(executor=None, sweep=None)
    for flag in ("0", "1"):
        with _env("REPRO_SIM_MEGABATCH", flag):
            results = sweep_scenario(
                base, param="load", values=values, max_workers=1
            )
            digests.append([_metrics_digest(r) for r in results])
    if digests[0] != digests[1]:
        out.append(Violation(
            INV_MEGABATCH, scenario.name,
            "sweep differs between REPRO_SIM_MEGABATCH=0 and =1", scenario,
        ))
    plain = [
        _metrics_digest(run_scenario(variant))
        for variant in sweep_variants(base, "load", values)
    ]
    if plain != digests[1]:
        out.append(Violation(
            INV_MEGABATCH, scenario.name,
            "sweep differs from run_scenario of each variant", scenario,
        ))
    return out


def check_fast_path(
    scenario: Scenario, result: RunResult
) -> List[Violation]:
    """The optimized simulator path computes what the plain path does."""
    with _env("REPRO_SIM_FAST_PATH", "0"):
        slow = run_scenario(scenario)
    if _metrics_digest(slow) != _metrics_digest(result):
        return [Violation(
            INV_FAST_PATH, scenario.name,
            "metrics differ between REPRO_SIM_FAST_PATH=0 and the default",
            scenario,
        )]
    return []


def _dispatch_free_digest(result: RunResult) -> str:
    payload = result.to_dict()
    payload["provenance"].pop("executor", None)
    return canonical_digest(payload)


def check_workers(scenario: Scenario) -> List[Violation]:
    """A sweep's results do not depend on the worker count.

    The pooled side runs one point per task on a two-worker ``pool``
    executor, so its two points really run in separate processes."""
    base = scenario.replaced(executor=None, sweep=None)
    values = [scenario.load, round(scenario.load * 1.25, 4)]
    serial = sweep_scenario(base, param="load", values=values, max_workers=1)
    pooled = sweep_scenario_report(
        base, param="load", values=values, executor="pool", max_workers=2
    ).results
    if [_dispatch_free_digest(r) for r in serial] != [
        _dispatch_free_digest(r) for r in pooled
    ]:
        return [Violation(
            INV_WORKERS, scenario.name,
            "sweep results differ between max_workers=1 and =2", scenario,
        )]
    return []


def _weighted_attainment(result: RunResult, kind: str) -> Optional[float]:
    """Attained / offered over every tenant (None when nothing offered)."""
    if kind == "llm":
        tenants = result.metrics["tenants"].values()
        completed = sum(t["completed"] for t in tenants)
        if completed == 0:
            return None
        attained = sum(
            t["ttft_attainment"] * t["completed"] for t in tenants
        )
        return attained / completed
    offered = sum(t["offered"] for t in result.metrics.get("tenants", ()))
    if offered == 0:
        return None
    attained = sum(t["attained"] for t in result.metrics.get("tenants", ()))
    return attained / offered


def check_load_monotonicity(
    scenario: Scenario,
    result: RunResult,
    tolerance: float,
    run: Callable[[Scenario], RunResult] = run_scenario,
) -> List[Violation]:
    """Doubling offered load cannot *raise* SLO attainment.

    The doubled run draws fresh arrivals, so the comparison carries
    sampling noise; ``tolerance`` absorbs it.  Only open-loop scenarios
    are checked -- cluster admission control and autoscalers may
    legitimately reshape the outcome under pressure.

    Precondition: the base run offers at least ``ceil(1 / tolerance)``
    requests.  A request still in flight when the window ends counts as
    a miss, so below that count a single truncated request moves
    attainment by more than the tolerance, and the relation says
    nothing.  Such base runs are skipped.
    """
    if scenario.kind != "open_loop":
        return []
    base = _weighted_attainment(result, scenario.kind)
    if base is None:
        return []
    offered = sum(t["offered"] for t in result.metrics["tenants"])
    if offered < math.ceil(1.0 / tolerance):
        return []
    doubled = run(
        scenario.replaced(load=round(scenario.load * 2, 6))
    )
    high = _weighted_attainment(doubled, scenario.kind)
    if high is not None and high > base + tolerance:
        return [Violation(
            INV_LOAD_MONOTONE, scenario.name,
            f"attainment rose from {base:.4f} to {high:.4f} "
            f"when load doubled (tolerance {tolerance})", scenario,
        )]
    return []


def check_kv_monotonicity(
    scenario: Scenario, result: RunResult, tolerance: float
) -> List[Violation]:
    """Doubling the LLM KV budget cannot *hurt* TTFT attainment.

    Arrivals are independent of ``m_total`` (capacity pressure comes
    from ``batch_tokens``), so the two runs see identical offered
    streams -- the relation is tight up to preemption-order effects
    absorbed by ``tolerance``.
    """
    if scenario.kind != "llm":
        return []
    base = _weighted_attainment(result, "llm")
    if base is None:
        return []
    block = scenario.llm
    import dataclasses

    bigger = dataclasses.replace(block, m_total=block.m_total * 2)
    roomy = run_scenario(scenario.replaced(llm=bigger))
    high = _weighted_attainment(roomy, "llm")
    if high is not None and high < base - tolerance:
        return [Violation(
            INV_KV_MONOTONE, scenario.name,
            f"TTFT attainment fell from {base:.4f} to {high:.4f} "
            f"when m_total doubled (tolerance {tolerance})", scenario,
        )]
    return []


def check_resume(
    scenario: Scenario, rng: random.Random, workdir: Optional[Path] = None
) -> List[Violation]:
    """A journal truncated at a random byte resumes bit-identically.

    Simulates SIGKILL mid-``fwrite``: run a 2-point sweep journalled to
    disk, chop the journal at a random offset (possibly mid-line), then
    resume -- the merged results must equal an uninterrupted run's.
    """
    base = scenario.replaced(executor=None, sweep=None)
    values = [scenario.load, round(scenario.load * 1.25, 4)]
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        clean_dir = Path(tmp) / "clean"
        torn_dir = Path(tmp) / "torn"
        clean = sweep_scenario_report(
            base, param="load", values=values, executor="serial",
            checkpoint=clean_dir,
        )
        sweep_scenario_report(
            base, param="load", values=values, executor="serial",
            checkpoint=torn_dir,
        )
        journal = torn_dir / "journal.jsonl"
        data = journal.read_bytes()
        if data:
            cut = rng.randrange(0, len(data))
            journal.write_bytes(data[:cut])
        resumed = sweep_scenario_report(
            base, param="load", values=values, executor="serial",
            checkpoint=torn_dir, resume=True,
        )
    clean_digests = [canonical_digest(r.to_dict()) for r in clean.results]
    resumed_digests = [canonical_digest(r.to_dict()) for r in resumed.results]
    if clean_digests != resumed_digests:
        return [Violation(
            INV_RESUME, scenario.name,
            f"resume after truncation diverged "
            f"(resumed {resumed.resumed}/{resumed.total} shards)", scenario,
        )]
    return []


def _finish_from_checkpoint(
    scenario_dict: Dict[str, object], checkpoint_dict: Dict[str, object]
) -> str:
    """Restore a cluster checkpoint and finish the run (child process).

    Module-level so the ``spawn`` context can import it by name; the
    fresh interpreter proves no hidden process state (RNG, caches)
    leaks into the checkpoint contract.
    """
    from repro.api.runner import _cluster_run_result, cluster_inputs
    from repro.traffic.cluster_sim import ClusterSimulation
    from repro.traffic.stepper import ClusterCheckpoint

    scenario = Scenario.from_dict(scenario_dict)
    events, cfg = cluster_inputs(scenario)
    sim = ClusterSimulation.restore(
        ClusterCheckpoint.from_dict(checkpoint_dict), events, cfg
    )
    result = sim.run()
    return _metrics_digest(_cluster_run_result(scenario, cfg, result))


def check_snapshot_restore(
    scenario: Scenario, result: RunResult, rng: random.Random
) -> List[Violation]:
    """A mid-run snapshot restores bit-identically across processes.

    Steps a cluster simulation to a random interior segment boundary,
    snapshots, then restores and completes the run in a *fresh spawned
    interpreter*; its metrics digest must match the uninterrupted
    run's.
    """
    if scenario.kind != "cluster":
        return []
    import multiprocessing

    from repro.api.runner import cluster_inputs
    from repro.traffic.cluster_sim import ClusterSimulation

    events, cfg = cluster_inputs(scenario)
    sim = ClusterSimulation(events, cfg)
    if sim.config_digest is None or sim.total_segments < 2:
        return []
    cut = rng.randrange(1, sim.total_segments)
    while sim.segments_completed < cut and not sim.done:
        sim.step_segment()
    checkpoint = sim.snapshot().to_dict()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        digest = pool.apply(
            _finish_from_checkpoint, (scenario.to_dict(), checkpoint)
        )
    if digest != _metrics_digest(result):
        return [Violation(
            INV_SNAPSHOT, scenario.name,
            f"run restored at segment {cut}/{sim.total_segments} in a "
            "fresh process diverged from the uninterrupted run", scenario,
        )]
    return []


# ----------------------------------------------------------------------
# Catalog driver
# ----------------------------------------------------------------------
def check_scenario(
    scenario: Scenario,
    rng: random.Random,
    tolerance: float = 0.1,
    deep: bool = False,
    workdir: Optional[Path] = None,
    run: Callable[[Scenario], RunResult] = run_scenario,
) -> CheckOutcome:
    """Run the invariant catalog over one scenario.

    Cheap checks (round-trip, conservation, determinism) always run;
    ``deep`` adds the differential and metamorphic ones (each costs
    extra simulations).  ``run`` is injectable for tests.
    """
    outcome = CheckOutcome()

    def record(violations: List[Violation]) -> None:
        outcome.checks_run += 1
        outcome.violations.extend(violations)

    record(check_roundtrip(scenario))
    try:
        result = run(scenario)
    except Exception as exc:
        outcome.checks_run += 1
        outcome.violations.append(Violation(
            INV_CONSERVATION, scenario.name,
            f"run_scenario raised {type(exc).__name__}: {exc}", scenario,
        ))
        return outcome
    record(check_conservation(scenario, result))
    record(check_determinism(scenario, result, run))
    if deep:
        record(check_megabatch(scenario, result))
        record(check_fast_path(scenario, result))
        record(check_load_monotonicity(scenario, result, tolerance, run))
        record(check_kv_monotonicity(scenario, result, tolerance))
        if scenario.kind in ("open_loop", "llm"):
            record(check_workers(scenario))
            record(check_resume(scenario, rng, workdir))
        if scenario.kind == "cluster":
            record(check_snapshot_restore(scenario, result, rng))
    return outcome
