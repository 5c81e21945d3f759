#!/usr/bin/env python
"""Simulator-speed benchmark suite, built on ``repro.api`` scenarios.

Runs one scenario per serving mode the repo models and records, for
each, how fast the simulator chews through simulated time:

- ``closed_loop``    -- fig-style collocation (two tenants, request
  target), the paper's steady-state methodology;
- ``poisson``        -- open-loop Poisson serving at load 0.8 (the
  headline scenario, comparable across PRs);
- ``load_sweep``     -- several open-loop load points fanned out over
  ``repro.api.sweep_scenario`` (scales with worker processes);
- ``cluster_churn``  -- the cluster churn driver over the orchestrator;
- ``cluster_autoscale`` -- the elastic control loop: a traffic spike
  served by the SLO-burn-rate autoscaler vs. static provisioning at the
  same mean host count (reports both attainments; the autoscaled run
  must win);
- ``cluster_virt``    -- the virtualization control plane: the same
  tenant wave admitted against VF-constrained SR-IOV pools (a
  ``virtualization:`` block) vs. unconstrained hosts, reporting
  hypercall counts, VF-exhaustion rejections and the attainment of
  what was admitted;
- ``llm_kv``          -- continuous-batching LLM serving (``kind:
  llm``) under a shrinking HBM KV budget: the same traffic served at
  ample, constrained and tight ``m_total``, reporting preemptions,
  tokens/s goodput and TTFT attainment at each point (the constrained
  points must preempt, and goodput/attainment must degrade
  monotonically as headroom shrinks).  This engine steps per batch,
  not per cycle, so its rates are scheduler steps and generated tokens
  per wall-second;
- ``mega_batch``      -- a 256-point open-loop seed sweep whose points
  each step through the ``repro.megabatch`` chain engine as a batch of
  one, timed against the same sweep with ``REPRO_SIM_MEGABATCH=0``
  (each point stepped by ``Simulator.run()``) at ``max_workers=1``;
  reports the speedup and fails loudly if the two paths disagree on
  total simulated cycles;
- ``sweep_resume``    -- a 64-point seed sweep through
  ``sweep_scenario_report`` with a ``--checkpoint`` journal, timed
  against the same sweep without one (``sweep_scenario``, same
  per-point engine on both sides); reports the checkpointing overhead
  (low single-digit percent) and the wall time of a no-op ``--resume``
  replay.

Every mode is a declarative :class:`repro.api.Scenario` executed through
:func:`repro.api.run_scenario` -- the same path ``repro run`` takes --
so the benchmark measures exactly what users run.  Each record reports
wall time (best of ``repeats`` runs, warm caches), the *simulated*
duration, and headline ``*_per_wall_s`` rates in the mode's own unit:
``simulated_cycles_per_wall_s`` for the cycle-level modes,
``steps_per_wall_s`` and ``tokens_per_wall_s`` for ``llm_kv``.  A full
run's results land in ``BENCH_serving.json`` next to this file, so
successive changes leave a benchmark trajectory; a ``--quick`` smoke run
writes its record only where ``--output`` says, and leaves the
checked-in trajectory alone.

Run:          python benchmarks/bench_serving.py
CI smoke:     python benchmarks/bench_serving.py --quick --check-floor
              (fails if any scenario drops below a checked-in floor in
              BENCH_floor.json, i.e. a >30%-class regression; each floor
              names the rate it bounds; add --output FILE to keep the
              quick record)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.api import (
    Scenario,
    ScenarioAutoscaler,
    ScenarioChurn,
    ScenarioLlm,
    ScenarioTenant,
    run_scenario,
    sweep_scenario,
)
from repro.cluster.autoscale import HostPoolSpec
from repro.cluster.virt import VirtualizationSpec
from repro.config import DEFAULT_CORE
from repro.llmserve.engine import LlmTenantSpec

HERE = Path(__file__).resolve().parent
RESULT_PATH = HERE / "BENCH_serving.json"
FLOOR_PATH = HERE / "BENCH_floor.json"

#: The two-tenant pair every scenario collocates (matches the PR 1
#: benchmark so the poisson trajectory stays comparable).
MODELS = [("MNIST", 8), ("DLRM", 8)]
SCHEME = "neu10"
SEED = 7
#: Default open-loop measurement window (simulated seconds).  Bumped
#: from the seed benchmark's 2 ms so steady-state throughput dominates
#: the cache-warmup transient.
DEFAULT_WINDOW_S = 0.01
QUICK_WINDOW_S = 0.002
LOADS = (0.5, 0.8, 1.1)


def _tenants() -> tuple:
    return tuple(ScenarioTenant(model=m, batch=b) for m, b in MODELS)


def _timed(fn: Callable[[], object], repeats: int) -> tuple:
    """Best wall time over ``repeats`` runs (first call warms caches)."""
    fn()
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def bench_closed_loop(quick: bool, repeats: int) -> Dict:
    target = 20 if quick else 60
    scenario = Scenario(
        name="bench-closed-loop",
        kind="serving",
        scheme=SCHEME,
        tenants=_tenants(),
        target_requests=target,
    )
    result, wall = _timed(lambda: run_scenario(scenario), repeats)
    cycles = result.metrics["simulated_cycles"]
    completed = sum(
        t["completed_requests"] for t in result.metrics["tenants"]
    )
    return {
        "mode": "closed_loop",
        "scheme": SCHEME,
        "target_requests_per_tenant": target,
        "wall_s": wall,
        "requests_completed": completed,
        "requests_simulated_per_s": completed / wall,
        "simulated_cycles": cycles,
        "simulated_s": DEFAULT_CORE.cycles_to_seconds(cycles),
        "simulated_cycles_per_wall_s": cycles / wall,
    }


def _poisson_scenario(window_s: float, load: float = 0.8) -> Scenario:
    return Scenario(
        name="bench-poisson",
        kind="open_loop",
        scheme=SCHEME,
        tenants=_tenants(),
        arrival="poisson",
        load=load,
        duration_s=window_s,
        seed=SEED,
    )


def bench_poisson(quick: bool, repeats: int) -> Dict:
    window_s = QUICK_WINDOW_S if quick else DEFAULT_WINDOW_S
    scenario = _poisson_scenario(window_s)
    result, wall = _timed(lambda: run_scenario(scenario), repeats)
    tenants = result.metrics["tenants"]
    offered = sum(rep["offered"] for rep in tenants)
    completed = sum(rep["completed"] for rep in tenants)
    cycles = result.metrics["simulated_cycles"]
    return {
        "mode": "open_loop",
        "scheme": SCHEME,
        "arrival": "poisson",
        "load": 0.8,
        "seed": SEED,
        "window_simulated_s": window_s,
        "wall_s": wall,
        "requests_offered": offered,
        "requests_completed": completed,
        "requests_simulated_per_s": completed / wall,
        "simulated_cycles": cycles,
        "simulated_s": DEFAULT_CORE.cycles_to_seconds(cycles),
        "simulated_cycles_per_wall_s": cycles / wall,
        "min_attainment": result.metrics["min_attainment"],
    }


def bench_load_sweep(quick: bool, repeats: int) -> Dict:
    loads = LOADS[:2] if quick else LOADS
    base = _poisson_scenario(QUICK_WINDOW_S)

    def sweep() -> float:
        results = sweep_scenario(base, param="load", values=list(loads))
        return sum(r.metrics["simulated_cycles"] for r in results)

    cycles, wall = _timed(sweep, repeats)
    return {
        "mode": "load_sweep",
        "scheme": SCHEME,
        "loads": list(loads),
        "window_simulated_s_per_point": QUICK_WINDOW_S,
        "wall_s": wall,
        "simulated_cycles": cycles,
        "simulated_s": DEFAULT_CORE.cycles_to_seconds(cycles),
        "simulated_cycles_per_wall_s": cycles / wall,
    }


def bench_cluster_churn(quick: bool, repeats: int) -> Dict:
    end_s = 0.002 if quick else 0.004
    (m1, b1), (m2, b2) = MODELS
    scenario = Scenario(
        name="bench-cluster-churn",
        kind="cluster",
        scheme=SCHEME,
        arrival="poisson",
        load=0.8,
        duration_s=end_s,
        seed=SEED,
        hosts=2,
        churn=(
            ScenarioChurn(0.0, "arrive", "a", model=m1, batch=b1),
            ScenarioChurn(0.0, "arrive", "b", model=m2, batch=b2),
            ScenarioChurn(end_s / 2, "arrive", "c", model=m1, batch=b1),
            ScenarioChurn(end_s * 0.75, "depart", "b"),
        ),
    )
    result, wall = _timed(lambda: run_scenario(scenario), repeats)
    completed = sum(rep["completed"] for rep in result.metrics["tenants"])
    # Exact: summed over hosts and segments by the cluster driver
    # (drained hosts stop before the segment boundary, so this can be
    # below hosts x horizon).
    cycles = result.metrics["simulated_cycles"]
    return {
        "mode": "cluster_churn",
        "scheme": SCHEME,
        "num_hosts": scenario.hosts,
        "horizon_simulated_s": end_s,
        "segments": result.metrics["segments"],
        "wall_s": wall,
        "requests_completed": completed,
        "requests_simulated_per_s": completed / wall,
        "simulated_cycles": cycles,
        "simulated_s": DEFAULT_CORE.cycles_to_seconds(cycles),
        "simulated_cycles_per_wall_s": cycles / wall,
    }


def _autoscale_scenario(end_s: float, policy: str,
                        initial_hosts: int) -> Scenario:
    """A traffic spike: 2 steady tenants, 6 more for the middle 40%.

    Tenants ask 1 ME / 1 VE so admission never rejects; what moves SLO
    attainment is harvesting headroom, i.e. how many tenants share a
    host.  The reactive policy grows the fleet for the spike and drains
    it afterwards; the ``static`` policy pins ``initial_hosts`` (same
    observation boundaries, hence identical arrival draws).
    """
    churn = [
        ScenarioChurn(0.0, "arrive", f"base{i}", model="MNIST", batch=8,
                      num_mes=1, num_ves=1)
        for i in range(2)
    ]
    churn += [
        ScenarioChurn(end_s * 0.25, "arrive", f"peak{i}", model="MNIST",
                      batch=8, num_mes=1, num_ves=1)
        for i in range(6)
    ]
    churn += [
        ScenarioChurn(end_s * 0.65, "depart", f"peak{i}") for i in range(6)
    ]
    return Scenario(
        name=f"bench-cluster-autoscale-{policy}",
        kind="cluster",
        scheme=SCHEME,
        arrival="poisson",
        load=0.5,
        duration_s=end_s,
        seed=SEED,
        churn=tuple(churn),
        pools=(HostPoolSpec(name="pool", min_hosts=1, max_hosts=4,
                            initial_hosts=initial_hosts),),
        autoscaler=ScenarioAutoscaler(
            policy=policy,
            interval_s=end_s / 16,
            params={"slo_target": 0.75} if policy == "slo-burn-rate" else {},
        ),
    )


def bench_cluster_autoscale(quick: bool, repeats: int) -> Dict:
    # The control loop needs the full spike shape to show its value
    # (ramp, sustained peak, drain tail), so quick mode keeps the
    # window and only saves on repeats.
    end_s = 0.004
    elastic = _autoscale_scenario(end_s, "slo-burn-rate", initial_hosts=1)
    result, wall = _timed(lambda: run_scenario(elastic), repeats)
    mean_hosts = result.metrics["mean_active_hosts"]
    # Static provisioning at the same mean host count (rounded to a
    # whole machine), over the same boundaries and arrival draws.
    static_hosts = max(1, round(mean_hosts))
    static = run_scenario(
        _autoscale_scenario(end_s, "static", initial_hosts=static_hosts)
    )
    cycles = result.metrics["simulated_cycles"]
    events = result.metrics["autoscale_events"]
    return {
        "mode": "cluster_autoscale",
        "scheme": SCHEME,
        "policy": "slo-burn-rate",
        "horizon_simulated_s": end_s,
        "wall_s": wall,
        "autoscaled_attainment": result.metrics["cluster_attainment"],
        "autoscaled_mean_hosts": mean_hosts,
        "scaling_actions": len(events),
        "static_hosts": static_hosts,
        "static_attainment": static.metrics["cluster_attainment"],
        "attainment_gain": (
            result.metrics["cluster_attainment"]
            - static.metrics["cluster_attainment"]
        ),
        "simulated_cycles": cycles,
        "simulated_s": DEFAULT_CORE.cycles_to_seconds(cycles),
        "simulated_cycles_per_wall_s": cycles / wall,
    }


def _virt_scenario(end_s: float,
                   virtualization: Optional[VirtualizationSpec]) -> Scenario:
    """A wave of eight small tenants over two 2-VF hosts.

    Engine-wise every host takes four 1ME/1VE tenants, so without the
    ``virtualization:`` block the whole wave is admitted; with 2 VFs
    per host the SR-IOV pool is the binding constraint and half the
    wave is rejected ``vf-exhausted``.  The non-zero hypercall cost
    charges onboarding/migration latency against the admitted tenants.
    """
    churn = [
        ScenarioChurn(0.0, "arrive", f"w{i}", model="MNIST", batch=8,
                      num_mes=1, num_ves=1)
        for i in range(4)
    ]
    churn += [
        ScenarioChurn(end_s * 0.25, "arrive", f"w{4 + i}", model="MNIST",
                      batch=8, num_mes=1, num_ves=1)
        for i in range(4)
    ]
    churn += [ScenarioChurn(end_s * 0.75, "depart", "w0")]
    return Scenario(
        name="bench-cluster-virt",
        kind="cluster",
        scheme=SCHEME,
        arrival="poisson",
        load=0.5,
        duration_s=end_s,
        seed=SEED,
        churn=tuple(churn),
        pools=(HostPoolSpec(name="pool", min_hosts=2, max_hosts=2,
                            initial_hosts=2),),
        virtualization=virtualization,
    )


def bench_cluster_virt(quick: bool, repeats: int) -> Dict:
    end_s = 0.002 if quick else 0.004
    constrained = _virt_scenario(
        end_s,
        VirtualizationSpec(num_vfs=2, hypercall_cost_s=end_s / 100),
    )
    result, wall = _timed(lambda: run_scenario(constrained), repeats)
    virt = result.metrics["virtualization"]
    # The same wave with default (non-binding) VF pools: everything is
    # admitted, showing what the VF constraint cost in admissions.
    unconstrained = run_scenario(_virt_scenario(end_s, None))
    cycles = result.metrics["simulated_cycles"]
    return {
        "mode": "cluster_virt",
        "scheme": SCHEME,
        "num_vfs_per_host": 2,
        "horizon_simulated_s": end_s,
        "wall_s": wall,
        "hypercalls": virt["hypercall_total"],
        "vf_exhaustion_rejections": virt["vf_exhaustion_rejections"],
        "peak_vf_in_use": virt["peak_vf_in_use"],
        "onboarding_delay_s": virt["onboarding_delay_s"],
        "admission_rate": result.metrics["admission_rate"],
        "constrained_attainment": result.metrics["cluster_attainment"],
        "unconstrained_admission_rate":
            unconstrained.metrics["admission_rate"],
        "simulated_cycles": cycles,
        "simulated_s": DEFAULT_CORE.cycles_to_seconds(cycles),
        "simulated_cycles_per_wall_s": cycles / wall,
    }


#: Ample -> constrained -> tight HBM KV budgets (tokens).  The ample
#: point never preempts; the constrained points must.
LLM_KV_BUDGETS = (16_384, 4_096, 2_048)


def _llm_scenario(m_total: int, duration_s: float) -> Scenario:
    """Two LLM tenants at load 0.9; step costs calibrated on the sim."""
    return Scenario(
        name=f"bench-llm-kv-m{m_total}",
        kind="llm",
        scheme=SCHEME,
        arrival="poisson",
        load=0.9,
        duration_s=duration_s,
        seed=SEED,
        drain=True,
        llm=ScenarioLlm(
            tenants=(
                LlmTenantSpec(name="chat", prompt_tokens=256,
                              decode_tokens=64),
                LlmTenantSpec(name="code", prompt_tokens=512,
                              decode_tokens=128, weight=0.5),
            ),
            batch_tokens=1024,
            m_total=m_total,
        ),
    )


def bench_llm_kv(quick: bool, repeats: int) -> Dict:
    duration_s = 0.25 if quick else 0.5
    ample, *constrained = LLM_KV_BUDGETS
    tightest = constrained[-1]
    result, wall = _timed(
        lambda: run_scenario(_llm_scenario(tightest, duration_s)), repeats
    )
    steps = result.metrics["steps"]
    tokens = sum(
        t["generated_tokens"] for t in result.metrics["tenants"].values()
    )
    # The same traffic at every headroom point (ample first).
    points = {tightest: result}
    for m_total in LLM_KV_BUDGETS:
        if m_total not in points:
            points[m_total] = run_scenario(_llm_scenario(m_total, duration_s))

    def ttft_attainment(res) -> float:
        tenants = res.metrics["tenants"].values()
        return min(t["ttft_attainment"] for t in tenants)

    return {
        "mode": "llm_kv",
        "scheme": SCHEME,
        "preemption_mode": "swap",
        "victim_policy": "lifo",
        "batch_tokens": 1024,
        "m_total_points": list(LLM_KV_BUDGETS),
        "horizon_simulated_s": duration_s,
        "wall_s": wall,
        "steps": steps,
        "generated_tokens": tokens,
        "preemptions_by_m_total": {
            str(m): points[m].metrics["preemption"]["count"]
            for m in LLM_KV_BUDGETS
        },
        "goodput_tokens_per_s_by_m_total": {
            str(m): points[m].metrics["goodput_tokens_per_s"]
            for m in LLM_KV_BUDGETS
        },
        "ttft_attainment_by_m_total": {
            str(m): ttft_attainment(points[m]) for m in LLM_KV_BUDGETS
        },
        "constrained_preemptions": sum(
            points[m].metrics["preemption"]["count"] for m in constrained
        ),
        "simulated_s": DEFAULT_CORE.cycles_to_seconds(
            result.metrics["simulated_cycles"]
        ),
        "steps_per_wall_s": steps / wall,
        "tokens_per_wall_s": tokens / wall,
    }


def bench_mega_batch(quick: bool, repeats: int) -> Dict:
    """Seed sweep through the mega-batch chain engine.

    Hundreds of independent windows of the same scenario, differing
    only in their arrival draws: each sweep point runs as its own
    executor shard and steps through the chain engine as a batch of
    one, whose chain nodes (memoized epoch skip-ahead) are shared
    process-wide, so later points start warm.  The mode times the same
    sweep twice -- engine on (default) and forced off via
    ``REPRO_SIM_MEGABATCH=0``, which steps each point with
    ``Simulator.run()`` -- with ``max_workers=1`` on both sides so the
    ratio isolates the engine rather than pool scaling.  Totals
    must match bit-for-bit; the headline rate is the engine-on rate,
    and the CI floor bounds ``speedup_vs_per_point``, which falls to
    about 1 when the chain engine disengages.
    """
    import os

    from repro.megabatch import MEGABATCH_ENV

    points = 64 if quick else 256
    # Full mode uses a longer window so per-point setup (scenario
    # parse, calibration-cache lookups, arrival generation -- paid
    # identically on both sides) doesn't dilute the engine ratio.
    window_s = QUICK_WINDOW_S if quick else 0.004
    base = _poisson_scenario(window_s)
    seeds = list(range(points))

    def sweep() -> float:
        results = sweep_scenario(base, param="seed", values=seeds,
                                 max_workers=1)
        return sum(r.metrics["simulated_cycles"] for r in results)

    saved = os.environ.get(MEGABATCH_ENV)
    try:
        os.environ[MEGABATCH_ENV] = "1"
        cycles, wall = _timed(sweep, repeats)
        os.environ[MEGABATCH_ENV] = "0"
        # The scalar path is ~4x slower; one timed run (after the
        # warm-up _timed always does) keeps the mode affordable.
        scalar_cycles, scalar_wall = _timed(sweep, 1)
    finally:
        if saved is None:
            os.environ.pop(MEGABATCH_ENV, None)
        else:
            os.environ[MEGABATCH_ENV] = saved
    if cycles != scalar_cycles:
        raise RuntimeError(
            f"mega-batch sweep diverged from the scalar path: "
            f"{cycles} vs {scalar_cycles} simulated cycles"
        )
    return {
        "mode": "mega_batch",
        "scheme": SCHEME,
        "sweep_param": "seed",
        "sweep_points": points,
        "window_simulated_s_per_point": window_s,
        "wall_s": wall,
        "scalar_wall_s": scalar_wall,
        "speedup_vs_per_point": scalar_wall / wall,
        "simulated_cycles": cycles,
        "simulated_s": DEFAULT_CORE.cycles_to_seconds(cycles),
        "simulated_cycles_per_wall_s": cycles / wall,
        "scalar_simulated_cycles_per_wall_s": scalar_cycles / scalar_wall,
    }


def bench_sweep_resume(quick: bool, repeats: int) -> Dict:
    """Checkpointed sweep vs the same sweep without a journal.

    A seed sweep run three ways: ``sweep_scenario`` at
    ``max_workers=1`` (the baseline), the same sweep through
    ``sweep_scenario_report`` with the ``serial`` backend and a
    ``--checkpoint`` journal (fsynced JSONL appends are the only extra
    work), and a no-op ``--resume`` of the finished journal.  Both
    timed sides run one point per shard and force
    ``REPRO_SIM_MEGABATCH=0``, so the ratio measures journal overhead
    alone.  The headline ``overhead_vs_bare`` stays in the low
    single-digit percent; cycle totals must match bit-for-bit.
    """
    import os
    import shutil
    import tempfile

    from repro.api import sweep_scenario_report
    from repro.megabatch import MEGABATCH_ENV

    points = 16 if quick else 64
    window_s = QUICK_WINDOW_S if quick else 0.004
    base = _poisson_scenario(window_s)
    seeds = list(range(points))

    def bare() -> float:
        results = sweep_scenario(base, param="seed", values=seeds,
                                 max_workers=1)
        return sum(r.metrics["simulated_cycles"] for r in results)

    scratch = Path(tempfile.mkdtemp(prefix="bench-sweep-resume-"))
    counter = {"n": 0}

    def _next_ck() -> Path:
        counter["n"] += 1
        return scratch / f"ck-{counter['n']}"

    def checkpointed() -> float:
        report = sweep_scenario_report(
            base, param="seed", values=seeds, executor="serial",
            checkpoint=_next_ck(),
        )
        return sum(r.metrics["simulated_cycles"] for r in report.results)

    saved = os.environ.get(MEGABATCH_ENV)
    try:
        os.environ[MEGABATCH_ENV] = "0"
        bare_cycles, bare_wall = _timed(bare, repeats)
        cycles, wall = _timed(checkpointed, repeats)

        # No-op resume of the last finished journal: every shard is
        # replayed from disk, nothing is simulated.
        last_ck = scratch / f"ck-{counter['n']}"

        def resume_noop() -> float:
            report = sweep_scenario_report(
                base, param="seed", values=seeds, executor="serial",
                checkpoint=last_ck, resume=True,
            )
            assert report.executed == 0
            return sum(
                r.metrics["simulated_cycles"] for r in report.results
            )

        resume_cycles, resume_wall = _timed(resume_noop, repeats)
    finally:
        if saved is None:
            os.environ.pop(MEGABATCH_ENV, None)
        else:
            os.environ[MEGABATCH_ENV] = saved
        shutil.rmtree(scratch, ignore_errors=True)

    if not (cycles == bare_cycles == resume_cycles):
        raise RuntimeError(
            f"checkpointed sweep diverged from the bare path: "
            f"{cycles} vs {bare_cycles} vs {resume_cycles} (resume) "
            "simulated cycles"
        )
    return {
        "mode": "sweep_resume",
        "scheme": SCHEME,
        "sweep_param": "seed",
        "sweep_points": points,
        "window_simulated_s_per_point": window_s,
        "wall_s": wall,
        "bare_wall_s": bare_wall,
        "overhead_vs_bare": wall / bare_wall - 1.0,
        "resume_noop_wall_s": resume_wall,
        "simulated_cycles": cycles,
        "simulated_s": DEFAULT_CORE.cycles_to_seconds(cycles),
        "simulated_cycles_per_wall_s": cycles / wall,
    }


SCENARIOS = {
    "closed_loop": bench_closed_loop,
    "poisson": bench_poisson,
    "load_sweep": bench_load_sweep,
    "cluster_churn": bench_cluster_churn,
    "cluster_autoscale": bench_cluster_autoscale,
    "cluster_virt": bench_cluster_virt,
    "llm_kv": bench_llm_kv,
    "mega_batch": bench_mega_batch,
    "sweep_resume": bench_sweep_resume,
}


#: Suffix of every headline rate key in a mode's record.
RATE_SUFFIX = "_per_wall_s"


def _rates(scenario: Dict) -> str:
    """A record's headline rates, each in its own unit."""
    return ", ".join(
        f"{value:,.0f} {key[: -len(RATE_SUFFIX)].replace('_', ' ')}/wall-s"
        for key, value in scenario.items()
        if key.endswith(RATE_SUFFIX)
    )


def run_suite(quick: bool = False, repeats: int = 3) -> Dict:
    from repro.sim.engine import _fast_path_default

    scenarios = {}
    for name, bench in SCENARIOS.items():
        scenarios[name] = bench(quick, repeats)
        print(f"{name:>14}: {_rates(scenarios[name])}")
    return {
        "suite_version": 2,
        "quick": quick,
        "repeats": repeats,
        "fast_path": _fast_path_default(),
        "scenarios": scenarios,
    }


def _fmt_floor_value(value: float) -> str:
    """Rates print as whole numbers; ratios keep their decimals."""
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:,.2f}"


def check_floor(record: Dict, floor_path: Path = FLOOR_PATH) -> List[str]:
    """Compare scenario rates against the checked-in floor values.

    Each floor entry maps a mode to ``{rate key: minimum}``, so a mode
    is gated on the rate (or ratio) its floor names, in its own unit."""
    if not floor_path.exists():
        return [f"floor file missing: {floor_path}"]
    floors = json.loads(floor_path.read_text(encoding="utf-8"))
    failures = []
    for name, minimums in floors.get("floors", {}).items():
        scenario = record["scenarios"].get(name)
        if scenario is None:
            failures.append(f"scenario {name!r} missing from results")
            continue
        for key, floor in minimums.items():
            rate = scenario.get(key)
            if rate is None:
                failures.append(f"{name}: no {key!r} in results")
            elif rate < floor:
                failures.append(
                    f"{name}: {key} {_fmt_floor_value(rate)} below floor "
                    f"{_fmt_floor_value(floor)}"
                )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny windows (CI smoke)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per scenario (best wins)")
    parser.add_argument("--check-floor", action="store_true",
                        help="fail if any scenario regresses below "
                             "BENCH_floor.json")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the record here (default: "
                             "BENCH_serving.json next to this script for "
                             "a full run, nowhere for --quick)")
    args = parser.parse_args(argv)

    record = run_suite(quick=args.quick, repeats=args.repeats)
    output = args.output
    if output is None and not args.quick:
        output = RESULT_PATH
    if output is not None:
        output.write_text(json.dumps(record, indent=2) + "\n",
                          encoding="utf-8")
        print(f"wrote {output}")

    if args.check_floor:
        failures = check_floor(record)
        if failures:
            for failure in failures:
                print(f"FLOOR REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("all scenarios at or above the checked-in floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
