"""The traced run: each workload's layers called one by one, in-process.

A traced run calls the public function of each layer serially from the
benchmark's own code and records a span around every call (name,
start, end, parent) plus counters read at the same boundaries.  Spans
and counters stay in memory and are written out when the run ends.

The same call sequence runs twice, in two fresh processes: once with
recording on and once with it off; the wall-time difference is the
tracing overhead.  The recording process also times each workload's
fan-out (``parallel_map`` or the executor) before its serial calls, so
the per-layer numbers can be set against the pool's wall time.

The serial calls reproduce the timed run's outputs exactly, and their
digest is checked against the timed run's.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import bench_common as bc

#: Sweep points per megabatch chunk, as the sweep's own fan-out uses.
CHUNK = 64


class Tracer:
    """In-memory spans and counters; a no-op when disabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: [name, start, end, parent index or -1]
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def ms(self, name: str, pct: Optional[float] = None) -> float:
        """Median (or the ``pct`` percentile) duration of ``name``, ms."""
        values = [d * 1e3 for d in self.durations(name)]
        if pct is None:
            return statistics.median(values)
        return bc.percentile(values, pct)

    def coverage(self, t0: float, t1: float) -> float:
        """Share of ``[t0, t1]`` covered by root spans."""
        covered = sum(
            end - start for _, start, end, parent in self.spans if parent < 0
        )
        return covered / (t1 - t0) if t1 > t0 else 0.0


def _memo_size(sim: Any) -> int:
    """Plans in the simulator's (internal) decision memo, or 0 when the
    attribute is gone (the metric then reads as not exercised)."""
    return len(getattr(sim, "_decision_memo", ()))


# ----------------------------------------------------------------------
# paper_figs
# ----------------------------------------------------------------------
def paper_figs(tr: Tracer, seed: int, out: Dict[str, Any]) -> None:
    del seed
    with tr.span("import"):
        from repro.api import run_scenario
        from repro.config import DEFAULT_CORE
        from repro.experiments import expected
        from repro.experiments.common import (
            DEFAULT_TARGET_REQUESTS,
            PairRun,
            specs_for_pair,
        )
        from repro.experiments.fig19_22_serving import ServingComparison
        from repro.parallel import default_workers
        from repro.serving.server import (
            ALL_SCHEMES,
            ServingConfig,
            finalize_collocation,
            prepare_collocation,
        )
        from repro.workloads.traces import build_trace

    scenario = bc.figure_scenario()
    with tr.span("api.validate"):
        scenario.validate()
        scenario.digest()
    if tr.enabled:
        # The fan-out as `repro fig fig19` runs it.  Its workers build
        # and simulate in their own processes, so this process stays
        # cold for the serial calls below.
        with tr.span("parallel.fanout"):
            figure = run_scenario(scenario)
        out["api.result_json_bytes"] = len(json.dumps(figure.to_dict()))

    t_serial = time.perf_counter()
    models = sorted({(m, expected.batch_of(m)) for p in expected.ALL_PAIRS
                     for m in p})
    for model, batch in models:
        with tr.span("workloads.build_trace"):
            trace = build_trace(model, batch, core=DEFAULT_CORE)
            trace.compiled("neuisa")
            trace.compiled("vliw")
    cfg = ServingConfig(core=DEFAULT_CORE, target_requests=DEFAULT_TARGET_REQUESTS)
    runs = []
    for w1, w2 in expected.ALL_PAIRS:
        run = PairRun(w1=w1, w2=w2)
        specs = specs_for_pair(w1, w2, DEFAULT_CORE)
        with tr.span("pair"):
            for scheme in ALL_SCHEMES:
                with tr.span("sim.prepare"):
                    prep = prepare_collocation(specs, scheme, cfg)
                plans = _memo_size(prep.sim)
                with tr.span(f"sim.run.{scheme}"):
                    result = prep.sim.run()
                with tr.span("serving.finalize"):
                    run.results[scheme] = finalize_collocation(prep, result)
                cache = getattr(prep.sim, "_factor_cache", None)
                tr.count(f"hbm.hits.{scheme}", getattr(cache, "hits", 0))
                tr.count(f"hbm.misses.{scheme}", getattr(cache, "misses", 0))
                tr.count(
                    f"sim.memo_plans.{scheme}",
                    _memo_size(prep.sim) - plans,
                )
                tr.count(f"sim.cycles.{scheme}", result.total_cycles)
        runs.append(run)
    out["serial_s"] = time.perf_counter() - t_serial

    model = bc.figure_model(ServingComparison(runs))
    out["outputs"] = bc.figure_outputs(runs, model)
    if not tr.enabled:
        return
    for scheme in ALL_SCHEMES:
        run_s = tr.total(f"sim.run.{scheme}")
        hits = tr.counters.get(f"hbm.hits.{scheme}", 0)
        lookups = hits + tr.counters.get(f"hbm.misses.{scheme}", 0)
        out[f"sim.run_s.{scheme}"] = run_s
        out[f"sim.cycles_per_s.{scheme}"] = (
            tr.counters.get(f"sim.cycles.{scheme}", 0) / run_s
        )
        out[f"sim.memo_plans.{scheme}"] = tr.counters.get(
            f"sim.memo_plans.{scheme}", 0
        )
        out[f"hbm.hit_ratio.{scheme}"] = hits / lookups if lookups else 0.0
    out["api.validate_ms"] = tr.ms("api.validate")
    out["workloads.build_trace_ms"] = tr.ms("workloads.build_trace")
    out["serving.finalize_ms"] = tr.ms("serving.finalize")
    compute = tr.total("pair") + tr.total("workloads.build_trace")
    fanout = tr.total("parallel.fanout")
    out["parallel.idle_share"] = 1.0 - compute / (default_workers() * fanout)


# ----------------------------------------------------------------------
# seed_sweep
# ----------------------------------------------------------------------
def _open_loop_inputs(scenario):
    """The open-loop engine inputs a scenario describes, built from the
    public spec classes."""
    from repro.traffic.openloop import OpenLoopConfig, TrafficTenantSpec
    from repro.traffic.slo import SloSpec

    specs = [
        TrafficTenantSpec(
            model=t.model,
            batch=t.batch,
            weight=t.weight,
            slo=SloSpec(target_cycles=t.slo_target_cycles,
                        relative=t.slo_relative),
            alloc_mes=t.alloc_mes,
            alloc_ves=t.alloc_ves,
            priority=t.priority,
            arrival=t.arrival,
        )
        for t in scenario.tenants
    ]
    cfg = OpenLoopConfig(
        core=scenario.core(),
        duration_s=scenario.duration_s,
        load=scenario.load,
        arrival=scenario.arrival,
        seed=scenario.seed,
        drain=scenario.drain,
    )
    return specs, cfg


def seed_sweep(tr: Tracer, seed: int, out: Dict[str, Any]) -> None:
    with tr.span("import"):
        from repro.api import (
            run_scenario,
            sweep_scenario,
            sweep_scenario_report,
            sweep_variants,
        )
        from repro.config import spawn_rng
        from repro.exec import SweepJournal
        from repro.megabatch import MegaBatchEngine
        from repro.parallel import default_workers
        from repro.traffic.openloop import (
            arrival_process_for,
            finalize_open_loop,
            isolated_service_cycles,
            prepare_open_loop,
        )

    scenario = bc.sweep_base_scenario()
    seeds = bc.sweep_seeds(seed)
    bc.WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="traced-", dir=bc.WORK_DIR)
    try:
        if tr.enabled:
            with tr.span("parallel.sweep"):
                sweep_scenario(scenario, param="seed", values=seeds)
            with tr.span("exec.sweep"):
                sweep_scenario_report(
                    scenario, param="seed", values=seeds, executor="pool",
                    checkpoint=f"{workdir}/pool",
                )

        t_serial = time.perf_counter()
        variants = sweep_variants(scenario, "seed", seeds)
        calibrated = set()
        lanes: List[Any] = []
        for start in range(0, len(variants), CHUNK):
            with tr.span("chunk"):
                preps = []
                for variant in variants[start:start + CHUNK]:
                    with tr.span("api.validate"):
                        variant.validate()
                        variant.digest()
                    specs, cfg = _open_loop_inputs(variant)
                    core = cfg.core
                    for idx, spec in enumerate(specs):
                        key = (spec.model, spec.batch)
                        if key not in calibrated:
                            calibrated.add(key)
                            with tr.span("openloop.calibrate"):
                                isolated_service_cycles(
                                    spec, variant.scheme, core, len(specs)
                                )
                        svc = isolated_service_cycles(
                            spec, variant.scheme, core, len(specs)
                        )
                        cycles = core.seconds_to_cycles(cfg.duration_s)
                        with tr.span("arrivals.generate"):
                            arrivals = arrival_process_for(
                                spec, cfg, svc, cycles
                            ).generate(
                                cycles,
                                spawn_rng(cfg.seed, variant.scheme,
                                          spec.model, idx),
                            )
                        tr.count("arrivals.count", len(arrivals))
                    with tr.span("openloop.prepare"):
                        preps.append(
                            prepare_open_loop(specs, variant.scheme, cfg)
                        )
                with tr.span("megabatch.run"):
                    engine = MegaBatchEngine([p.sim for p in preps])
                    results = engine.run()
                stats = getattr(engine, "group_stats", {})
                for key in ("lanes", "array_epochs", "object_epochs"):
                    tr.count(f"megabatch.{key}", stats.get(key, 0))
                for prep, result in zip(preps, results):
                    with tr.span("serving.finalize"):
                        lanes.append(finalize_open_loop(prep, result))

        journal = SweepJournal(
            f"{workdir}/serial", "perfbench", [v.digest() for v in variants]
        )
        points = []
        try:
            for variant in variants:
                with tr.span("point"):
                    with tr.span("exec.run_scenario"):
                        point = run_scenario(variant).to_dict()
                    with tr.span("api.result_json"):
                        size = len(json.dumps(point))
                    with tr.span("journal.record"):
                        journal.record(variant.digest(), point)
                tr.count("api.result_json_bytes", size)
                points.append(point)
        finally:
            journal.close()
        out["serial_s"] = time.perf_counter() - t_serial
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out["outputs"] = [bc.strip_provenance(p) for p in points]
    out["problems"] = [
        f"megabatch lane != run_scenario at {p['scenario']}"
        for lane, p in zip(lanes, points)
        if _lane_summary(lane) != _point_summary(p)
    ]
    if not tr.enabled:
        return
    workers = default_workers()
    n = len(variants)
    lanes_run = tr.counters.get("megabatch.lanes", 0)
    array = tr.counters.get("megabatch.array_epochs", 0)
    epochs = array + tr.counters.get("megabatch.object_epochs", 0)
    out.update({
        "api.validate_ms": tr.ms("api.validate"),
        "api.result_json_bytes": tr.counters["api.result_json_bytes"] / n,
        "openloop.calibrate_ms": tr.ms("openloop.calibrate"),
        "openloop.prepare_ms": tr.ms("openloop.prepare"),
        "arrivals.generate_ms": tr.ms("arrivals.generate"),
        "arrivals.count": tr.counters.get("arrivals.count", 0) / n,
        "serving.finalize_ms": tr.ms("serving.finalize"),
        "megabatch.run_s": tr.total("megabatch.run"),
        "megabatch.lanes": lanes_run,
        "megabatch.array_epoch_share": array / epochs if epochs else 0.0,
        "parallel.overhead_share": 1.0 - tr.total("chunk") / (
            workers * tr.total("parallel.sweep")
        ),
        "exec.overhead_share": 1.0 - tr.total("exec.run_scenario") / (
            workers * tr.total("exec.sweep")
        ),
        "journal.record_ms.p50": tr.ms("journal.record"),
        "journal.record_ms.p99": tr.ms("journal.record", 99),
    })


def _lane_summary(result) -> Dict[str, Any]:
    return {
        "min_attainment": result.min_attainment,
        "simulated_cycles": result.total_cycles,
        "tenants": [
            (r.name, r.offered, r.completed, r.attained)
            for r in result.reports
        ],
    }


def _point_summary(point) -> Dict[str, Any]:
    m = point["metrics"]
    return {
        "min_attainment": m["min_attainment"],
        "simulated_cycles": m["simulated_cycles"],
        "tenants": [
            (t["name"], t["offered"], t["completed"], t["attained"])
            for t in m["tenants"]
        ],
    }


# ----------------------------------------------------------------------
# serve_session
# ----------------------------------------------------------------------
def serve_session(tr: Tracer, seed: int, out: Dict[str, Any]) -> None:
    with tr.span("import"):
        from repro.api import cluster_inputs
        from repro.serve import ServeController, sign_checkpoint
        from repro.traffic.cluster_sim import ClusterSimulation
        from repro.traffic.openloop import (
            TrafficTenantSpec,
            isolated_service_cycles,
        )
        from repro.traffic.stepper import ClusterCheckpoint

    scenario = bc.serve_scenario()
    script = bc.whatif_script(seed)
    with tr.span("api.validate"):
        scenario.validate()
        scenario.digest()
    ctl = ServeController(scenario)

    t_serial = time.perf_counter()
    _events, cfg = cluster_inputs(scenario)
    nominal = cfg.core.with_engines(
        cfg.core.num_mes * cfg.cores_per_host,
        cfg.core.num_ves * cfg.cores_per_host,
    )
    for event in scenario.churn:
        if event.model is None:
            continue
        spec = TrafficTenantSpec(
            model=event.model, batch=event.batch,
            alloc_mes=event.num_mes, alloc_ves=event.num_ves,
        )
        with tr.span("openloop.calibrate"):
            isolated_service_cycles(spec, cfg.scheme, nominal)

    sizes: List[tuple] = []

    def advance() -> None:
        sim = ctl.sim
        tr.count("cluster.busy_hosts",
                 len({r.host.name for r in sim.residents.values()}))
        tr.count("cluster.segments")
        with tr.span("serve.advance"):
            with tr.span("cluster.step_segment"):
                observation = sim.step_segment()
            if observation is not None:
                observation.to_dict()

    whatifs: List[str] = []
    while not ctl.sim.done:
        advance()
        done = ctl.sim.segments_completed
        if not bc.whatif_due(done, ctl.sim.total_segments, script):
            continue
        with tr.span("checkpoint.snapshot"):
            checkpoint = ctl.sim.snapshot()
        sizes.append((done, len(checkpoint.payload)))
        with tr.span("serve.snapshot"):
            payload = ctl.snapshot()
        with tr.span("serve.auth"):
            signed = sign_checkpoint(payload, ctl.restore_key)
            if signed["auth"] != payload["auth"]:
                out.setdefault("problems", []).append("snapshot auth differs")
        with tr.span("serve.inject"):
            ctl.inject(bc.spike(ctl.sim.time_s, script))
        for _ in range(bc.WHATIF_SEGMENTS):
            advance()
        with tr.span("serve.metrics"):
            partial = ctl.metrics()
        whatifs.append(bc.canonical_digest(bc.strip_provenance(partial)))
        with tr.span("checkpoint.restore"):
            events, fresh_cfg = cluster_inputs(scenario)
            ClusterSimulation.restore(
                ClusterCheckpoint.from_dict(payload), events, fresh_cfg
            )
        with tr.span("serve.restore"):
            ctl.restore(payload)
    with tr.span("serve.metrics"):
        final = ctl.metrics()
    out["serial_s"] = time.perf_counter() - t_serial
    out["outputs"] = {"final": bc.strip_provenance(final), "whatif": whatifs}
    if not tr.enabled:
        return

    metrics = final["metrics"]
    causes = ctl.sim.orch.rejection_cause_counts()
    virt = metrics.get("virtualization", {})
    segments = tr.counters.get("cluster.segments", 1)
    (first_seg, first_size), (last_seg, last_size) = sizes[0], sizes[-1]
    out.update({
        "api.validate_ms": tr.ms("api.validate"),
        "api.result_json_bytes": len(json.dumps(final)),
        "openloop.calibrate_ms": tr.ms("openloop.calibrate"),
        "cluster.step_segment_ms.p50": tr.ms("cluster.step_segment"),
        "cluster.step_segment_ms.p95": tr.ms("cluster.step_segment", 95),
        "cluster.host_jobs_per_segment":
            tr.counters.get("cluster.busy_hosts", 0) / segments,
        "checkpoint.bytes": statistics.median([s for _, s in sizes]),
        "checkpoint.bytes_per_segment": (
            (last_size - first_size) / (last_seg - first_seg)
            if last_seg > first_seg else 0.0
        ),
        "checkpoint.snapshot_ms": tr.ms("checkpoint.snapshot"),
        "checkpoint.restore_ms": tr.ms("checkpoint.restore"),
        "serve.auth_ms": tr.ms("serve.auth"),
        "serve.metrics_ms": tr.ms("serve.metrics"),
        "serve.inject_ms": tr.ms("serve.inject"),
        "cluster.admissions": len(metrics["tenants"]),
        "cluster.rejections": len(metrics["rejected"]),
        "cluster.rejections.capacity": causes.get("capacity", 0),
        "cluster.rejections.vf_exhausted": causes.get("vf-exhausted", 0),
        "cluster.rejections.hypercall": causes.get("hypercall-rejected", 0),
        "cluster.autoscale_actions": len(metrics.get("autoscale_events", [])),
        "cluster.migrations": sum(
            len(e.get("migrations", []))
            for e in metrics.get("autoscale_events", [])
        ),
        "cluster.hypercalls": sum(virt.get("hypercalls", {}).values()),
        "cluster.fault_events": len(metrics.get("fault_events", [])),
    })


TRACED = {
    "paper_figs": paper_figs,
    "seed_sweep": seed_sweep,
    "serve_session": serve_session,
}


def run_traced(workload: str, seed: int, record: bool) -> Dict[str, Any]:
    """One pass of the traced call sequence; with ``record`` also the
    per-layer metrics, span coverage and the spans themselves."""
    tr = Tracer(record)
    out: Dict[str, Any] = {}
    t0 = time.perf_counter()
    TRACED[workload](tr, seed, out)
    t1 = time.perf_counter()
    outputs = out.pop("outputs")
    out["digest"] = bc.canonical_digest(outputs)
    if record:
        out["trace.span_coverage"] = tr.coverage(t0, t1)
        out["trace.span_cost_share"] = len(tr.spans) * span_cost_s() / (t1 - t0)
        out["spans"] = tr.spans
        out["counters"] = tr.counters
    return out


def span_cost_s(n: int = 20000) -> float:
    """Host seconds one recorded span adds over a disabled one.

    The on-versus-off comparison of two whole passes is at the mercy of
    the machine's speed drifting between them; this measures the cost
    itself, back to back, so the two readings can be set side by side.
    """
    def loop(tracer: Tracer) -> float:
        t = time.perf_counter()
        for _ in range(n):
            with tracer.span("probe"):
                pass
        return time.perf_counter() - t

    return max(0.0, (loop(Tracer(True)) - loop(Tracer(False))) / n)
