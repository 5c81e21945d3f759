"""Timed rounds: one workload, run once, in a fresh process.

Every round starts in its own process, so the program's process-wide
caches (plan memos, chain scopes, calibration, compiled traces, the
pair cache) start empty, as they do for a ``repro run`` or ``repro fig``
user, and their warm-up is part of the measured time.  A round reports
its set-up time (process start to the first timed call), its timed
job, the simulated cycles it produced, its output checks and the digest
of its outputs.

Each workload is a ``setup(seed)`` that imports and builds the inputs,
and a ``job(round, state)`` that makes the timed calls.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import time
from types import SimpleNamespace
from typing import Any, Callable, Dict, List

import bench_common as bc


class Round:
    """What one round measured and checked."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.job_s = 0.0
        self.sim_cycles = 0.0
        #: Host seconds the simulated cycles were produced in.
        self.sim_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest = ""
        self.details: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    def check(self, problems: List[str], ops: int = 1) -> None:
        """Count ``ops`` checked outputs and fail one per problem."""
        self.attempted += ops
        self.fail(problems)

    def fail(self, problems: List[str]) -> None:
        self.failed += len(problems)
        self.problems.extend(problems[:5])

    def to_dict(self) -> Dict[str, Any]:
        out = dict(vars(self))
        out["failed"] = min(self.failed, self.attempted)
        return out


# ----------------------------------------------------------------------
# paper_figs
# ----------------------------------------------------------------------
def paper_figs_setup(seed: int) -> SimpleNamespace:
    """``repro fig fig19``: nine pairs x four schemes, closed loop,
    fanned out one pair per job.  Deterministic: the seed does not
    apply."""
    del seed
    import repro.api  # noqa: F401 - part of set-up
    import repro.experiments.fig19_22_serving  # noqa: F401

    scenario = bc.figure_scenario()
    scenario.validate()
    scenario.digest()
    return SimpleNamespace(scenario=scenario)


def paper_figs_job(rnd: Round, st: SimpleNamespace) -> None:
    from repro.api import run_scenario
    from repro.experiments import expected
    from repro.experiments.common import (
        DEFAULT_TARGET_REQUESTS,
        run_pair_cached,
    )
    from repro.experiments.fig19_22_serving import ServingComparison
    from repro.serving.server import ALL_SCHEMES

    t0 = time.perf_counter()
    result = run_scenario(st.scenario)
    rnd.job_s = time.perf_counter() - t0

    # The study left every pair in the process-wide pair cache; read
    # the raw runs back (cache hits, no simulation) to check them.
    t1 = time.perf_counter()
    runs = [
        run_pair_cached(w1, w2, ALL_SCHEMES, DEFAULT_TARGET_REQUESTS)
        for w1, w2 in expected.ALL_PAIRS
    ]
    if time.perf_counter() - t1 > 0.5:
        rnd.check(["pair cache missed: the runs were simulated again"])
    model = bc.figure_model(ServingComparison(runs))
    figure = result.metrics
    reported = {
        "model.tail_gain_vs_v10_max": figure["tail_latency_gain_vs_v10_max"],
        "model.tail_gain_vs_v10_geo": figure["tail_latency_gain_vs_v10_geomean"],
        "model.me_util_gain_vs_pmt": figure["me_utilization_gain_vs_pmt"],
    }
    rnd.check(
        [f"figure reports {reported}, runs give {model}"]
        if reported != model else []
    )
    simulations = sum(len(run.results) for run in runs)
    rnd.check(
        bc.closed_loop_violations(runs, DEFAULT_TARGET_REQUESTS), simulations
    )
    rnd.sim_cycles = sum(
        pm.total_cycles for run in runs for pm in run.results.values()
    )
    rnd.sim_s = rnd.job_s
    rnd.digest = bc.canonical_digest(bc.figure_outputs(runs, model))
    rnd.details = dict(model)
    rnd.details["simulations_per_s"] = simulations / rnd.job_s


# ----------------------------------------------------------------------
# seed_sweep
# ----------------------------------------------------------------------
def seed_sweep_setup(seed: int) -> SimpleNamespace:
    """One open-loop point over seeds, twice: (a) megabatch chunks over
    ``parallel_map``; (b) the executor path, one ``run_scenario`` per
    point, with the fsynced sweep journal."""
    import repro.api  # noqa: F401 - part of set-up

    scenario = bc.sweep_base_scenario()
    scenario.validate()
    scenario.digest()
    bc.WORK_DIR.mkdir(exist_ok=True)
    return SimpleNamespace(scenario=scenario, seeds=bc.sweep_seeds(seed))


def seed_sweep_job(rnd: Round, st: SimpleNamespace) -> None:
    from repro.api import sweep_scenario, sweep_scenario_report

    t0 = time.perf_counter()
    part_a = sweep_scenario(st.scenario, param="seed", values=st.seeds)
    time_a = time.perf_counter() - t0
    journal_dir = tempfile.mkdtemp(prefix="journal-", dir=bc.WORK_DIR)
    try:
        t1 = time.perf_counter()
        report = sweep_scenario_report(
            st.scenario, param="seed", values=st.seeds,
            executor="pool", checkpoint=journal_dir,
        )
        time_b = time.perf_counter() - t1
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
    rnd.job_s = time_a + time_b

    a_points = [r.to_dict() for r in part_a]
    b_points = [r.to_dict() for r in report.results]
    for point in a_points + b_points:
        rnd.check(bc.slo_violations(point["metrics"]["tenants"]))
    if len(a_points) != len(b_points):
        rnd.fail([f"(a) has {len(a_points)} points, (b) {len(b_points)}"])
    for a, b in zip(a_points, b_points):
        if bc.strip_provenance(a) != bc.strip_provenance(b):
            rnd.fail([f"(a) != (b) at {a['scenario']}"])

    rnd.sim_cycles = sum(
        p["metrics"]["simulated_cycles"] for p in a_points + b_points
    )
    rnd.sim_s = rnd.job_s
    rnd.digest = bc.canonical_digest(
        [bc.strip_provenance(p) for p in b_points]
    )
    rnd.details = {
        "points_per_s": len(a_points) / time_a,
        "journaled_points_per_s": len(b_points) / time_b,
        "model.min_attainment": statistics.fmean(
            p["metrics"]["min_attainment"] for p in b_points
        ),
    }


# ----------------------------------------------------------------------
# serve_session
# ----------------------------------------------------------------------
def serve_session_setup(seed: int) -> SimpleNamespace:
    """A live-control session on the stored cluster scenario: advance
    one segment at a time; at each what-if, snapshot, inject a traffic
    spike, advance a few segments, read the metrics and restore."""
    from repro.serve import ServeController

    return SimpleNamespace(
        ctl=ServeController(bc.serve_scenario()),
        script=bc.whatif_script(seed),
    )


def serve_session_job(rnd: Round, st: SimpleNamespace) -> None:
    ctl, script = st.ctl, st.script
    samples: Dict[str, List[float]] = {k: [] for k in bc.SERVE_CALLS}

    def timed(kind: str, call: Callable[[], Any]) -> Any:
        t = time.perf_counter()
        out = call()
        samples[kind].append(time.perf_counter() - t)
        rnd.attempted += 1
        return out

    def advance() -> None:
        before = ctl.sim.simulated_cycles
        timed("advance", ctl.advance)
        rnd.sim_cycles += ctl.sim.simulated_cycles - before

    whatifs: List[str] = []
    t0 = time.perf_counter()
    while not ctl.sim.done:
        advance()
        done = ctl.sim.segments_completed
        if not bc.whatif_due(done, ctl.sim.total_segments, script):
            continue
        payload = timed("snapshot", ctl.snapshot)
        timed("inject", lambda: ctl.inject(bc.spike(ctl.sim.time_s, script)))
        for _ in range(bc.WHATIF_SEGMENTS):
            advance()
        partial = timed("metrics", ctl.metrics)
        rnd.fail(bc.slo_violations(partial["metrics"]["tenants"]))
        whatifs.append(bc.canonical_digest(bc.strip_provenance(partial)))
        status = timed("restore", lambda: ctl.restore(payload))
        if status["segments_completed"] != done:
            rnd.fail([f"restore landed at {status['segments_completed']}"
                      f", snapshot was at {done}"])
    final = timed("metrics", ctl.metrics)
    rnd.job_s = time.perf_counter() - t0

    metrics = final["metrics"]
    rnd.fail(bc.slo_violations(metrics["tenants"]))
    rnd.sim_s = sum(samples["advance"])
    rnd.digest = bc.canonical_digest(
        {"final": bc.strip_provenance(final), "whatif": whatifs}
    )
    rnd.samples = {k: [v * 1e3 for v in vals] for k, vals in samples.items()}
    rnd.details = {
        "segments_per_s": len(samples["advance"]) / rnd.job_s,
        "model.cluster_attainment": metrics["cluster_attainment"],
    }


WORKLOADS = {
    "paper_figs": (paper_figs_setup, paper_figs_job),
    "seed_sweep": (seed_sweep_setup, seed_sweep_job),
    "serve_session": (serve_session_setup, serve_session_job),
}


def run_round(workload: str, seed: int, spawn_t: float) -> Dict[str, Any]:
    """Set up and run one round; ``spawn_t`` is the ``time.monotonic()``
    reading taken just before this process was started."""
    setup, job = WORKLOADS[workload]
    rnd = Round()
    state = setup(seed)
    rnd.setup_s = time.monotonic() - spawn_t
    job(rnd, state)
    out = rnd.to_dict()
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def setup_only(workload: str, seed: int, spawn_t: float) -> Dict[str, Any]:
    """A round's set-up alone, for extra set-up time samples."""
    WORKLOADS[workload][0](seed)
    return {"setup_s": time.monotonic() - spawn_t, "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    """Peak resident set of this process or any pool worker it reaped."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
