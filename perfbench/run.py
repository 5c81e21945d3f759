#!/usr/bin/env python3
"""The repository benchmark: three workloads, timed or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_figs --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, timed
    python3 perfbench/run.py --workload seed_sweep --trace 1
    python3 perfbench/run.py --record-digests        # reference engine

A timed run (``--trace 0``) runs the workload in fresh processes, one
round after another, for about ``--seconds`` seconds, and reports the
medians over rounds of the end-to-end metrics listed in
``BENCHMARK.json``.  Host times are reported at a reference machine
speed, measured by a probe thread while the rounds run (see
``SpeedProbe``); the wall-clock values are printed beside them.  A
traced run (``--trace 1``) calls each layer
serially from the benchmark's own code and reports the per-layer
metrics.  Both check the simulated outputs; the last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``METRICS.md`` describes every workload and metric.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import bench_common as bc

#: Marks the one result line a child process prints.
MARK = "PERFBENCH "
#: A child that runs longer than this is killed.
CHILD_TIMEOUT_S = 150
#: Set-up time is the median of at least this many set-ups.
MIN_SETUP_SAMPLES = 9
#: The paper's values for the model metrics, from
#: ``repro.experiments.expected.CLAIMS``.
PAPER_CLAIMS = {
    "model.tail_gain_vs_v10_max": "tail_latency_vs_v10_max",
    "model.tail_gain_vs_v10_geo": "tail_latency_vs_v10_avg",
    "model.me_util_gain_vs_pmt": "me_utilization_vs_pmt",
}


#: The speed probe takes a reading this often while children run, on
#: each CPU in turn ...
PROBE_PERIOD_S = 0.1
#: ... and a host time measured over fewer readings than this is scaled
#: by all of the run's readings instead.
MIN_PROBE_SAMPLES = 8
#: CPU milliseconds ``probe_loop`` takes at the reference speed that
#: host times are reported at.
PROBE_REF_MS = 10.0

Window = Tuple[float, float]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_cpus() -> List[Optional[int]]:
    """The CPUs this process may run on; ``[None]`` where they cannot be
    listed or pinned."""
    if not hasattr(os, "sched_setaffinity"):
        return [None]
    return sorted(os.sched_getaffinity(0))


def probe_loop() -> int:
    """A fixed piece of pure-Python work that no code of the repository
    runs, so no change to the repository can speed it up: integer
    arithmetic, then a small event heap feeding a dict, as a simulator's
    epoch loop would."""
    total = 0
    for i in range(40_000):
        total += i * i % 7
    heap: List[Tuple[float, int]] = []
    busy: Dict[int, float] = {}
    now = 0.0
    for i in range(6_000):
        heapq.heappush(heap, (now + (i * 7919 % 1000) * 1e-3, i % 97))
        if len(heap) > 48:
            when, unit = heapq.heappop(heap)
            busy[unit] = busy.get(unit, 0.0) + when
        now += 1e-3
    return total + len(busy)


class SpeedProbe(threading.Thread):
    """Samples the machine's speed while the children of a timed run work.

    The machine the benchmark runs on is shared: how fast one of its CPUs
    runs Python code drifts by up to 2x over seconds to minutes, with the
    process never off its CPU, and each CPU drifts on its own.  So every
    ``PROBE_PERIOD_S`` this thread moves to the next CPU and times
    ``probe_loop`` there in its own CPU time, which leaves out time spent
    waiting for the CPU: it tracks how fast the CPU executes, not how busy
    it is.  ``scale`` turns a host time measured over some windows on some
    CPUs into the time it would have taken at the reference speed.  The
    probe takes about 5 % of each CPU.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._halt = threading.Event()
        self.cpus = run_cpus()
        #: (monotonic time of the reading, CPU, CPU ms the loop took)
        self.samples: List[Tuple[float, Optional[int], float]] = []

    def run(self) -> None:
        tid = threading.get_native_id()
        turn = 0
        while not self._halt.wait(PROBE_PERIOD_S):
            cpu = self.cpus[turn % len(self.cpus)]
            turn += 1
            if cpu is not None:
                try:
                    os.sched_setaffinity(tid, {cpu})
                except OSError:
                    # Cannot move: read wherever the thread runs.
                    self.cpus, cpu = [None], None
            t = time.thread_time()
            probe_loop()
            self.samples.append(
                (time.monotonic(), cpu, (time.thread_time() - t) * 1e3)
            )

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def mean_ms(self) -> float:
        return statistics.fmean(ms for _, _, ms in self.samples)

    def scale(self, windows: List[Window],
              cpu: Optional[int] = None) -> float:
        """Reference-speed seconds per host second over ``windows``, on
        ``cpu`` or, if it is None, on all CPUs: from the readings taken
        inside the windows, or from all readings when those are fewer
        than ``MIN_PROBE_SAMPLES``."""
        mine = [(t, ms) for t, c, ms in self.samples
                if cpu is None or c in (cpu, None)]
        inside = [ms for t, ms in mine
                  if any(t0 <= t <= t1 for t0, t1 in windows)]
        if len(inside) < MIN_PROBE_SAMPLES:
            inside = [ms for _, ms in mine]
        return PROBE_REF_MS / statistics.fmean(inside)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    bc.use_source_tree()
    if args.child == "round":
        import rounds

        out = rounds.run_round(args.workload, args.seed, args.spawn_t)
    elif args.child == "setup":
        import rounds

        out = rounds.setup_only(args.workload, args.seed, args.spawn_t)
    else:
        import traced

        out = traced.run_traced(
            args.workload, args.seed, record=args.child == "traced-on"
        )
    print(MARK + json.dumps(out))
    return 0


def spawn(mode: str, workload: str, seed: int,
          env: Optional[Dict[str, str]] = None,
          cpu: Optional[int] = None) -> Dict[str, Any]:
    """Run one child process to completion, pinned to ``cpu`` if it is
    given, and return its result."""
    spawn_t = time.monotonic()
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", workload, "--seed", str(seed),
        "--spawn-t", repr(spawn_t),
    ]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    proc = subprocess.Popen(
        cmd, cwd=bc.ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} {workload}: timed out") from None
    finally:
        # Reap any pool worker the child left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = [l for l in stdout.splitlines() if l.startswith(MARK)]
    if proc.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise BenchError(
            f"{mode} {workload} exited {proc.returncode}:\n{tail}"
        )
    out = json.loads(lines[-1][len(MARK):])
    out["spawn_t"] = spawn_t
    return out


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(seed: int) -> Dict[str, Any]:
    from repro.parallel import default_workers

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(bc.ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bc.ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    sources = sorted(bc.SRC.rglob("*.py"))
    return {
        "affinity_cpus": bc.affinity_cpus(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_digest": bc.canonical_digest(
            {str(p.relative_to(bc.SRC)): p.read_text(encoding="utf-8")
             for p in sources}
        ),
        "seed": seed,
        "pool_workers": default_workers(),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Timed runs
# ----------------------------------------------------------------------
def digest_checks(workload: str, seed: int,
                  digests: List[str]) -> List[str]:
    """Problems with a run's output digests: rounds must agree with
    each other and with the stored reference digest when one applies."""
    problems = []
    expected = bc.expected_digest(workload, seed)
    for i, digest in enumerate(digests):
        if expected is not None and digest != expected:
            problems.append(f"digest {digest[:12]} != reference {expected[:12]}")
        elif digest != digests[0]:
            problems.append(f"round {i} digest differs from round 0")
    return problems


def run_rounds(workload: str, seed: int, seconds: float,
               cpu: Optional[int]
               ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Rounds for about ``seconds``, plus set-up-only children until
    there are ``MIN_SETUP_SAMPLES`` set-ups."""
    start = time.monotonic()
    rounds: List[Dict[str, Any]] = []
    setup_runs: List[Dict[str, Any]] = []

    def setup_samples() -> int:
        return len(rounds) + len(setup_runs)

    while True:
        rounds.append(spawn("round", workload, seed, cpu=cpu))
        # Spread the extra set-ups over the run: the machine's speed
        # drifts over seconds, and set-ups taken back to back would all
        # see the same phase.
        if setup_samples() < MIN_SETUP_SAMPLES:
            setup_runs.append(spawn("setup", workload, seed, cpu=cpu))
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    while setup_samples() < MIN_SETUP_SAMPLES:
        setup_runs.append(spawn("setup", workload, seed, cpu=cpu))
    return rounds, setup_runs


def timed_run(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    cpu = run_cpus()[-1] if workload in bc.SINGLE_CPU else None
    probe = SpeedProbe()
    probe.start()
    try:
        rounds, setup_runs = run_rounds(workload, seed, seconds, cpu)
    finally:
        probe.stop()
    setups = rounds + setup_runs
    # Host times at reference speed, under ``ref_*`` keys: each job by
    # the readings taken while it ran; set-ups, too short for that, by
    # the readings taken during any set-up of the run.
    setup_scale = probe.scale(
        [(r["spawn_t"], r["spawn_t"] + r["setup_s"]) for r in setups], cpu
    )
    for r in setups:
        r["ref_setup_s"] = r["setup_s"] * setup_scale
    for r in rounds:
        ready = r["spawn_t"] + r["setup_s"]
        job_scale = probe.scale([(ready, ready + r["job_s"])], cpu)
        r["ref_job_s"] = r["job_s"] * job_scale
        r["ref_sim_s"] = r["sim_s"] * job_scale
    peak_mb = max(r["peak_rss_mb"] for r in setups)

    def median(key: str, runs: List[Dict[str, Any]] = rounds) -> float:
        return statistics.median(r[key] for r in runs)

    problems = [p for r in rounds for p in r["problems"]]
    digest_problems = digest_checks(
        workload, seed, [r["digest"] for r in rounds]
    )
    metrics = {
        "setup_s": median("ref_setup_s", setups),
        "peak_rss_mb": peak_mb,
        "job_s": median("ref_job_s"),
        "sim_cycles_per_s": statistics.median(
            r["sim_cycles"] / r["ref_sim_s"] for r in rounds
        ),
    }
    attempted = sum(r["attempted"] for r in rounds) + len(rounds)
    failed = sum(r["failed"] for r in rounds) + len(digest_problems)
    details = {
        key: statistics.median([r["details"][key] for r in rounds])
        for key in rounds[0]["details"]
    }
    details.update({
        "error_rate": failed / attempted,
        "probe_ms": probe.mean_ms(),
        "wall.setup_s": median("setup_s", setups),
        "wall.job_s": median("job_s"),
        "wall.sim_cycles_per_s": statistics.median(
            r["sim_cycles"] / r["sim_s"] for r in rounds
        ),
    })
    pooled = {
        kind: [v for r in rounds for v in r["samples"].get(kind, [])]
        for kind in bc.SERVE_CALLS
    }
    if pooled["advance"]:
        details.update({
            "advance_ms.p50": bc.percentile(pooled["advance"], 50),
            "advance_ms.p95": bc.percentile(pooled["advance"], 95),
            "advance_ms.samples": len(pooled["advance"]),
            "snapshot_ms.p50": bc.percentile(pooled["snapshot"], 50),
            "restore_ms.p50": bc.percentile(pooled["restore"], 50),
            "restore_ms.samples": len(pooled["restore"]),
        })
    return {
        "rounds": len(rounds),
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": failed,
        "problems": problems + digest_problems,
        "digest": rounds[0]["digest"],
        "metrics": metrics,
        "details": details,
        "round_results": [
            {k: v for k, v in r.items() if k != "samples"} for r in rounds
        ],
    }


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
def traced_run(workload: str, seed: int) -> Dict[str, Any]:
    """Recording on and off, in that order for odd seeds and the other
    way round for even ones, plus the digest comparison with the timed
    run."""
    order = ["traced-on", "traced-off"]
    if seed % 2 == 0:
        order.reverse()
    passes = {mode: spawn(mode, workload, seed) for mode in order}
    on, off = passes["traced-on"], passes["traced-off"]
    expected = bc.expected_digest(workload, seed)
    if expected is None:
        expected = spawn("round", workload, seed)["digest"]
    problems = list(on.get("problems", [])) + list(off.get("problems", []))
    for mode, result in passes.items():
        if result["digest"] != expected:
            problems.append(
                f"{mode} digest {result['digest'][:12]} != timed run "
                f"{expected[:12]}"
            )
    layers = {
        k: v for k, v in on.items()
        if k not in ("digest", "problems", "spans", "counters", "serial_s",
                     "spawn_t")
    }
    layers["trace.overhead_share"] = on["serial_s"] / off["serial_s"] - 1.0
    return {
        "attempted": 3,
        "failed": min(3, len(problems)),
        "problems": problems,
        "digest": on["digest"],
        "metrics": layers,
        "spans": on["spans"],
        "counters": on["counters"],
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def metric_specs(trace: bool) -> List[Dict[str, Any]]:
    spec = json.loads((bc.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def detail_unit(name: str) -> str:
    if name == "wall.sim_cycles_per_s":
        return "cycles/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if ".samples" in name:
        return "count"
    if "_ms." in name or name.endswith("_ms"):
        return "ms"
    return "ratio"


def report(workload: str, seed: int, trace: bool, run: Dict[str, Any],
           prov: Dict[str, Any]) -> Dict[str, Any]:
    """Print the human-readable lines and return the result object."""
    from repro.experiments.expected import CLAIMS

    specs = metric_specs(trace)
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    print("  provenance: " + json.dumps(prov, sort_keys=True))
    if not trace:
        print(f"  rounds={run['rounds']} (fresh process each); "
              f"set-up samples={run['setup_samples']}")
    metrics = {}
    for spec in specs:
        value = float(run["metrics"].get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        note = "" if spec["name"] in run["metrics"] else "  (not exercised)"
        print(f"  {spec['name']:<36} {value:>16.6g} {spec['unit']}{note}")
    for key, value in sorted(run.get("details", {}).items()):
        claim = PAPER_CLAIMS.get(key)
        paper = (
            f"  (paper: {getattr(CLAIMS, claim)}; model not validated "
            "against hardware)" if claim else ""
        )
        print(f"  {key:<36} {value:>16.6g} {detail_unit(key)}{paper}")
    for problem in run["problems"][:20]:
        print(f"  FAILED: {problem}")
    return {
        "correct": run["failed"] == 0,
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }


def save_record(workload: str, seed: int, trace: bool,
                run: Dict[str, Any], prov: Dict[str, Any],
                result: Dict[str, Any]) -> None:
    bc.WORK_DIR.mkdir(exist_ok=True)
    path = bc.WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record = {"provenance": prov, "result": result, "run": run}
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def record_digests() -> int:
    """Run each workload once on the reference engine (no fast path, no
    megabatch) at the default seed and store the output digests."""
    env = dict(os.environ, REPRO_SIM_FAST_PATH="0", REPRO_SIM_MEGABATCH="0")
    digests = {
        w: spawn("round", w, bc.DEFAULT_SEED, env=env)["digest"]
        for w in bc.WORKLOADS
    }
    payload = {
        "engine": "reference: REPRO_SIM_FAST_PATH=0 REPRO_SIM_MEGABATCH=0",
        "seed": bc.DEFAULT_SEED,
        "digests": digests,
    }
    bc.DIGESTS_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                               encoding="utf-8")
    print(json.dumps(payload, indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=bc.WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=bc.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--spawn-t", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    if not (bc.SRC / "repro").is_dir():
        print(f"perfbench: no source tree at {bc.SRC.name}/repro; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    bc.use_source_tree()
    if args.record_digests:
        return record_digests()
    prov = provenance(args.seed)
    workloads = bc.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    for workload in workloads:
        try:
            if trace:
                run = traced_run(workload, args.seed)
            else:
                run = timed_run(workload, args.seed, args.seconds)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        result = report(workload, args.seed, trace, run, prov)
        save_record(workload, args.seed, trace, run, prov, result)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        sys.exit(1)
