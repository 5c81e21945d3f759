"""Inputs, output checks and digests shared by the timed and traced runs.

Both kinds of run build their inputs here from the benchmark seed, so a
traced run simulates exactly what a timed run simulates and the two can
be compared by digest.  Nothing here imports ``repro`` at module level:
the parent process must be able to report a missing source tree
without a traceback.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIO_DIR = BENCH_DIR / "scenarios"
DIGESTS_PATH = BENCH_DIR / "digests.json"
#: Scratch space for run records and sweep journals, inside the checkout.
WORK_DIR = ROOT / ".perfbench"

WORKLOADS = ("paper_figs", "seed_sweep", "serve_session")
#: Workloads that run on one CPU: a cluster this small steps its hosts
#: in one chunk, in-process, so no pool starts.  Their timed children
#: are pinned to one CPU, and the speed probe reads that CPU for them.
SINGLE_CPU = ("serve_session",)
#: The seed whose outputs have a stored reference digest.
DEFAULT_SEED = 1

#: seed_sweep: one open-loop point, swept over seeds.
SWEEP_POINTS = 128
SWEEP_DURATION_S = 0.003

#: serve_session: a what-if every this many segments ...
WHATIF_EVERY = 10
#: ... that advances this many segments before it is rolled back.
WHATIF_SEGMENTS = 3
#: The ServeController calls a serve session times.
SERVE_CALLS = ("advance", "snapshot", "inject", "metrics", "restore")


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's ``src`` tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def figure_scenario():
    """``repro fig fig19`` as a scenario: Figs. 19-22, nine pairs."""
    from repro.api import Scenario

    return Scenario.from_dict(
        {"name": "paper_figs", "kind": "figure", "figure": "fig19"}
    )


def sweep_base_scenario():
    """The open-loop point seed_sweep varies: neu10, MNIST+DLRM at
    batch 8, Poisson load 0.8."""
    from repro.api import Scenario

    return Scenario.from_dict(
        {
            "name": "seed_sweep",
            "kind": "open_loop",
            "scheme": "neu10",
            "arrival": "poisson",
            "load": 0.8,
            "duration_s": SWEEP_DURATION_S,
            "seed": 1,
            "tenants": [
                {"model": "MNIST", "batch": 8},
                {"model": "DLRM", "batch": 8},
            ],
        }
    )


def sweep_seeds(seed: int) -> List[int]:
    """The scenario seeds one seed_sweep run covers."""
    return random.Random(seed).sample(range(1, 2**31), SWEEP_POINTS)


def serve_scenario():
    from repro.api import load_scenario

    return load_scenario(SCENARIO_DIR / "serve_session.yaml")


def whatif_script(seed: int) -> Dict[str, float]:
    """The seeded part of a serve session: after which segment the
    first what-if starts and how far into the next segment its traffic
    spike begins.  The spike's size is fixed, so every seed asks for
    about the same work."""
    rng = random.Random(seed)
    return {
        "first": rng.randint(3, WHATIF_EVERY),
        "factor": 3.0,
        "duration_s": 0.0015,
        "lead_s": round(rng.uniform(1e-6, 2e-4), 7),
    }


def whatif_due(done: int, total: int, script: Mapping[str, float]) -> bool:
    """Whether a what-if starts after ``done`` of ``total`` segments
    (only while it has room to advance before the horizon)."""
    first = int(script["first"])
    return (
        done >= first
        and (done - first) % WHATIF_EVERY == 0
        and total - done > WHATIF_SEGMENTS
    )


def spike(time_s: float, script: Mapping[str, float]) -> Dict[str, Any]:
    return {
        "kind": "traffic-spike",
        "time_s": time_s + script["lead_s"],
        "duration_s": script["duration_s"],
        "factor": script["factor"],
    }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def canonical_digest(payload: Any) -> str:
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=list
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def strip_provenance(result: Mapping[str, Any]) -> Dict[str, Any]:
    """A RunResult dict without the provenance block, which records how
    a result was produced (engine flags, executor), not what it is."""
    return {k: v for k, v in result.items() if k != "provenance"}


def slo_violations(tenants: Iterable[Mapping[str, Any]]) -> List[str]:
    """``0 <= attained <= completed <= offered`` for every tenant."""
    bad = []
    for t in tenants:
        if not 0 <= t["attained"] <= t["completed"] <= t["offered"]:
            bad.append(
                f"{t['name']}: attained={t['attained']} "
                f"completed={t['completed']} offered={t['offered']}"
            )
    return bad


def pair_record(pair_metrics) -> Dict[str, Any]:
    """Everything one collocation run produced, as plain data
    (``asdict`` cannot copy the ``defaultdict`` of op durations)."""
    from dataclasses import asdict, fields

    out = {f.name: getattr(pair_metrics, f.name) for f in fields(pair_metrics)}
    out["tenants"] = [asdict(t) for t in pair_metrics.tenants]
    return out


def figure_outputs(pair_runs, model: Mapping[str, float]) -> Dict[str, Any]:
    """paper_figs' checked outputs: every (pair, scheme) run plus the
    headline aggregates the figure reports."""
    return {
        "pairs": {
            run.label: {s: pair_record(pm) for s, pm in run.results.items()}
            for run in pair_runs
        },
        "model": dict(model),
    }


def figure_model(comparison) -> Dict[str, float]:
    tail_max, tail_geo = comparison.tail_gain_vs_v10()
    me_gain, _ve_gain = comparison.utilization_gain_vs_pmt()
    return {
        "model.tail_gain_vs_v10_max": tail_max,
        "model.tail_gain_vs_v10_geo": tail_geo,
        "model.me_util_gain_vs_pmt": me_gain,
    }


def closed_loop_violations(pair_runs, target_requests: int) -> List[str]:
    bad = []
    for run in pair_runs:
        for scheme, pm in run.results.items():
            for t in pm.tenants:
                if t.completed_requests < target_requests:
                    bad.append(
                        f"{run.label}/{scheme}/{t.name}: completed "
                        f"{t.completed_requests} < {target_requests}"
                    )
    return bad


def load_digests() -> Dict[str, str]:
    try:
        return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))["digests"]
    except (OSError, ValueError, KeyError):
        return {}


def expected_digest(workload: str, seed: int):
    """The stored reference digest, when one applies to this seed."""
    if workload != "paper_figs" and seed != DEFAULT_SEED:
        return None
    return load_digests().get(workload)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[min(len(ordered), int(rank)) - 1]


def affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1
