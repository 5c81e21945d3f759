"""Ablations of Neu10's design choices (DESIGN.md SectionVI).

Four knobs the paper fixes by design, varied here to quantify their
contribution:

1. **Harvesting** on/off -- isolates the benefit of dynamic uTOp
   scheduling over pure spatial partitioning (SectionIII-E).
2. **ME reclaim penalty** 0 / 256 / 2048 cycles -- sensitivity to the
   context-save cost the paper derives from the 128x128 array.
3. **HBM sharing policy** hierarchical (per-vNPU fair, the default) vs
   flat per-stream max-min -- hierarchical protects a memory-hungry
   tenant from a collocated tenant that multiplies its stream count by
   harvesting.
4. **VE priority** embedded-streams-first (paper) vs VE-uTOps-first --
   the paper prioritises embedded streams "so the occupied MEs are freed
   as soon as possible".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.api.registries import scheme_isa
from repro.config import DEFAULT_CORE, NpuCoreConfig
from repro.experiments.common import specs_for_pair
from repro.megabatch import run_simulators
from repro.serving.server import SCHEME_NEU10
from repro.sim.engine import SimResult, Simulator, Tenant
from repro.sim.sched_neu10 import Neu10Scheduler
from repro.workloads.traces import build_trace


@dataclass
class AblationPoint:
    label: str
    throughputs: Tuple[float, float]
    p95s: Tuple[float, float]
    me_utilization: float
    preemptions: int


def _run(
    w1: str,
    w2: str,
    scheduler: Neu10Scheduler,
    core: NpuCoreConfig,
    target_requests: int,
    hbm_policy: str = "hierarchical",
) -> SimResult:
    specs = specs_for_pair(w1, w2, core)
    tenants: List[Tenant] = []
    for idx, spec in enumerate(specs):
        trace = build_trace(spec.model, spec.batch, core=core)
        tenants.append(
            Tenant(
                tenant_id=idx,
                name=trace.abbrev,
                graph=trace.compiled(scheme_isa(SCHEME_NEU10)),
                alloc_mes=spec.alloc_mes or core.num_mes // 2,
                alloc_ves=spec.alloc_ves or core.num_ves // 2,
                target_requests=target_requests,
            )
        )
    sim = Simulator(core, scheduler, tenants, record_ops=False,
                    hbm_policy=hbm_policy)
    return run_simulators([sim])[0]


def _point(label: str, result: SimResult) -> AblationPoint:
    return AblationPoint(
        label=label,
        throughputs=(
            result.tenant(0).throughput_rps,
            result.tenant(1).throughput_rps,
        ),
        p95s=(result.tenant(0).p95_latency, result.tenant(1).p95_latency),
        me_utilization=result.stats.me_utilization(),
        preemptions=result.stats.preemption_count,
    )


def ablate_harvesting(
    w1: str = "DLRM", w2: str = "RtNt", target_requests: int = 3
) -> Dict[str, AblationPoint]:
    core = DEFAULT_CORE
    return {
        "harvest-on": _point(
            "harvest-on",
            _run(w1, w2, Neu10Scheduler(harvesting=True), core, target_requests),
        ),
        "harvest-off": _point(
            "harvest-off",
            _run(w1, w2, Neu10Scheduler(harvesting=False), core, target_requests),
        ),
    }


def ablate_reclaim_penalty(
    w1: str = "DLRM",
    w2: str = "RtNt",
    penalties: Tuple[int, ...] = (0, 256, 2048),
    target_requests: int = 3,
) -> Dict[int, AblationPoint]:
    out: Dict[int, AblationPoint] = {}
    for penalty in penalties:
        core = dataclasses.replace(DEFAULT_CORE, me_preemption_cycles=penalty)
        result = _run(w1, w2, Neu10Scheduler(), core, target_requests)
        out[penalty] = _point(f"penalty={penalty}", result)
    return out


def ablate_hbm_policy(
    w1: str = "DLRM", w2: str = "RtNt", target_requests: int = 3
) -> Dict[str, AblationPoint]:
    core = DEFAULT_CORE
    return {
        policy: _point(
            policy,
            _run(w1, w2, Neu10Scheduler(), core, target_requests,
                 hbm_policy=policy),
        )
        for policy in ("hierarchical", "flat")
    }


def ablate_ve_priority(
    w1: str = "DLRM", w2: str = "RtNt", target_requests: int = 3
) -> Dict[str, AblationPoint]:
    core = DEFAULT_CORE
    return {
        "embedded-first": _point(
            "embedded-first",
            _run(w1, w2, Neu10Scheduler(ve_embedded_first=True), core,
                 target_requests),
        ),
        "ve-utops-first": _point(
            "ve-utops-first",
            _run(w1, w2, Neu10Scheduler(ve_embedded_first=False), core,
                 target_requests),
        ),
    }


def main() -> None:
    print("Ablations (DLRM+RtNt):")
    for name, points in (
        ("harvesting", ablate_harvesting()),
        ("reclaim penalty", ablate_reclaim_penalty()),
        ("hbm policy", ablate_hbm_policy()),
        ("ve priority", ablate_ve_priority()),
    ):
        print(f"  {name}:")
        for key, p in points.items():
            print(
                f"    {str(key):16s} thr {p.throughputs[0]:9.1f}/"
                f"{p.throughputs[1]:7.1f} rps  ME util "
                f"{p.me_utilization*100:4.1f}%  preempt {p.preemptions}"
            )


def run_result(w1: str = "DLRM", w2: str = "RtNt", target_requests: int = 3):
    """Structured ablation metrics (see :mod:`repro.api`)."""
    from repro.api.result import figure_result

    sections = {
        "harvesting": ablate_harvesting(w1, w2, target_requests),
        "reclaim_penalty": ablate_reclaim_penalty(
            w1, w2, target_requests=target_requests
        ),
        "hbm_policy": ablate_hbm_policy(w1, w2, target_requests),
        "ve_priority": ablate_ve_priority(w1, w2, target_requests),
    }
    metrics = {
        section: {
            str(key): {
                "throughputs_rps": list(p.throughputs),
                "p95_latency_cycles": list(p.p95s),
                "me_utilization": p.me_utilization,
                "preemptions": p.preemptions,
            }
            for key, p in points.items()
        }
        for section, points in sections.items()
    }
    return figure_result(
        "ablations", metrics,
        {"pair": f"{w1}+{w2}", "target_requests": target_requests},
    )


if __name__ == "__main__":
    main()
