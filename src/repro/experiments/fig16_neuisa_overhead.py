"""Fig. 16: performance overhead of NeuISA over the VLIW-style ISA.

Each workload runs solo on the full core, once compiled to NeuISA and
once to the traditional VLIW ISA; the overhead is the relative runtime
difference.  The paper reports <1% on average, with the worst cases at
small batch sizes where a matmul must be partitioned on the reduction
dimension (the VE combine step cannot pipeline with the MEs) -- and the
overhead shrinking as the batch grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import DEFAULT_CORE, NpuCoreConfig
from repro.megabatch import run_simulators
from repro.sim.engine import Simulator, Tenant
from repro.sim.sched_static import StaticPartitionScheduler
from repro.sim.stats import ordered_mean
from repro.baselines.pmt import PmtScheduler
from repro.workloads.catalog import model_names
from repro.workloads.traces import build_trace

DEFAULT_BATCHES = [1, 8, 32]


@dataclass
class OverheadResult:
    #: model -> batch -> relative overhead (positive = NeuISA slower).
    overhead: Dict[str, Dict[int, float]]

    def average(self) -> float:
        values = [o for per in self.overhead.values() for o in per.values()]
        return ordered_mean(values)

    def maximum(self) -> float:
        values = [o for per in self.overhead.values() for o in per.values()]
        return max(values) if values else 0.0


def _solo_cycles(graph, core: NpuCoreConfig, scheduler) -> float:
    tenant = Tenant(
        tenant_id=0,
        name=graph.name,
        graph=graph,
        alloc_mes=core.num_mes,
        alloc_ves=core.num_ves,
        target_requests=1,
    )
    sim = Simulator(core, scheduler, [tenant], record_ops=False)
    result = run_simulators([sim])[0]
    return result.tenant(0).mean_latency


def run(
    models: Optional[List[str]] = None,
    batches: Optional[List[int]] = None,
    core: NpuCoreConfig = DEFAULT_CORE,
) -> OverheadResult:
    models = models if models is not None else model_names()
    batches = batches if batches is not None else DEFAULT_BATCHES
    overhead: Dict[str, Dict[int, float]] = {}
    for model in models:
        overhead[model] = {}
        for batch in batches:
            trace = build_trace(model, batch, core=core)
            vliw_cycles = _solo_cycles(trace.vliw, core, PmtScheduler())
            neuisa_cycles = _solo_cycles(
                trace.neuisa, core, StaticPartitionScheduler()
            )
            overhead[model][batch] = (neuisa_cycles - vliw_cycles) / vliw_cycles
    return OverheadResult(overhead=overhead)


def main() -> None:
    result = run(batches=[1, 8, 32])
    print("Fig. 16: NeuISA overhead vs traditional VLIW ISA")
    print(f"  {'model':14s} {'b1':>8s} {'b8':>8s} {'b32':>8s}")
    for model, per_batch in result.overhead.items():
        cells = " ".join(
            f"{per_batch.get(b, float('nan'))*100:7.2f}%" for b in (1, 8, 32)
        )
        print(f"  {model:14s} {cells}")
    print(
        f"  average={result.average()*100:.2f}% (paper: <1%)  "
        f"max={result.maximum()*100:.2f}% (paper: ~6% worst case)"
    )


def run_result(models=None, batches=None):
    """Structured Fig. 16 metrics (see :mod:`repro.api`)."""
    from repro.api.result import figure_result

    batches = list(batches) if batches is not None else [1, 8, 32]
    result = run(models=models, batches=batches)
    overhead = {
        model: {str(batch): value for batch, value in per_batch.items()}
        for model, per_batch in result.overhead.items()
    }
    return figure_result(
        "fig16",
        {
            "overhead": overhead,
            "average": result.average(),
            "maximum": result.maximum(),
        },
        {"batches": batches},
    )


if __name__ == "__main__":
    main()
