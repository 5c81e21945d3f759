"""Fig. 12: cost-effectiveness of the vNPU allocator.

For each EU budget the experiment simulates *every* (MEs, VEs) split of
a model running solo, normalises throughput to the (1, 1) configuration,
and marks the split the Eq.-4 allocator selects.  The paper's claim: the
selected configuration is (near-)optimal for the same EU count -- "in
most cases, our algorithm selects a configuration with better
performance than others for the same number of EUs.  Though a
sub-optimal configuration may be selected, it still achieves similar
performance as the optimal one."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import DEFAULT_CORE, NpuCoreConfig
from repro.core.allocator import split_eu_budget
from repro.serving.server import (
    SCHEME_NEU10_NH,
    ServingConfig,
    WorkloadSpec,
    run_collocation,
)
from repro.workloads.traces import build_trace

FIG12_MODELS = ["BERT", "RsNt", "ENet", "SMask"]
#: Fig. 12 scales "from 1 ME and 1 VE to 8 MEs and 8 VEs".
FIG12_CORE = DEFAULT_CORE.with_engines(8, 8)
DEFAULT_BUDGETS = [4, 6, 8, 12, 16]


@dataclass
class BudgetPoint:
    total_eus: int
    selected: Tuple[int, int]
    selected_throughput: float
    best: Tuple[int, int]
    best_throughput: float
    all_configs: Dict[Tuple[int, int], float] = field(default_factory=dict)

    @property
    def efficiency(self) -> float:
        """Selected throughput / best throughput (1.0 = optimal pick)."""
        if self.best_throughput <= 0:
            return 0.0
        return self.selected_throughput / self.best_throughput


@dataclass
class AllocatorSweep:
    model: str
    batch: int
    points: List[BudgetPoint]

    def worst_efficiency(self) -> float:
        return min((p.efficiency for p in self.points), default=0.0)


def _solo_throughput(
    model: str, batch: int, nm: int, nv: int, core: NpuCoreConfig,
    requests: int,
) -> float:
    pair = run_collocation(
        [WorkloadSpec(model, batch, alloc_mes=nm, alloc_ves=nv)],
        SCHEME_NEU10_NH,
        ServingConfig(core=core, target_requests=requests, record_ops=False),
    )
    return pair.tenants[0].throughput_rps


def run(
    model: str,
    batch: int = 32,
    budgets: Optional[List[int]] = None,
    core: NpuCoreConfig = FIG12_CORE,
    requests: int = 1,
) -> AllocatorSweep:
    budgets = budgets if budgets is not None else DEFAULT_BUDGETS
    trace = build_trace(model, batch, core=core)
    profile = trace.profile
    points: List[BudgetPoint] = []
    for total in budgets:
        configs: Dict[Tuple[int, int], float] = {}
        for nm in range(1, total):
            nv = total - nm
            if nm > core.num_mes or nv > core.num_ves:
                continue
            configs[(nm, nv)] = _solo_throughput(
                model, batch, nm, nv, core, requests
            )
        if not configs:
            continue
        selected = split_eu_budget(profile.m, profile.v, total)
        selected = (
            min(selected[0], core.num_mes),
            min(total - min(selected[0], core.num_mes), core.num_ves),
        )
        if selected not in configs:
            selected = min(configs, key=lambda c: abs(c[0] - selected[0]))
        best = max(configs, key=lambda c: configs[c])
        points.append(
            BudgetPoint(
                total_eus=total,
                selected=selected,
                selected_throughput=configs[selected],
                best=best,
                best_throughput=configs[best],
                all_configs=configs,
            )
        )
    return AllocatorSweep(model=trace.abbrev, batch=batch, points=points)


def main() -> None:
    print("Fig. 12: allocator-selected configs vs all configs (8ME/8VE core)")
    for model in FIG12_MODELS:
        batch = 8 if model == "SMask" else 32
        sweep = run(model, batch=batch, budgets=[4, 8, 12])
        print(f"  {sweep.model} (batch {batch}):")
        for p in sweep.points:
            print(
                f"    EUs={p.total_eus:2d} selected={p.selected} "
                f"best={p.best} efficiency={p.efficiency*100:5.1f}%"
            )


def run_result(models=None, budgets=None):
    """Structured Fig. 12 metrics (see :mod:`repro.api`)."""
    from repro.api.result import figure_result

    models = list(models) if models is not None else list(FIG12_MODELS)
    budgets = list(budgets) if budgets is not None else [4, 8, 12]
    per_model = {}
    for model in models:
        batch = 8 if model == "SMask" else 32
        sweep = run(model, batch=batch, budgets=budgets)
        per_model[sweep.model] = {
            "batch": batch,
            "points": [
                {
                    "total_eus": p.total_eus,
                    "selected": list(p.selected),
                    "best": list(p.best),
                    "efficiency": p.efficiency,
                }
                for p in sweep.points
            ],
        }
    return figure_result(
        "fig12", {"models": per_model}, {"budgets": budgets}
    )


if __name__ == "__main__":
    main()
