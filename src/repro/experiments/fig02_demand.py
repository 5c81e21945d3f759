"""Fig. 2/3: ME/VE demand of DNN workloads over time.

For each operator the compiler picks the engine counts that maximise
efficiency given the tensor shapes; plotting those counts over the
request timeline gives the paper's demand traces.  The figure uses the
real TPUv4 study geometry (4 MEs, 2 VEs per core).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.compiler.cost_model import CostModel
from repro.compiler.tiling import compiler_demanded_engines
from repro.config import DEFAULT_CORE, NpuCoreConfig
from repro.sim.stats import ordered_sum
from repro.workloads.catalog import model_info

#: Fig. 2's hardware: a real TPUv4 core with 4 MEs and 2 VEs.
FIG2_MAX_MES = 4
FIG2_MAX_VES = 2

FIG2_MODELS = ["BERT", "TFMR", "DLRM", "NCF", "RsNt", "MRCNN"]
FIG3_MODELS = ["BERT", "DLRM"]


@dataclass
class DemandPoint:
    start_us: float
    end_us: float
    op_name: str
    demanded_mes: int
    demanded_ves: int


@dataclass
class DemandTrace:
    model: str
    batch: int
    points: List[DemandPoint]

    @property
    def duration_us(self) -> float:
        return self.points[-1].end_us if self.points else 0.0

    def demand_variance(self) -> Tuple[int, int]:
        """(distinct ME demands, distinct VE demands) -- the paper's
        point is that demand *varies* over time."""
        mes = {p.demanded_mes for p in self.points}
        ves = {p.demanded_ves for p in self.points}
        return len(mes), len(ves)

    def time_weighted_average(self) -> Tuple[float, float]:
        total = self.duration_us
        if total <= 0:
            return 0.0, 0.0
        me = ordered_sum(
            (p.end_us - p.start_us) * p.demanded_mes for p in self.points
        )
        ve = ordered_sum(
            (p.end_us - p.start_us) * p.demanded_ves for p in self.points
        )
        return me / total, ve / total


def run(model: str, batch: int = 8, core: NpuCoreConfig = DEFAULT_CORE) -> DemandTrace:
    info = model_info(model)
    graph = info.build(batch)
    cost_model = CostModel(core)
    points: List[DemandPoint] = []
    t = 0.0
    for node in graph.topo_order():
        cost = cost_model.cost(node.op)
        mes, ves = compiler_demanded_engines(cost, FIG2_MAX_MES, FIG2_MAX_VES)
        duration = max(cost.me_cycles, cost.ve_cycles, 1.0)
        duration_us = core.cycles_to_us(duration)
        points.append(
            DemandPoint(
                start_us=t,
                end_us=t + duration_us,
                op_name=node.name,
                demanded_mes=mes,
                demanded_ves=ves,
            )
        )
        t += duration_us
    return DemandTrace(model=info.abbrev, batch=batch, points=points)


def main() -> None:
    print("Fig. 2: ME/VE demand over time (batch 8); Fig. 3: batch 32")
    for model in FIG2_MODELS:
        trace = run(model, batch=8)
        me_avg, ve_avg = trace.time_weighted_average()
        n_me, n_ve = trace.demand_variance()
        print(
            f"  {trace.model:6s} b8  duration={trace.duration_us:10.1f}us "
            f"avg demand {me_avg:.2f} MEs / {ve_avg:.2f} VEs "
            f"({n_me} distinct ME levels, {n_ve} VE levels)"
        )
    for model in FIG3_MODELS:
        trace = run(model, batch=32)
        me_avg, ve_avg = trace.time_weighted_average()
        print(
            f"  {trace.model:6s} b32 duration={trace.duration_us:10.1f}us "
            f"avg demand {me_avg:.2f} MEs / {ve_avg:.2f} VEs"
        )


def run_result(batch: int = 8, models=None):
    """Structured Fig. 2/3 metrics (see :mod:`repro.api`)."""
    from repro.api.result import figure_result

    models = list(models) if models is not None else list(FIG2_MODELS)
    per_model = {}
    for model in models:
        trace = run(model, batch=batch)
        me_avg, ve_avg = trace.time_weighted_average()
        n_me, n_ve = trace.demand_variance()
        per_model[trace.model] = {
            "duration_us": trace.duration_us,
            "avg_demand_mes": me_avg,
            "avg_demand_ves": ve_avg,
            "distinct_me_levels": n_me,
            "distinct_ve_levels": n_ve,
        }
    return figure_result(
        "fig02", {"models": per_model},
        {"batch": batch, "max_mes": FIG2_MAX_MES, "max_ves": FIG2_MAX_VES},
    )


if __name__ == "__main__":
    main()
