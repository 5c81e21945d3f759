"""Fig. 5: ME/VE utilization over time for a solo inference request.

Runs one request of each model alone on the full core and buckets the
simulator's busy-integral into time windows.  The paper's takeaway:
even "ME-intensive" models leave VEs mostly idle and vice versa, and
neither engine class is fully utilised across a request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.config import DEFAULT_CORE, NpuCoreConfig
from repro.megabatch import run_simulators
from repro.serving.server import (
    SCHEME_NEU10_NH,
    ServingConfig,
    WorkloadSpec,
    prepare_collocation,
)

FIG5_MODELS = ["BERT", "TFMR", "DLRM", "NCF", "RsNt", "MRCNN"]


@dataclass
class UtilizationTrace:
    model: str
    batch: int
    #: (window_start_us, window_end_us, me_util, ve_util) buckets.
    windows: List[Tuple[float, float, float, float]]
    overall_me: float
    overall_ve: float


def run(
    model: str,
    batch: int = 8,
    core: NpuCoreConfig = DEFAULT_CORE,
    num_windows: int = 40,
) -> UtilizationTrace:
    cfg = ServingConfig(
        core=core, target_requests=1, record_assignment=True, record_ops=False
    )
    prep = prepare_collocation([WorkloadSpec(model, batch)], SCHEME_NEU10_NH, cfg)
    result = run_simulators([prep.sim])[0]
    samples = result.stats.assignment_trace
    if not samples:
        return UtilizationTrace(prep.pair_label, batch, [], 0.0, 0.0)
    end = samples[-1].end_cycle
    width = end / num_windows
    windows: List[Tuple[float, float, float, float]] = []
    for w in range(num_windows):
        lo, hi = w * width, (w + 1) * width
        me_integral = ve_integral = 0.0
        for s in samples:
            overlap = min(hi, s.end_cycle) - max(lo, s.start_cycle)
            if overlap <= 0:
                continue
            me_integral += overlap * sum(s.mes_per_tenant.values())
            ve_integral += overlap * sum(s.ves_per_tenant.values())
        windows.append(
            (
                core.cycles_to_us(lo),
                core.cycles_to_us(hi),
                me_integral / (width * core.num_mes),
                ve_integral / (width * core.num_ves),
            )
        )
    return UtilizationTrace(
        model=prep.pair_label,
        batch=batch,
        windows=windows,
        overall_me=result.stats.me_utilization(),
        overall_ve=result.stats.ve_utilization(),
    )


def main() -> None:
    print("Fig. 5: solo ME/VE utilization (one request, full core)")
    for model in FIG5_MODELS:
        tr = run(model, batch=8)
        print(
            f"  {tr.model:6s} overall ME={tr.overall_me*100:5.1f}%  "
            f"VE={tr.overall_ve*100:5.1f}%  "
            f"(neither engine class is fully utilised)"
        )


def run_result(batch: int = 8, models=None):
    """Structured Fig. 5 metrics (see :mod:`repro.api`)."""
    from repro.api.result import figure_result

    models = list(models) if models is not None else list(FIG5_MODELS)
    per_model = {}
    for model in models:
        trace = run(model, batch=batch)
        per_model[trace.model] = {
            "overall_me_utilization": trace.overall_me,
            "overall_ve_utilization": trace.overall_ve,
        }
    return figure_result("fig05", {"models": per_model}, {"batch": batch})


if __name__ == "__main__":
    main()
