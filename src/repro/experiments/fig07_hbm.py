"""Fig. 7: HBM bandwidth utilization over time.

Runs one request of a workload alone with bandwidth recording enabled
and reports the peak/average consumed bandwidth.  The paper's points:
peaks approach the 1.2 TB/s hardware limit while averages sit at
176-498 GB/s, and BERT's average *drops* with batch size (ME operators
become more compute-intensive) while DLRM's stays flat (VE gathers have
low compute intensity regardless of batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.config import DEFAULT_CORE, NpuCoreConfig
from repro.experiments.expected import FIG7_AVG_BANDWIDTH_GBPS
from repro.megabatch import run_simulators
from repro.sim.engine import Simulator, Tenant
from repro.sim.sched_static import StaticPartitionScheduler
from repro.workloads.traces import build_trace

FIG7_CASES = [("BERT", 8), ("BERT", 32), ("DLRM", 8), ("DLRM", 32)]


@dataclass
class BandwidthTrace:
    model: str
    batch: int
    average_gbps: float
    peak_gbps: float
    #: (start_us, end_us, GB/s) samples.
    series: List[Tuple[float, float, float]]


def run(model: str, batch: int, core: NpuCoreConfig = DEFAULT_CORE) -> BandwidthTrace:
    trace = build_trace(model, batch, core=core)
    tenant = Tenant(
        tenant_id=0,
        name=trace.abbrev,
        graph=trace.neuisa,
        alloc_mes=core.num_mes,
        alloc_ves=core.num_ves,
        target_requests=1,
    )
    sim = Simulator(
        core,
        StaticPartitionScheduler(),
        [tenant],
        record_ops=False,
        record_bandwidth=True,
    )
    result = run_simulators([sim])[0]
    to_gbps = core.frequency_hz / 1e9
    series = [
        (core.cycles_to_us(s), core.cycles_to_us(e), bw * to_gbps)
        for s, e, bw in result.stats.bandwidth_trace
    ]
    peak = max((bw for _s, _e, bw in series), default=0.0)
    return BandwidthTrace(
        model=trace.abbrev,
        batch=batch,
        average_gbps=result.stats.average_bandwidth() * to_gbps,
        peak_gbps=peak,
        series=series,
    )


def main() -> None:
    print("Fig. 7: HBM bandwidth utilization (paper avg in parentheses)")
    for model, batch in FIG7_CASES:
        tr = run(model, batch)
        paper = FIG7_AVG_BANDWIDTH_GBPS.get((model, batch))
        paper_s = f"(paper {paper:.0f})" if paper else ""
        print(
            f"  {tr.model:5s} b{batch:<3d} avg={tr.average_gbps:6.1f} GB/s "
            f"{paper_s:14s} peak={tr.peak_gbps:6.1f} GB/s"
        )


def run_result(cases=None):
    """Structured Fig. 7 metrics (see :mod:`repro.api`)."""
    from repro.api.result import figure_result

    cases = [tuple(c) for c in cases] if cases is not None else list(FIG7_CASES)
    per_case = {}
    for model, batch in cases:
        tr = run(model, batch)
        per_case[f"{tr.model}:b{batch}"] = {
            "average_gbps": tr.average_gbps,
            "peak_gbps": tr.peak_gbps,
        }
    return figure_result("fig07", {"cases": per_case}, {"n_cases": len(cases)})


if __name__ == "__main__":
    main()
