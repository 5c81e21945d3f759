"""Fig. 24: number of MEs/VEs assigned to each workload over time.

Runs a pair under Neu10 with assignment recording and returns the
per-tenant engine-assignment series.  The paper's observation: the
ME-intensive workload periodically harvests engines from the collocated
workload as demand ebbs, so assignments fluctuate between the home
allocation (2) and the full core (4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import DEFAULT_CORE
from repro.experiments.common import DEFAULT_TARGET_REQUESTS, specs_for_pair
from repro.megabatch import run_simulators
from repro.serving.server import SCHEME_NEU10, ServingConfig, prepare_collocation

FIG24_PAIRS = [("DLRM", "RtNt"), ("ENet", "SMask"), ("RNRS", "RtNt")]


@dataclass
class AssignmentTrace:
    pair: str
    #: tenant name -> list of (start_us, end_us, assigned MEs, assigned VEs)
    series: Dict[str, List[Tuple[float, float, float, float]]]

    def me_range(self, name: str) -> Tuple[float, float]:
        values = [mes for _s, _e, mes, _v in self.series[name]]
        return (min(values), max(values)) if values else (0.0, 0.0)

    def harvested_fraction(self, name: str, home: float) -> float:
        """Fraction of time the workload ran with more than its home MEs."""
        total = above = 0.0
        for start, end, mes, _ves in self.series[name]:
            span = end - start
            total += span
            if mes > home + 1e-9:
                above += span
        return above / total if total > 0 else 0.0


def run(
    w1: str,
    w2: str,
    target_requests: int = DEFAULT_TARGET_REQUESTS,
) -> AssignmentTrace:
    core = DEFAULT_CORE
    cfg = ServingConfig(
        core=core,
        target_requests=target_requests,
        record_assignment=True,
        record_ops=False,
    )
    prep = prepare_collocation(specs_for_pair(w1, w2, core), SCHEME_NEU10, cfg)
    result = run_simulators([prep.sim])[0]
    series: Dict[str, List[Tuple[float, float, float, float]]] = {}
    for tenant in prep.sim.tenants:
        raw = result.stats.assignment_series(tenant.tenant_id)
        series[tenant.name] = [
            (core.cycles_to_us(s), core.cycles_to_us(e), mes, ves)
            for s, e, mes, ves in raw
        ]
    return AssignmentTrace(pair=prep.pair_label, series=series)


def main() -> None:
    print("Fig. 24: assigned MEs/VEs over time under Neu10 (home = 2)")
    for w1, w2 in FIG24_PAIRS:
        trace = run(w1, w2)
        for name in trace.series:
            lo, hi = trace.me_range(name)
            frac = trace.harvested_fraction(name, home=2.0)
            print(
                f"  {trace.pair:12s} {name:6s} MEs range [{lo:.0f}, {hi:.0f}], "
                f"harvesting {frac*100:5.1f}% of the time"
            )


def run_result(pairs=None, target_requests: int = DEFAULT_TARGET_REQUESTS):
    """Structured Fig. 24 metrics (see :mod:`repro.api`)."""
    from repro.api.result import figure_result

    pairs = [tuple(p) for p in pairs] if pairs is not None else list(FIG24_PAIRS)
    per_pair = {}
    for w1, w2 in pairs:
        trace = run(w1, w2, target_requests)
        per_pair[trace.pair] = {
            name: {
                "me_range": list(trace.me_range(name)),
                "harvested_fraction": trace.harvested_fraction(name, home=2.0),
            }
            for name in trace.series
        }
    return figure_result(
        "fig24", {"pairs": per_pair}, {"target_requests": target_requests}
    )


if __name__ == "__main__":
    main()
