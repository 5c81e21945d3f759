"""Fig. 23 + Table III: harvesting benefit breakdown and overhead.

Fig. 23 traces the speedup of each operator under Neu10 relative to
Neu10-NH (same pair, same allocations): operators above 1.0 gained from
harvesting spare engines, operators below 1.0 were slowed by
interference.  Table III quantifies the time a workload is *blocked*
because a harvester held its engines (reclaim penalty), as a fraction of
end-to-end execution -- small (0-10%) and always outweighed by the
harvesting benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import expected
from repro.experiments.common import DEFAULT_TARGET_REQUESTS, run_pair_cached
from repro.serving.server import SCHEME_NEU10, SCHEME_NEU10_NH
from repro.sim.stats import ordered_mean


@dataclass
class HarvestBreakdown:
    pair: str
    #: tenant index -> sorted per-op speedups (Neu10 vs Neu10-NH).
    speedups: Dict[int, List[float]]
    #: tenant index -> blocked-time fraction under Neu10 (Table III).
    blocked: Dict[int, float]
    #: tenant index -> workload abbreviation.
    names: Dict[int, str]

    def median_speedup(self, tenant: int) -> float:
        ops = sorted(self.speedups.get(tenant, []))
        if not ops:
            return 0.0
        return ops[len(ops) // 2]


def run(
    w1: str,
    w2: str,
    target_requests: int = DEFAULT_TARGET_REQUESTS,
) -> HarvestBreakdown:
    pair_run = run_pair_cached(
        w1, w2, (SCHEME_NEU10, SCHEME_NEU10_NH), target_requests
    )
    neu = pair_run.results[SCHEME_NEU10]
    ref = pair_run.results[SCHEME_NEU10_NH]
    speedups: Dict[int, List[float]] = {}
    blocked: Dict[int, float] = {}
    names: Dict[int, str] = {}
    assert neu.op_durations is not None and ref.op_durations is not None
    for tenant_idx in (0, 1):
        names[tenant_idx] = neu.tenants[tenant_idx].name
        blocked[tenant_idx] = neu.tenants[tenant_idx].blocked_fraction
        neu_ops = neu.op_durations.get(tenant_idx, {})
        ref_ops = ref.op_durations.get(tenant_idx, {})
        per_op: List[float] = []
        for op_name, ref_durations in ref_ops.items():
            neu_durations = neu_ops.get(op_name)
            if not neu_durations or not ref_durations:
                continue
            ref_mean = ordered_mean(ref_durations)
            neu_mean = ordered_mean(neu_durations)
            if neu_mean > 0:
                per_op.append(ref_mean / neu_mean)
        speedups[tenant_idx] = sorted(per_op)
    return HarvestBreakdown(
        pair=pair_run.label, speedups=speedups, blocked=blocked, names=names
    )


def run_table3(
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    target_requests: int = DEFAULT_TARGET_REQUESTS,
) -> List[HarvestBreakdown]:
    pairs = pairs if pairs is not None else expected.ALL_PAIRS
    return [run(w1, w2, target_requests) for w1, w2 in pairs]


def main() -> None:
    print("Fig. 23 / Table III: harvesting benefit and overhead")
    print(f"  {'pair':14s} {'W1 med speedup':>15s} {'W2 med':>8s} "
          f"{'W1 blocked':>11s} {'W2 blocked':>11s} {'paper W1/W2':>16s}")
    for (w1, w2) in expected.ALL_PAIRS:
        b = run(w1, w2)
        paper = expected.TABLE3_OVERHEAD[(w1, w2)]
        print(
            f"  {b.pair:14s} {b.median_speedup(0):15.2f} "
            f"{b.median_speedup(1):8.2f} "
            f"{b.blocked[0]*100:10.2f}% {b.blocked[1]*100:10.2f}% "
            f"{paper[0]*100:7.2f}/{paper[1]*100:.2f}%"
        )


def run_result(pairs=None, target_requests: int = DEFAULT_TARGET_REQUESTS):
    """Structured Fig. 23 / Table III metrics (see :mod:`repro.api`)."""
    from repro.api.result import figure_result

    pairs = [tuple(p) for p in pairs] if pairs is not None else None
    breakdowns = run_table3(pairs, target_requests)
    per_pair = {
        b.pair: {
            "median_speedup": [b.median_speedup(0), b.median_speedup(1)],
            "blocked_fraction": [b.blocked[0], b.blocked[1]],
            "tenants": [b.names[0], b.names[1]],
        }
        for b in breakdowns
    }
    return figure_result(
        "fig23", {"pairs": per_pair}, {"target_requests": target_requests}
    )


if __name__ == "__main__":
    main()
