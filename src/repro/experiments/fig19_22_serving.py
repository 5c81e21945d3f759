"""Figs. 19-22: the main multi-tenant serving comparison.

Nine collocation pairs x four schemes (PMT, V10, Neu10-NH, Neu10):

- Fig. 19: 95th-percentile tail latency, normalised to PMT;
- Fig. 20: average request latency, normalised to PMT;
- Fig. 21: throughput, normalised to PMT;
- Fig. 22: total ME and VE utilization of the NPU core.

Headline claims validated against :mod:`repro.experiments.expected`:
Neu10 cuts tail latency vs V10 (up to 4.6x in the paper), improves mean
latency over PMT/V10, and lifts throughput most where ME/VE contention
is low (overlapping ME-intensive with VE-intensive work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.experiments import expected
from repro.experiments.common import (
    DEFAULT_TARGET_REQUESTS,
    PairRun,
    format_table,
    geomean,
    run_all_pairs,
)
from repro.serving.server import ALL_SCHEMES

#: Schemes the headline aggregates read: latency and throughput are
#: normalised to PMT, and Neu10 is compared with V10 and PMT.
BASELINE_SCHEMES = ("pmt", "v10", "neu10")


@dataclass
class ServingComparison:
    runs: List[PairRun]

    # ------------------------------------------------------------------
    # Fig. 19 / 20: latency normalised to PMT
    # ------------------------------------------------------------------
    def latency_rows(self, attr: str) -> List[Tuple[str, Dict[str, List[float]]]]:
        rows = []
        for run in self.runs:
            per_scheme: Dict[str, List[float]] = {}
            for scheme in run.results:
                per_scheme[scheme] = [
                    run.norm_latency(scheme, 0, attr),
                    run.norm_latency(scheme, 1, attr),
                ]
            rows.append((run.label, per_scheme))
        return rows

    # ------------------------------------------------------------------
    # Fig. 21: throughput normalised to PMT
    # ------------------------------------------------------------------
    def throughput_rows(self) -> List[Tuple[str, Dict[str, List[float]]]]:
        rows = []
        for run in self.runs:
            per_scheme = {
                scheme: [
                    run.norm_throughput(scheme, 0),
                    run.norm_throughput(scheme, 1),
                ]
                for scheme in run.results
            }
            rows.append((run.label, per_scheme))
        return rows

    # ------------------------------------------------------------------
    # Headline aggregates
    # ------------------------------------------------------------------
    def tail_gain_vs_v10(self) -> Tuple[float, float]:
        """(max, geomean) of V10 p95 / Neu10 p95 across workloads."""
        gains: List[float] = []
        for run in self.runs:
            for which in (0, 1):
                v10 = run.tenant_metric("v10", which, "p95_latency_cycles")
                neu = run.tenant_metric("neu10", which, "p95_latency_cycles")
                if neu > 0:
                    gains.append(v10 / neu)
        return (max(gains), geomean(gains)) if gains else (0.0, 0.0)

    def mean_latency_gain(self, baseline: str) -> float:
        gains: List[float] = []
        for run in self.runs:
            for which in (0, 1):
                base = run.tenant_metric(baseline, which, "mean_latency_cycles")
                neu = run.tenant_metric("neu10", which, "mean_latency_cycles")
                if neu > 0:
                    gains.append(base / neu)
        return geomean(gains)

    def throughput_gain_low_contention(self, scheme: str) -> float:
        labels = {expected.pair_key(a, b) for a, b in expected.LOW_CONTENTION_PAIRS}
        gains: List[float] = []
        for run in self.runs:
            if run.label not in labels:
                continue
            for which in (0, 1):
                gains.append(run.norm_throughput(scheme, which))
        return geomean(gains)

    def throughput_gain_vs_v10_max(self) -> float:
        gains: List[float] = []
        for run in self.runs:
            for which in (0, 1):
                v10 = run.tenant_metric("v10", which, "throughput_rps")
                neu = run.tenant_metric("neu10", which, "throughput_rps")
                if v10 > 0:
                    gains.append(neu / v10)
        return max(gains) if gains else 0.0

    def utilization_gain_vs_pmt(self) -> Tuple[float, float]:
        me_gains, ve_gains = [], []
        for run in self.runs:
            pmt = run.results["pmt"]
            neu = run.results["neu10"]
            if pmt.total_me_utilization > 0:
                me_gains.append(neu.total_me_utilization / pmt.total_me_utilization)
            if pmt.total_ve_utilization > 0:
                ve_gains.append(neu.total_ve_utilization / pmt.total_ve_utilization)
        return geomean(me_gains), geomean(ve_gains)


def run(
    target_requests: int = DEFAULT_TARGET_REQUESTS,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    schemes: Sequence[str] = ALL_SCHEMES,
) -> ServingComparison:
    return ServingComparison(
        runs=run_all_pairs(schemes, target_requests, pairs)
    )


def main() -> None:
    comparison = run()
    claims = expected.CLAIMS

    headers = ["pair"] + [
        f"{s}:{w}" for s in ALL_SCHEMES for w in ("W1", "W2")
    ]
    for title, attr in (
        ("Fig. 19: normalized p95 tail latency (PMT = 1.0)", "p95_latency_cycles"),
        ("Fig. 20: normalized average latency (PMT = 1.0)", "mean_latency_cycles"),
    ):
        rows = []
        for label, per_scheme in comparison.latency_rows(attr):
            cells = [label]
            for scheme in ALL_SCHEMES:
                cells.extend(f"{v:.2f}" for v in per_scheme[scheme])
            rows.append(cells)
        print(title)
        print(format_table(headers, rows))
        print()

    rows = []
    for label, per_scheme in comparison.throughput_rows():
        cells = [label]
        for scheme in ALL_SCHEMES:
            cells.extend(f"{v:.2f}" for v in per_scheme[scheme])
        rows.append(cells)
    print("Fig. 21: normalized throughput (PMT = 1.0)")
    print(format_table(headers, rows))
    print()

    tail_max, tail_geo = comparison.tail_gain_vs_v10()
    me_gain, ve_gain = comparison.utilization_gain_vs_pmt()
    print("Headline paper-vs-measured:")
    print(
        f"  tail latency gain vs V10:  measured max {tail_max:.2f}x / "
        f"avg {tail_geo:.2f}x   (paper: up to {claims.tail_latency_vs_v10_max}x, "
        f"avg {claims.tail_latency_vs_v10_avg}x)"
    )
    print(
        f"  mean latency gain vs PMT:  {comparison.mean_latency_gain('pmt'):.2f}x "
        f"(paper {claims.avg_latency_vs_pmt}x); vs V10: "
        f"{comparison.mean_latency_gain('v10'):.2f}x (paper {claims.avg_latency_vs_v10}x)"
    )
    print(
        f"  low-contention throughput vs PMT: neu10 "
        f"{comparison.throughput_gain_low_contention('neu10'):.2f}x "
        f"(paper {claims.throughput_vs_pmt_low_contention_neu10}x), v10 "
        f"{comparison.throughput_gain_low_contention('v10'):.2f}x "
        f"(paper {claims.throughput_vs_pmt_low_contention_v10}x)"
    )
    print(
        f"  max throughput gain vs V10: {comparison.throughput_gain_vs_v10_max():.2f}x "
        f"(paper up to {claims.throughput_vs_v10_high_contention_max}x)"
    )
    print(
        f"  Fig. 22 utilization vs PMT: ME {me_gain:.2f}x (paper "
        f"{claims.me_utilization_vs_pmt}x), VE {ve_gain:.2f}x (paper "
        f"{claims.ve_utilization_vs_pmt}x)"
    )


def _checked_params(target_requests, pairs, schemes):
    """``(pairs, schemes)`` normalised, or a ConfigError naming the bad
    input.  Runs in the parent, before any fan-out, so a bad scenario
    file fails once with one message instead of in every worker task."""
    from repro.api.registries import SCHEDULERS
    from repro.workloads.catalog import model_info

    if (
        isinstance(target_requests, bool)
        or not isinstance(target_requests, int)
        or target_requests < 1
    ):
        raise ConfigError(
            f"fig19: target_requests must be a positive int, "
            f"got {target_requests!r}"
        )
    if schemes is None:
        schemes = ALL_SCHEMES
    if not isinstance(schemes, (list, tuple)) or not all(
        isinstance(s, str) for s in schemes
    ):
        raise ConfigError(
            f"fig19: schemes must be a list of scheme names, got {schemes!r}"
        )
    for scheme in schemes:
        SCHEDULERS.get(scheme)
    missing = [s for s in BASELINE_SCHEMES if s not in schemes]
    if missing:
        raise ConfigError(
            f"fig19: schemes must include {list(BASELINE_SCHEMES)}, the "
            f"figure's baselines; missing {missing}"
        )
    if pairs is None:
        return None, tuple(schemes)
    if not isinstance(pairs, (list, tuple)) or not all(
        isinstance(p, (list, tuple))
        and len(p) == 2
        and all(isinstance(m, str) for m in p)
        for p in pairs
    ):
        raise ConfigError(
            f"fig19: pairs must be a list of [model, model] pairs, "
            f"got {pairs!r}"
        )
    for pair in pairs:
        for model in pair:
            model_info(model)
    return [tuple(p) for p in pairs], tuple(schemes)


def run_result(
    target_requests: int = DEFAULT_TARGET_REQUESTS,
    pairs=None,
    schemes=None,
):
    """Structured Figs. 19-22 metrics (see :mod:`repro.api`)."""
    from repro.api.result import figure_result

    pairs, schemes = _checked_params(target_requests, pairs, schemes)
    comparison = run(target_requests, pairs, schemes)
    per_pair = {}
    for pair_run in comparison.runs:
        per_pair[pair_run.label] = {
            scheme: {
                "norm_p95": [
                    pair_run.norm_latency(scheme, w, "p95_latency_cycles")
                    for w in (0, 1)
                ],
                "norm_mean": [
                    pair_run.norm_latency(scheme, w, "mean_latency_cycles")
                    for w in (0, 1)
                ],
                "norm_throughput": [
                    pair_run.norm_throughput(scheme, w) for w in (0, 1)
                ],
                "total_me_utilization":
                    pair_run.results[scheme].total_me_utilization,
                "total_ve_utilization":
                    pair_run.results[scheme].total_ve_utilization,
            }
            for scheme in pair_run.results
        }
    tail_max, tail_geo = comparison.tail_gain_vs_v10()
    me_gain, ve_gain = comparison.utilization_gain_vs_pmt()
    metrics = {
        "pairs": per_pair,
        "tail_latency_gain_vs_v10_max": tail_max,
        "tail_latency_gain_vs_v10_geomean": tail_geo,
        "mean_latency_gain_vs_pmt": comparison.mean_latency_gain("pmt"),
        "mean_latency_gain_vs_v10": comparison.mean_latency_gain("v10"),
        "throughput_gain_low_contention_neu10":
            comparison.throughput_gain_low_contention("neu10"),
        "throughput_gain_vs_v10_max":
            comparison.throughput_gain_vs_v10_max(),
        "me_utilization_gain_vs_pmt": me_gain,
        "ve_utilization_gain_vs_pmt": ve_gain,
    }
    return figure_result(
        "fig19",
        metrics,
        {"target_requests": target_requests, "schemes": list(schemes)},
    )


if __name__ == "__main__":
    main()
