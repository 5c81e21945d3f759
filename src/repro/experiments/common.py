"""Shared experiment infrastructure: pair runs, caching, formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import DEFAULT_CORE, NpuCoreConfig
from repro.experiments import expected
from repro.serving.metrics import PairMetrics
from repro.serving.server import (
    ALL_SCHEMES,
    ServingConfig,
    WorkloadSpec,
    run_collocation,
)

#: Default request target for experiment runs; benchmarks shrink this.
DEFAULT_TARGET_REQUESTS = 4


@dataclass
class PairRun:
    """All schemes' results for one collocation pair."""

    w1: str
    w2: str
    results: Dict[str, PairMetrics] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return expected.pair_key(self.w1, self.w2)

    def scheme(self, scheme: str) -> PairMetrics:
        return self.results[scheme]

    def tenant_metric(self, scheme: str, which: int, attr: str) -> float:
        metrics = self.results[scheme].tenants[which]
        return getattr(metrics, attr)

    def norm_latency(self, scheme: str, which: int, attr: str,
                     baseline: str = "pmt") -> float:
        """Latency normalised to the baseline scheme (paper Figs. 19/20):
        values < 1 mean lower (better) latency than the baseline."""
        base = self.tenant_metric(baseline, which, attr)
        val = self.tenant_metric(scheme, which, attr)
        return val / base if base > 0 else 0.0

    def norm_throughput(self, scheme: str, which: int,
                        baseline: str = "pmt") -> float:
        base = self.tenant_metric(baseline, which, "throughput_rps")
        val = self.tenant_metric(scheme, which, "throughput_rps")
        return val / base if base > 0 else 0.0


def specs_for_pair(
    w1: str, w2: str, core: NpuCoreConfig
) -> List[WorkloadSpec]:
    """Each workload runs on a vNPU with half the core (SectionV-A:
    'Each workload runs on a vNPU with 2 MEs and 2 VEs')."""
    half_mes = max(1, core.num_mes // 2)
    half_ves = max(1, core.num_ves // 2)
    return [
        WorkloadSpec(w1, expected.batch_of(w1), alloc_mes=half_mes, alloc_ves=half_ves),
        WorkloadSpec(w2, expected.batch_of(w2), alloc_mes=half_mes, alloc_ves=half_ves),
    ]


def run_pair(
    w1: str,
    w2: str,
    schemes: Sequence[str] = ALL_SCHEMES,
    target_requests: int = DEFAULT_TARGET_REQUESTS,
    core: Optional[NpuCoreConfig] = None,
) -> PairRun:
    core = core if core is not None else DEFAULT_CORE
    cfg = ServingConfig(core=core, target_requests=target_requests)
    run = PairRun(w1=w1, w2=w2)
    specs = specs_for_pair(w1, w2, core)
    for scheme in schemes:
        run.results[scheme] = run_collocation(specs, scheme, cfg)
    return run


_pair_cache: Dict[Tuple, PairRun] = {}


def _pair_cache_key(
    w1: str,
    w2: str,
    schemes: Sequence[str],
    target_requests: int,
    core: NpuCoreConfig,
) -> Tuple:
    """The single source of truth for pair-cache keys (run_pair_cached
    and run_all_pairs's fan-out pre-check must agree exactly)."""
    return (w1, w2, tuple(sorted(schemes)), target_requests, core)


def run_pair_cached(
    w1: str,
    w2: str,
    schemes: Sequence[str] = ALL_SCHEMES,
    target_requests: int = DEFAULT_TARGET_REQUESTS,
    core: Optional[NpuCoreConfig] = None,
) -> PairRun:
    """Memoised run_pair -- Figs. 19-23 and Table III share runs."""
    core = core if core is not None else DEFAULT_CORE
    key = _pair_cache_key(w1, w2, schemes, target_requests, core)
    cached = _pair_cache.get(key)
    if cached is not None:
        return cached
    run = run_pair(w1, w2, schemes, target_requests, core)
    _pair_cache[key] = run
    return run


def _run_scheme_job(job: Tuple[str, str, str, int]) -> PairMetrics:
    """Picklable worker for one (w1, w2, scheme, target) run."""
    w1, w2, scheme, target = job
    return run_pair(w1, w2, (scheme,), target).results[scheme]


def run_all_pairs(
    schemes: Sequence[str] = ALL_SCHEMES,
    target_requests: int = DEFAULT_TARGET_REQUESTS,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
) -> List[PairRun]:
    """All collocation pairs, fanned out over a process pool.

    Every (pair, scheme) run is an independent closed-loop simulation,
    so the uncached pairs go out as one executor task per (pair,
    scheme) on the default backend, pair-major in the given pair order
    (results identical for any worker count).  Per-scheme tasks keep
    the slowest pair from holding one worker for all of its schemes.
    The parent assembles each :class:`PairRun`, with ``results`` in
    ``schemes`` order, and feeds it into the shared pair cache that
    Figs. 19-23 and Table III draw from.
    """
    from repro.api.registries import make_executor
    from repro.exec import ExecSpec, ExecTask

    pairs = pairs if pairs is not None else expected.ALL_PAIRS
    key_schemes = tuple(schemes)
    missing = [
        (w1, w2)
        for w1, w2 in pairs
        if _pair_cache_key(w1, w2, key_schemes, target_requests, DEFAULT_CORE)
        not in _pair_cache
    ]
    if missing:
        tasks = [
            ExecTask(
                key=f"{w1}+{w2}/{scheme}",
                payload=(w1, w2, scheme, target_requests),
            )
            for w1, w2 in missing
            for scheme in key_schemes
        ]
        fresh = iter(
            make_executor(ExecSpec()).map_tasks(_run_scheme_job, tasks)
        )
        for w1, w2 in missing:
            run = PairRun(w1=w1, w2=w2)
            for scheme in key_schemes:
                run.results[scheme] = next(fresh).value
            key = _pair_cache_key(
                w1, w2, key_schemes, target_requests, DEFAULT_CORE
            )
            _pair_cache[key] = run
    return [
        run_pair_cached(w1, w2, schemes, target_requests) for w1, w2 in pairs
    ]


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
