"""Statistics collection for simulation runs.

Tracks everything the paper's evaluation section reports:

- per-engine-class busy integrals -> ME/VE utilization (Figs. 5, 22, 27);
- per-tenant blocked cycles -> blocked-time overhead (Table III);
- per-tenant assigned-engine traces over time (Fig. 24);
- per-operator execution records (one :data:`OpRecord` tuple per
  finished operator) -> operator durations for the harvesting speedup
  breakdown (Fig. 23);
- HBM bandwidth consumption over time (Fig. 7).
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError


#: From Python 3.12 the builtin ``sum()`` compensates float rounding
#: (Neumaier): ``sum([1e16, 1.0, -1e16])`` is 1.0 there and 0.0 before.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, so a figure a result reports carries the
    same bits on every Python version.  Before 3.12 that is the
    builtin, six times faster than ``reduce``."""
    if _COMPENSATED_SUM:
        return reduce(add, values, 0.0)
    return sum(values, 0.0)


def ordered_mean(values: Collection[float]) -> float:
    """:func:`ordered_sum` over ``len(values)``; 0.0 when empty."""
    if not values:
        return 0.0
    return ordered_sum(values) / len(values)


def percentiles(values: Collection[float], pcts: Sequence[float]) -> List[float]:
    """Nearest-rank percentiles of ``values`` at each of ``pcts``, from
    one sort.

    Each ``pct`` must lie in [0, 100]: the rank clamps, so pct=0 is the
    minimum and any percentile of one sample is that sample, but an
    out-of-range percentile raises instead of clamping to min/max.  An
    empty ``values`` gives 0.0 at every percentile.
    """
    for pct in pcts:
        if not 0.0 <= pct <= 100.0:
            raise ConfigError(f"percentile must be in [0, 100], got {pct}")
    if not values:
        return [0.0] * len(pcts)
    ordered = sorted(values)
    n = len(ordered)
    return [
        ordered[min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))]
        for pct in pcts
    ]


#: One finished operator execution on one tenant, as the engine appends
#: it to :attr:`SimStats.op_records` when the operator's last group
#: retires: (tenant_id, op_name, op_index, request_id, start_cycle,
#: end_cycle).  An operator still open when the run stops has none.
OpRecord = Tuple[int, str, int, int, float, float]


@dataclass
class AssignmentSample:
    """Engine assignment snapshot for one epoch (Fig. 24 traces)."""

    start_cycle: float
    end_cycle: float
    mes_per_tenant: Dict[int, float]
    ves_per_tenant: Dict[int, float]


class SimStats:
    """Accumulates integrals and traces during a simulation run.

    ``op_records`` holds one :data:`OpRecord` per finished operator, in
    finish order, when ``record_ops`` is set; the tenant keeps the open
    operator's start cycle until then.
    """

    def __init__(self, num_mes: int, num_ves: int, record_assignment: bool = True,
                 record_ops: bool = True, record_bandwidth: bool = False) -> None:
        self.num_mes = num_mes
        self.num_ves = num_ves
        self.record_assignment = record_assignment
        self.record_ops = record_ops
        self.record_bandwidth = record_bandwidth
        self.total_cycles = 0.0
        self.me_busy_integral = 0.0
        self.ve_busy_integral = 0.0
        self.me_busy_per_tenant: Dict[int, float] = defaultdict(float)
        self.ve_busy_per_tenant: Dict[int, float] = defaultdict(float)
        self.blocked_cycles_per_tenant: Dict[int, float] = defaultdict(float)
        self.preemption_count = 0
        self.reclaim_penalty_cycles = 0.0
        self.assignment_trace: List[AssignmentSample] = []
        self.op_records: List[OpRecord] = []
        self.bandwidth_trace: List[Tuple[float, float, float]] = []

    # ------------------------------------------------------------------
    # Epoch accounting
    # ------------------------------------------------------------------
    def record_epoch(
        self,
        start: float,
        delta: float,
        me_busy: Dict[int, float],
        ve_busy: Dict[int, float],
        me_assigned: Optional[Dict[int, float]] = None,
        ve_assigned: Optional[Dict[int, float]] = None,
        hbm_bytes_per_cycle: float = 0.0,
    ) -> None:
        """Accumulate one epoch.

        ``me_busy``/``ve_busy`` are *productive* engine counts (rate
        weighted: a memory-stalled engine counts fractionally), which is
        what the paper's utilization figures report.  ``me_assigned`` /
        ``ve_assigned`` are raw assignment counts for the Fig. 24 traces.
        """
        if delta <= 0:
            return
        self.total_cycles += delta
        for tenant, mes in me_busy.items():
            self.me_busy_integral += mes * delta
            self.me_busy_per_tenant[tenant] += mes * delta
        for tenant, ves in ve_busy.items():
            self.ve_busy_integral += ves * delta
            self.ve_busy_per_tenant[tenant] += ves * delta
        if self.record_assignment:
            self._append_assignment(
                start,
                delta,
                me_assigned if me_assigned is not None else me_busy,
                ve_assigned if ve_assigned is not None else ve_busy,
            )
        if self.record_bandwidth:
            self.bandwidth_trace.append((start, start + delta, hbm_bytes_per_cycle))

    def _append_assignment(
        self,
        start: float,
        delta: float,
        mes: Dict[int, float],
        ves: Dict[int, float],
    ) -> None:
        trace = self.assignment_trace
        if trace:
            last = trace[-1]
            if (
                last.end_cycle == start
                and last.mes_per_tenant == mes
                and last.ves_per_tenant == ves
            ):
                last.end_cycle = start + delta
                return
        trace.append(
            AssignmentSample(
                start_cycle=start,
                end_cycle=start + delta,
                mes_per_tenant=dict(mes),
                ves_per_tenant=dict(ves),
            )
        )

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def me_utilization(self) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return self.me_busy_integral / (self.total_cycles * self.num_mes)

    def ve_utilization(self) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return self.ve_busy_integral / (self.total_cycles * self.num_ves)

    def tenant_me_utilization(self, tenant_id: int) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return self.me_busy_per_tenant[tenant_id] / (self.total_cycles * self.num_mes)

    def tenant_ve_utilization(self, tenant_id: int) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return self.ve_busy_per_tenant[tenant_id] / (self.total_cycles * self.num_ves)

    def op_durations(self, tenant_id: int) -> Dict[str, List[float]]:
        """Operator name -> the tenant's execution durations, in finish
        order (an end before its start counts as 0.0)."""
        out: Dict[str, List[float]] = defaultdict(list)
        for tid, name, _index, _rid, start, end in self.op_records:
            if tid == tenant_id:
                out[name].append(max(0.0, end - start))
        return out

    def assignment_series(
        self, tenant_id: int
    ) -> List[Tuple[float, float, float, float]]:
        """(start, end, #MEs, #VEs) series for one tenant (Fig. 24)."""
        return [
            (
                s.start_cycle,
                s.end_cycle,
                s.mes_per_tenant.get(tenant_id, 0.0),
                s.ves_per_tenant.get(tenant_id, 0.0),
            )
            for s in self.assignment_trace
        ]

    def average_bandwidth(self) -> float:
        """Mean HBM bytes/cycle over the run (only when recorded)."""
        if not self.bandwidth_trace:
            return 0.0
        total_bytes = ordered_sum(
            (e - s) * bw for s, e, bw in self.bandwidth_trace
        )
        span = self.bandwidth_trace[-1][1] - self.bandwidth_trace[0][0]
        if span <= 0:
            return 0.0
        return total_bytes / span
