"""The epoch-driven simulation engine.

See :mod:`repro.sim` for the fluid execution model.  The engine owns:

- tenants (vNPU + compiled workload + request stream),
- the reclaim list (engines paying the ME context-switch penalty after a
  preemption, paper SectionIII-G: 256 cycles for a 128x128 array),
- the main loop: ask the scheduler for a :class:`Decision`, validate it
  against physical capacity, compute progress rates (HBM max-min fair
  sharing + embedded-VE coupling), advance to the next event, handle
  completions and request lifecycle.
"""

from __future__ import annotations

import gc
import math
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.compiler.lowering import CompiledGraph, CompiledOp
from repro.config import NpuCoreConfig
from repro.errors import SimulationError
from repro.isa.utop import UTopKind
from repro.sim.hbm import (
    FairFactorCache,
    hierarchical_fair_factors,
    slowdown_factors,
)
from repro.sim.scheduler_base import Decision, ExecUnit, SchedulerBase, UnitKind, UnitState
from repro.sim.stats import SimStats

#: Numerical tolerance for completion checks and capacity validation.
EPS = 1e-6
#: Lower bound for any epoch to guarantee forward progress.
MIN_DELTA = 1e-9
#: Environment escape hatch: set REPRO_SIM_FAST_PATH=0 to force every
#: simulator onto the unmemoised reference path (used by the
#: differential bit-identity tests).
FAST_PATH_ENV = "REPRO_SIM_FAST_PATH"
#: Units returned to a tenant's free-list, awaiting reuse.
_POOL_LIMIT = 64
#: Decision-memo safety valve; real runs stay far below this.
_MEMO_LIMIT = 65536


def _fast_path_default() -> bool:
    return os.environ.get(FAST_PATH_ENV, "1").lower() not in ("0", "false", "off")


#: Process-wide plan memos, keyed by (scheduler memo_context, core,
#: hbm policy, record_assignment, tenant allocation layout).
_PLAN_MEMOS: Dict[Tuple, Dict] = {}


@dataclass
class Request:
    request_id: int
    issue_cycle: float
    start_cycle: float = 0.0
    finish_cycle: float = 0.0

    @property
    def latency(self) -> float:
        return self.finish_cycle - self.issue_cycle

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting for admission (zero under closed loop)."""
        return self.start_cycle - self.issue_cycle


@dataclass
class ReclaimTimer:
    """One engine paying the preemption penalty until ``ready_at``."""

    ready_at: float
    owner: int


class Tenant:
    """One vNPU instance executing a compiled workload.

    ``alloc_mes``/``alloc_ves`` is the vNPU's engine allocation (its
    *home* capacity under spatial mapping, or its fair share under
    temporal mapping).  Requests are closed-loop by default: the next
    request is issued as soon as the previous one finishes, mirroring the
    paper's steady-state methodology; open-loop arrival times can be
    supplied instead.  Open-loop tenants may pass
    ``target_requests=None`` ("drain" mode): the tenant finishes when
    every supplied arrival has been admitted and served, so queueing
    delay -- not a request count -- bounds the run.
    """

    def __init__(
        self,
        tenant_id: int,
        name: str,
        graph: CompiledGraph,
        alloc_mes: int,
        alloc_ves: int,
        target_requests: Optional[int] = 10,
        priority: float = 1.0,
        arrivals: Optional[Sequence[float]] = None,
    ) -> None:
        if alloc_mes < 0 or alloc_ves < 0:
            raise SimulationError("allocations cannot be negative")
        if len(graph) == 0:
            raise SimulationError(f"tenant {name!r} has an empty workload")
        if target_requests is None and arrivals is None:
            raise SimulationError(
                "target_requests=None (drain mode) requires open-loop arrivals"
            )
        self.tenant_id = tenant_id
        self.name = name
        self.graph = graph
        self.alloc_mes = alloc_mes
        self.alloc_ves = alloc_ves
        self.target_requests = target_requests
        self.priority = priority
        self.closed_loop = arrivals is None
        self.pending_arrivals: Deque[float] = deque(arrivals or [])
        self.queued_requests: Deque[Request] = deque()
        # runtime cursors
        self.active_units: List[ExecUnit] = []
        self.current_request: Optional[Request] = None
        self.op_cursor = 0
        self.group_cursor = 0
        self.completed: List[Request] = []
        self._next_request_id = 0
        # Per-(op, group) unit templates: every request replays the same
        # compiled graph, so the unit specs are derived once (and shared
        # across tenants running the same graph object) instead of being
        # recomputed per request.
        self._templates = _graph_unit_templates(graph)
        #: Free-list of retired ExecUnit shells for the hot spawn path.
        self._pool: List[ExecUnit] = []
        #: Set when the active unit set changed (spawn/retire); the
        #: engine's fast path uses it to detect steady-state epochs.
        self._units_mutated = False

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def bootstrap(self, now: float) -> None:
        if self.closed_loop:
            self.queued_requests.append(
                Request(request_id=self._take_id(), issue_cycle=now)
            )
        self.activate_arrivals(now)
        self._maybe_start_request(now)

    def _take_id(self) -> int:
        rid = self._next_request_id
        self._next_request_id += 1
        return rid

    def activate_arrivals(self, now: float) -> None:
        pending = self.pending_arrivals
        threshold = now + EPS
        while pending and pending[0] <= threshold:
            issue = pending.popleft()
            self.queued_requests.append(
                Request(request_id=self._take_id(), issue_cycle=issue)
            )
        if self.current_request is None and self.queued_requests:
            self._maybe_start_request(now)

    def _maybe_start_request(self, now: float) -> None:
        if self.current_request is not None or not self.queued_requests:
            return
        request = self.queued_requests.popleft()
        request.start_cycle = now
        self.current_request = request
        self.op_cursor = 0
        self.group_cursor = 0

    def start_pending_work(self, now: float, stats: SimStats) -> None:
        """Instantiate units for the current group if none are active."""
        self._maybe_start_request(now)
        if self.current_request is None or self.active_units:
            return
        self._spawn_group_units(now, stats)

    # ------------------------------------------------------------------
    # Unit creation
    # ------------------------------------------------------------------
    def _spawn_group_units(self, now: float, stats: SimStats) -> None:
        request = self.current_request
        assert request is not None
        templates = self._templates[self.op_cursor][self.group_cursor]
        if self.group_cursor == 0 and stats.record_ops:
            op = self.graph.ops[self.op_cursor]
            stats.op_started(
                self.tenant_id, op.name, op.op_index, request.request_id, now,
            )
        if not templates:
            op = self.graph.ops[self.op_cursor]
            raise SimulationError(f"operator {op.name!r} produced no units")
        pool = self._pool
        tid = self.tenant_id
        rid = request.request_id
        from_template = ExecUnit.from_template
        self.active_units = [
            from_template(tpl, tid, rid, pool) for tpl in templates
        ]
        self._units_mutated = True

    def on_unit_done(self, now: float, stats: SimStats, sim: "Simulator") -> None:
        """Advance cursors when the whole active group completed."""
        done = UnitState.DONE
        for u in self.active_units:
            if u.state is not done:
                return
        assert self.current_request is not None
        op_cursor = self.op_cursor
        self.group_cursor += 1
        retired = self.active_units
        if len(self._pool) < _POOL_LIMIT:
            self._pool.extend(retired)
        self.active_units = []
        self._units_mutated = True
        if self.group_cursor < len(self._templates[op_cursor]):
            self._spawn_group_units(now, stats)
            return
        if stats.record_ops:
            op = self.graph.ops[op_cursor]
            stats.op_finished(
                self.tenant_id, op.op_index, self.current_request.request_id,
                now,
            )
        self.group_cursor = 0
        self.op_cursor = op_cursor + 1
        if self.op_cursor < len(self._templates):
            self._spawn_group_units(now, stats)
            return
        # Request complete.
        request = self.current_request
        request.finish_cycle = now
        self.completed.append(request)
        self.current_request = None
        self.op_cursor = 0
        if self.closed_loop:
            self.queued_requests.append(
                Request(request_id=self._take_id(), issue_cycle=now)
            )
        self.start_pending_work(now, stats)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def issued_requests(self) -> int:
        """Requests admitted so far (open-loop offered load accounting)."""
        return self._next_request_id

    def latencies(self) -> List[float]:
        return [r.latency for r in self.completed]

    def queueing_delays(self) -> List[float]:
        return [r.queueing_delay for r in self.completed]


#: A unit template mirrors ExecUnit.from_template's field order:
#: (kind, is_me_unit, me_engines_needed, remaining_me, remaining_ve,
#:  ve_rate, hbm_rate, parallelism, op_index, op_name, tpl_id).
UnitTemplate = Tuple[
    UnitKind, bool, int, float, float, float, float, int, int, str, int
]

#: Interned decision-relevant template signatures -> small ids.  Two
#: units whose (kind, engine requirement, VE rate, HBM rate,
#: parallelism) coincide are interchangeable for scheduling decisions
#: and progress rates (remaining work and op identity do not enter
#: either), so they deliberately share a ``tpl_id`` -- the aliasing
#: multiplies decision-memo hits across operators and models.
_template_signatures: Dict[Tuple, int] = {}


def _intern_signature(
    kind: UnitKind, needs: int, ve_rate: float, hbm_rate: float, par: int
) -> int:
    sig = (kind, needs, ve_rate, hbm_rate, par)
    tpl_id = _template_signatures.get(sig)
    if tpl_id is None:
        tpl_id = len(_template_signatures)
        _template_signatures[sig] = tpl_id
    return tpl_id


def _neuisa_group_templates(op: CompiledOp, group_cursor: int) -> Tuple[UnitTemplate, ...]:
    group = op.groups[group_cursor]
    templates: List[UnitTemplate] = []
    for utop in group.utops:
        cost = utop.cost
        if utop.kind is UTopKind.ME:
            me_cycles = max(cost.me_cycles, 1.0)
            ve_rate = cost.ve_cycles / me_cycles
            hbm_rate = cost.hbm_bytes / me_cycles
            templates.append((
                UnitKind.ME_UTOP, True, 1,
                me_cycles, cost.ve_cycles,
                ve_rate, hbm_rate,
                1, op.op_index, op.name,
                _intern_signature(UnitKind.ME_UTOP, 1, ve_rate, hbm_rate, 1),
            ))
        else:
            ve_cycles = max(cost.ve_cycles, 1.0)
            hbm_rate = cost.hbm_bytes / ve_cycles
            par = max(1, cost.parallelism)
            templates.append((
                UnitKind.VE_UTOP, False, 0,
                0.0, ve_cycles,
                0.0, hbm_rate,
                par, op.op_index, op.name,
                _intern_signature(UnitKind.VE_UTOP, 0, 0.0, hbm_rate, par),
            ))
    return tuple(templates)


def _vliw_op_templates(op: CompiledOp) -> Tuple[UnitTemplate, ...]:
    if op.is_me_op:
        per_engine = max(op.me_cycles_per_engine, 1.0)
        engines = max(1, op.coupled_me_count)
        # ve_rate is VE demand *per granted engine* so that
        # `ve_rate * granted_me` is the op's total stream rate; hbm_rate
        # is likewise per engine.
        ve_rate = op.ve_cycles / per_engine / engines
        hbm_rate = op.hbm_bytes / per_engine / engines
        return ((
            UnitKind.VLIW_ME, True, engines,
            per_engine, op.ve_cycles,
            ve_rate, hbm_rate,
            1, op.op_index, op.name,
            _intern_signature(UnitKind.VLIW_ME, engines, ve_rate, hbm_rate, 1),
        ),)
    ve_cycles = max(op.ve_cycles, 1.0)
    hbm_rate = op.hbm_bytes / ve_cycles
    par = max(1, op.ve_parallelism)
    return ((
        UnitKind.VLIW_VE, False, 0,
        0.0, ve_cycles,
        0.0, hbm_rate,
        par, op.op_index, op.name,
        _intern_signature(UnitKind.VLIW_VE, 0, 0.0, hbm_rate, par),
    ),)


def _op_templates(op: CompiledOp) -> Tuple[Tuple[UnitTemplate, ...], ...]:
    if op.isa == "neuisa":
        groups = tuple(
            _neuisa_group_templates(op, g) for g in range(len(op.groups))
        )
    else:
        groups = (_vliw_op_templates(op),)
    # Validate once here (templates bypass ExecUnit.__init__ checks).
    for group in groups:
        for tpl in group:
            if tpl[2] < 0:
                raise SimulationError(
                    f"operator {op.name!r}: negative engine requirement"
                )
            if tpl[3] < 0 or tpl[4] < 0:
                raise SimulationError(
                    f"operator {op.name!r}: negative remaining work"
                )
    return groups


def _graph_unit_templates(
    graph: CompiledGraph,
) -> List[Tuple[Tuple[UnitTemplate, ...], ...]]:
    """Per-(op, group) unit specs, cached on the graph object so tenants
    replaying the same compiled graph (and every request within a
    tenant) share one validated template set."""
    cached = getattr(graph, "_unit_template_cache", None)
    if cached is None:
        cached = [_op_templates(op) for op in graph.ops]
        try:
            graph._unit_template_cache = cached
        except AttributeError:  # pragma: no cover - frozen graph stand-ins
            pass
    return cached


class _EpochPlan:
    """One epoch's fully derived execution plan.

    Everything here is a pure function of the scheduler state
    fingerprint: the per-unit progress rates, the aggregated per-tenant
    busy/assignment rate dicts (delta-independent, so they are computed
    once per plan -- and shared by every replay of a memoised plan --
    instead of once per epoch), the ids of the blocked tenants, and the
    scheduler's forced re-decision time.
    """

    __slots__ = (
        "rates", "ve_exec", "hbm_rate", "next_at", "blocked",
        "me_busy", "ve_busy", "me_assigned", "ve_assigned",
    )

    def __init__(
        self,
        rates: List[Tuple[ExecUnit, float]],
        ve_exec: List[Tuple[ExecUnit, float]],
        hbm_rate: float,
        next_at: Optional[float],
        blocked: Tuple[int, ...],
        me_busy: Dict[int, float],
        ve_busy: Dict[int, float],
        me_assigned: Optional[Dict[int, float]],
        ve_assigned: Optional[Dict[int, float]],
    ) -> None:
        self.rates = rates
        self.ve_exec = ve_exec
        self.hbm_rate = hbm_rate
        self.next_at = next_at
        self.blocked = blocked
        self.me_busy = me_busy
        self.ve_busy = ve_busy
        self.me_assigned = me_assigned
        self.ve_assigned = ve_assigned


def _aggregate_rate_dicts(
    rates: List[Tuple[ExecUnit, float]],
    ve_exec: List[Tuple[ExecUnit, float]],
    record_assignment: bool,
):
    """Per-tenant busy/assignment rate dicts for one plan.

    Keyed by owner id (stable for the lifetime of a Simulator), so the
    dicts can live inside a memo entry and be shared across replays."""
    me_busy: Dict[int, float] = {}
    ve_busy: Dict[int, float] = {}
    me_assigned: Optional[Dict[int, float]] = None
    ve_assigned: Optional[Dict[int, float]] = None
    if record_assignment:
        me_assigned = {}
        ve_assigned = {}
    for unit, rate in rates:
        owner = unit.owner
        granted_me = unit.granted_me
        ve_rate = unit.ve_rate
        if ve_rate > 0:
            ve_busy[owner] = ve_busy.get(owner, 0.0) + (
                rate * ve_rate * granted_me
            )
            if record_assignment:
                ve_assigned[owner] = (
                    ve_assigned.get(owner, 0.0) + unit.granted_ve
                )
        me_busy[owner] = me_busy.get(owner, 0.0) + rate * granted_me
        if record_assignment:
            me_assigned[owner] = me_assigned.get(owner, 0.0) + granted_me
    for unit, rate in ve_exec:
        owner = unit.owner
        ve_busy[owner] = ve_busy.get(owner, 0.0) + rate
        if record_assignment:
            ve_assigned[owner] = (
                ve_assigned.get(owner, 0.0) + unit.granted_ve
            )
    return me_busy, ve_busy, me_assigned, ve_assigned


def _encode_plan(
    units: List[ExecUnit],
    preempt_effects: List[Tuple[ExecUnit, int]],
    plan: _EpochPlan,
) -> Tuple:
    """Encode an epoch plan for replay onto future unit objects.

    Unit-dependent pieces (preempt effects, rate pairs) are stored
    positionally against the fingerprint-ordered ``units`` list; the
    post-decision unit state (grant, VE share, harvesting flag, state)
    is snapshot densely so a replay applies it in one fused pass.  The
    blocked set and the rate dicts are keyed by tenant id, so an entry
    holds no per-simulation object references and memos can be shared
    across simulators.  The entry is the 11-tuple ``(preempt effects,
    dense state, ME rates, VE rates, HBM rate, blocked tenant ids,
    me_busy, ve_busy, me_assigned, ve_assigned, forced)``.  ``forced``
    records whether the plan forced a re-decision; its time is not
    stored, because it belongs to the policy state of the moment (a
    replay asks :meth:`SchedulerBase.forced_decision_at` for it).
    """
    index = {u: i for i, u in enumerate(units)}
    return (
        tuple((index[u], owner) for u, owner in preempt_effects),
        tuple(
            (u.granted_me, u.granted_ve, u.harvesting, u.state)
            for u in units
        ),
        tuple((index[u], r) for u, r in plan.rates),
        tuple((index[u], r) for u, r in plan.ve_exec),
        plan.hbm_rate,
        plan.blocked,
        plan.me_busy,
        plan.ve_busy,
        plan.me_assigned,
        plan.ve_assigned,
        plan.next_at is not None,
    )


@dataclass
class TenantResult:
    """Per-tenant outcome of a run."""

    tenant_id: int
    name: str
    latencies_cycles: List[float]
    throughput_rps: float
    me_utilization: float
    ve_utilization: float
    blocked_fraction: float
    completed_requests: int
    #: Per-completed-request admission wait (all zeros under closed loop).
    queueing_cycles: List[float] = field(default_factory=list)
    #: Requests admitted during the run; under open loop this is the
    #: offered load, so ``completed/offered`` is SLO-style attainment
    #: even when the horizon cuts a queue off mid-flight.
    offered_requests: int = 0

    def latency_percentile(self, pct: float) -> float:
        if not self.latencies_cycles:
            return 0.0
        ordered = sorted(self.latencies_cycles)
        idx = min(len(ordered) - 1, max(0, math.ceil(pct / 100.0 * len(ordered)) - 1))
        return ordered[idx]

    @property
    def p95_latency(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def mean_latency(self) -> float:
        if not self.latencies_cycles:
            return 0.0
        return sum(self.latencies_cycles) / len(self.latencies_cycles)

    @property
    def mean_queueing_delay(self) -> float:
        if not self.queueing_cycles:
            return 0.0
        return sum(self.queueing_cycles) / len(self.queueing_cycles)


@dataclass
class SimResult:
    tenants: Dict[int, TenantResult]
    stats: SimStats
    total_cycles: float

    def tenant(self, tenant_id: int) -> TenantResult:
        return self.tenants[tenant_id]


class Simulator:
    """Multi-tenant NPU core simulator."""

    def __init__(
        self,
        core: NpuCoreConfig,
        scheduler: SchedulerBase,
        tenants: Sequence[Tenant],
        horizon_cycles: float = float("inf"),
        record_assignment: bool = False,
        record_ops: bool = True,
        record_bandwidth: bool = False,
        max_epochs: int = 5_000_000,
        hbm_policy: str = "hierarchical",
        fast_path: Optional[bool] = None,
    ) -> None:
        if not tenants:
            raise SimulationError("simulator needs at least one tenant")
        ids = [t.tenant_id for t in tenants]
        if len(set(ids)) != len(ids):
            raise SimulationError("tenant ids must be unique")
        if hbm_policy not in ("hierarchical", "flat"):
            raise SimulationError(f"unknown HBM policy {hbm_policy!r}")
        self.core = core
        self.scheduler = scheduler
        self.tenants = list(tenants)
        self.horizon = horizon_cycles
        self.max_epochs = max_epochs
        #: "hierarchical" = fair per vNPU then per stream (the paper's
        #: default); "flat" = max-min fair across all streams (ablation).
        self.hbm_policy = hbm_policy
        self.now = 0.0
        self.reclaims: List[ReclaimTimer] = []
        self.stats = SimStats(
            num_mes=core.num_mes,
            num_ves=core.num_ves,
            record_assignment=record_assignment,
            record_ops=record_ops,
            record_bandwidth=record_bandwidth,
        )
        #: Fast path (default on): memoise scheduler decisions and HBM
        #: fair factors across structurally identical epochs, and reuse
        #: the whole epoch plan across steady-state intervals.  All
        #: memoisation is exact-key, so results are bit-identical to the
        #: reference path; ``fast_path=False`` (or REPRO_SIM_FAST_PATH=0)
        #: is the escape hatch that forces the reference path.
        self.fast_path = _fast_path_default() if fast_path is None else bool(fast_path)
        self._factor_cache = FairFactorCache(
            core.hbm_bytes_per_cycle, policy=hbm_policy
        )
        # (key -> encoded epoch plan); see _encode_plan/_replay_plan.
        # Shared process-wide between structurally identical simulations
        # (same policy knobs, core, tenant layout) so repeated windows,
        # sweep points, and cluster segments start with a warm memo;
        # entries are positional and hold no per-simulation references.
        # A scheduler without a memo context (PMT and V10, whose keys
        # carry a policy token) gets a memo private to this run.
        memo_ctx = self.scheduler.memo_context() if self.fast_path else None
        if memo_ctx is not None:
            # The concrete class is part of the key: a subclass that
            # overrides decide() but inherits memo_context() must not
            # replay the base class's plans.
            ctx = (
                type(self.scheduler),
                memo_ctx,
                core,
                hbm_policy,
                record_assignment,
                tuple(
                    (t.tenant_id, t.alloc_mes, t.alloc_ves)
                    for t in self.tenants
                ),
            )
            if ctx not in _PLAN_MEMOS and len(_PLAN_MEMOS) >= 256:
                _PLAN_MEMOS.clear()  # safety valve for sweep marathons
            self._decision_memo = _PLAN_MEMOS.setdefault(ctx, {})
        else:
            self._decision_memo = {}
        self._memo_ctx = ctx if memo_ctx is not None else None
        self._dirty = True
        self._reusable = False
        self._fp_capable = False
        #: Memo key of the current plan when it was replayed from (or
        #: stored into) the decision memo, else None.  Consumed by the
        #: mega-batch engine to bind a lane to a shared chain node.
        self._plan_key = None
        #: Fingerprint-ordered unit list matching ``_plan_key``.
        self._fp_units: Optional[List[ExecUnit]] = None
        self._finished_units: List[ExecUnit] = []

    # ------------------------------------------------------------------
    # Capacity helpers used by schedulers
    # ------------------------------------------------------------------
    @property
    def available_mes(self) -> int:
        return self.core.num_mes - len(self.reclaims)

    def reclaiming_for(self, tenant_id: int) -> int:
        if not self.reclaims:
            return 0
        return sum(1 for r in self.reclaims if r.owner == tenant_id)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bootstrap every tenant's request stream (idempotent prefix of
        :meth:`run`; the mega-batch engine calls it separately so it can
        own the epoch loop)."""
        for tenant in self.tenants:
            tenant.bootstrap(self.now)
            tenant.start_pending_work(self.now, self.stats)

    def run(self) -> SimResult:
        self.start()
        epochs = 0
        max_epochs = self.max_epochs
        # The epoch loop allocates heavily but acyclically (tuples,
        # pair lists, pooled units); pausing the cycle collector keeps
        # its periodic scans out of the hot loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while not self._finished() and self.now < self.horizon:
                epochs += 1
                if epochs > max_epochs:
                    raise SimulationError(
                        f"exceeded {max_epochs} epochs at cycle "
                        f"{self.now:.0f}; likely a scheduling livelock"
                    )
                self._step()
        finally:
            if gc_was_enabled:
                gc.enable()
        return self._build_result()

    def _finished(self) -> bool:
        for t in self.tenants:
            target = t.target_requests
            if target is None:
                # Drain mode: done once the whole arrival stream is served.
                if (
                    t.pending_arrivals
                    or t.queued_requests
                    or t.current_request is not None
                ):
                    return False
            elif len(t.completed) < target:
                return False
        return True

    def _step(self) -> None:
        plan, had_preempt = self._next_plan()
        self._finish_step(plan, had_preempt)

    def _next_plan(self):
        """First half of an epoch: expire reclaims, admit arrivals and
        pending work, then select this epoch's plan (fused reuse, memo
        replay, or a fresh decision)."""
        before = len(self.reclaims)
        self._expire_reclaims()
        dirty = self._dirty or len(self.reclaims) != before
        now = self.now
        stats = self.stats
        for tenant in self.tenants:
            if tenant.pending_arrivals:
                tenant.activate_arrivals(now)
            if not tenant.active_units:
                tenant.start_pending_work(now, stats)
            if tenant._units_mutated:
                tenant._units_mutated = False
                dirty = True

        if not dirty and self._reusable:
            # Steady-state epoch fusion: no discrete event happened since
            # the previous epoch, which the scheduler fingerprinted and
            # which forced no re-decision, so the previous decision,
            # grants, progress rates, and accounting sets hold verbatim
            # -- fast-forward straight to the next event.
            return self._prev_plan, False
        return self._plan_epoch()

    def _finish_step(self, plan: "_EpochPlan", had_preempt: bool) -> None:
        """Second half of an epoch: advance to the next event and retire
        completed units."""
        next_at = plan.next_at
        delta = self._pick_delta(next_at, plan.rates, plan.ve_exec)
        self._advance(delta, plan)
        self.now += delta
        finished = self._handle_completions()
        # A preemption epoch leaves fresh reclaim timers behind: the next
        # decision must see them, so it can never be fused or reused.
        self._dirty = finished or had_preempt
        self._reusable = (
            self.fast_path and self._fp_capable and next_at is None
        )
        self._prev_plan = plan

    def _plan_epoch(self):
        """Produce this epoch's plan and whether anything was preempted.

        A plan holds ``(unit, rate)`` progress pairs for ME units and
        for VE units, the consumed HBM rate, the scheduler's forced
        re-decision time, the ids of the blocked tenants, and the
        per-tenant busy/assignment rate dicts.  Everything in a plan is
        a pure function of the scheduler state fingerprint, which is
        what makes it replayable.

        Three tiers: (1) memo hit -- a structurally identical state was
        seen before, replay the stored plan without re-running the
        scheduler or the HBM waterfill; (2) full plan -- run the
        scheduler, validate, compute rates, and memoise when the
        scheduler fingerprinted the epoch; (3) reference path
        (fast_path off) -- identical to (2) minus every cache.

        A plan that forces a re-decision is memoised only when the
        scheduler's ``forced_decision_at`` returns exactly the plan's
        time, so a scheduler without that hook never has such a plan
        replayed.
        """
        fp = self.scheduler.state_fingerprint(self) if self.fast_path else None
        self._fp_capable = fp is not None
        self._plan_key = None
        self._fp_units = None
        if fp is not None:
            entry = self._decision_memo.get(fp[0])
            if entry is not None:
                self._plan_key = fp[0]
                self._fp_units = fp[1]
                return self._replay_plan(entry, fp[1])

        decision = self.scheduler.decide(self)
        # Capture preempt effects before they are applied (state changes
        # under _apply_preemptions); the memo replays effects, not the
        # scheduler's Decision object.
        preempt_effects = [
            (u, decision.reclaim_owners.get(u, u.owner))
            for u in decision.preempt
            if u.state is UnitState.RUNNING
        ]
        prev_running = [
            u
            for t in self.tenants
            for u in t.active_units
            if u.state is UnitState.RUNNING and u.is_me_unit
        ]
        self._apply_preemptions(decision)
        self._apply_grants(decision)
        # Continuity contract: a running ME unit cannot silently lose its
        # engine -- it must either keep running or be preempted (paying
        # the context-switch penalty).
        preempted = set(decision.preempt)
        for unit in prev_running:
            if unit not in decision.running_me and unit not in preempted:
                raise SimulationError(
                    f"scheduler dropped running unit {unit.op_name!r} "
                    "without preempting it"
                )

        rates, ve_exec_rates, hbm_rate = self._compute_rates()
        next_at = decision.next_decision_at
        me_busy, ve_busy, me_assigned, ve_assigned = _aggregate_rate_dicts(
            rates, ve_exec_rates, self.stats.record_assignment
        )
        plan = _EpochPlan(
            rates, ve_exec_rates, hbm_rate, next_at, self._compute_blocked(),
            me_busy, ve_busy, me_assigned, ve_assigned,
        )
        if fp is not None and (
            next_at is None
            or next_at == self.scheduler.forced_decision_at(self)
        ):
            if len(self._decision_memo) >= _MEMO_LIMIT:
                self._decision_memo.clear()
            self._decision_memo[fp[0]] = _encode_plan(
                fp[1], preempt_effects, plan
            )
            self._plan_key = fp[0]
            self._fp_units = fp[1]
        return plan, bool(decision.preempt)

    def _replay_plan(self, entry: Tuple, units: List[ExecUnit]):
        """Re-apply a memoised epoch plan onto the current unit objects.

        The plan was validated when first computed and the fingerprint
        guarantees the state is structurally identical, so validation and
        the continuity check are skipped."""
        (enc_pre, dense, enc_rates, enc_ve_exec, hbm_rate, blocked,
         me_busy, ve_busy, me_assigned, ve_assigned, forced) = entry
        if enc_pre:
            stats = self.stats
            penalty = self.core.me_preemption_cycles
            ready_at = self.now + penalty
            reclaims = self.reclaims
            for i, owner in enc_pre:
                unit = units[i]
                # granted_me still holds the pre-decision grant here (the
                # dense snapshot is applied below), matching what the
                # validated plan observed when it preempted.
                engines = unit.granted_me
                if engines < 1:
                    engines = 1
                for _ in range(engines):
                    reclaims.append(
                        ReclaimTimer(ready_at=ready_at, owner=owner)
                    )
                stats.preemption_count += 1
                stats.reclaim_penalty_cycles += engines * penalty
        for unit, d in zip(units, dense):
            unit.granted_me = d[0]
            unit.granted_ve = d[1]
            unit.harvesting = d[2]
            unit.state = d[3]
        rates = [(units[i], r) for i, r in enc_rates]
        ve_exec_rates = [(units[i], r) for i, r in enc_ve_exec]
        next_at = self.scheduler.forced_decision_at(self) if forced else None
        plan = _EpochPlan(
            rates, ve_exec_rates, hbm_rate, next_at, blocked,
            me_busy, ve_busy, me_assigned, ve_assigned,
        )
        return plan, bool(enc_pre)

    # ------------------------------------------------------------------
    # Decision application
    # ------------------------------------------------------------------
    def _expire_reclaims(self) -> None:
        reclaims = self.reclaims
        if not reclaims:
            return
        threshold = self.now + EPS
        self.reclaims = [r for r in reclaims if r.ready_at > threshold]

    def _apply_preemptions(self, decision: Decision) -> None:
        for unit in decision.preempt:
            if unit.state is not UnitState.RUNNING:
                continue
            engines = max(1, unit.granted_me)
            ready_at = self.now + self.core.me_preemption_cycles
            # The freed engines belong to whichever tenant the scheduler
            # is reclaiming them for; harvested engines return home.
            owner = decision.reclaim_owners.get(unit, unit.owner)
            for _ in range(engines):
                self.reclaims.append(ReclaimTimer(ready_at=ready_at, owner=owner))
            unit.state = UnitState.READY
            unit.granted_me = 0
            unit.granted_ve = 0.0
            unit.harvesting = False
            self.stats.preemption_count += 1
            self.stats.reclaim_penalty_cycles += (
                engines * self.core.me_preemption_cycles
            )
            if unit in decision.running_me:
                raise SimulationError("scheduler both preempted and ran a unit")

    def _apply_grants(self, decision: Decision) -> None:
        # Clear previous grants on every live unit.
        running = UnitState.RUNNING
        for tenant in self.tenants:
            for unit in tenant.active_units:
                if unit.state is running:
                    unit.state = UnitState.READY
                unit.granted_me = 0
                unit.granted_ve = 0.0
                unit.harvesting = False

        total_me = 0
        for unit, engines in decision.running_me.items():
            if unit.done:
                raise SimulationError("scheduler ran a finished unit")
            if not unit.is_me_unit:
                raise SimulationError("ME grant to a VE unit")
            needed = unit.me_engines_needed
            if engines != needed:
                raise SimulationError(
                    f"unit {unit.op_name!r} needs {needed} MEs, granted {engines}"
                )
            unit.granted_me = engines
            unit.state = UnitState.RUNNING
            total_me += engines
        if total_me > self.available_mes + EPS:
            raise SimulationError(
                f"scheduler over-committed MEs: {total_me} > {self.available_mes}"
            )

        for unit, engines in decision.harvested_me.items():
            if engines > unit.granted_me:
                raise SimulationError("harvested count exceeds grant")
            unit.harvesting = engines > 0

        total_ve = 0.0
        for unit, alloc in decision.ve_alloc.items():
            if alloc < -EPS:
                raise SimulationError("negative VE allocation")
            if unit.done:
                continue
            unit.granted_ve = max(0.0, alloc)
            if not unit.is_me_unit and unit.granted_ve > 0:
                unit.state = UnitState.RUNNING
            total_ve += unit.granted_ve
        if total_ve > self.core.num_ves + 1e-3:
            raise SimulationError(
                f"scheduler over-committed VEs: {total_ve} > {self.core.num_ves}"
            )

    # ------------------------------------------------------------------
    # Rate computation and epoch selection
    # ------------------------------------------------------------------
    def _running_units(self) -> List[ExecUnit]:
        out: List[ExecUnit] = []
        for tenant in self.tenants:
            for unit in tenant.active_units:
                if unit.state is UnitState.RUNNING:
                    out.append(unit)
        return out

    def _compute_rates(self):
        """Per-unit progress rates for the currently granted units.

        Returns ``(unit, rate)`` pairs for ME units and for VE units --
        pair lists, not dicts, because the hot loops only iterate and
        pair lists avoid hashing ExecUnits every epoch.  The HBM
        waterfill dominates this path; under the fast path its factors
        come from the exact-key :class:`FairFactorCache`, which returns
        bit-identical values to a fresh computation."""
        running = self._running_units()
        demands: List[float] = []
        owners: List[int] = []
        for unit in running:
            if unit.is_me_unit:
                demands.append(unit.hbm_rate * unit.granted_me)
            else:
                demands.append(unit.hbm_rate * unit.granted_ve)
            owners.append(unit.owner)
        if self.fast_path:
            factors = self._factor_cache.factors(owners, demands)
        else:
            keyed = dict(enumerate(demands))
            if self.hbm_policy == "hierarchical":
                by_key = hierarchical_fair_factors(
                    keyed, dict(enumerate(owners)), self.core.hbm_bytes_per_cycle
                )
            else:
                by_key = slowdown_factors(keyed, self.core.hbm_bytes_per_cycle)
            factors = [by_key[i] for i in range(len(demands))]
        hbm_rate = min(self.core.hbm_bytes_per_cycle, sum(demands))

        rates: List[Tuple[ExecUnit, float]] = []
        ve_exec: List[Tuple[ExecUnit, float]] = []
        for i, unit in enumerate(running):
            f = factors[i]
            if unit.is_me_unit:
                ve_rate = unit.ve_rate
                if ve_rate > EPS:
                    needed = ve_rate * unit.granted_me
                    g = min(1.0, unit.granted_ve / needed) if needed > 0 else 1.0
                else:
                    g = 1.0
                rates.append((unit, f if f < g else g))
            else:
                ve_exec.append((unit, unit.granted_ve * f))
        return rates, ve_exec, hbm_rate

    def _pick_delta(
        self,
        next_decision_at: Optional[float],
        rates: List[Tuple[ExecUnit, float]],
        ve_exec: List[Tuple[ExecUnit, float]],
    ) -> float:
        """Advance to the next event: a unit completion, reclaim expiry,
        scheduler quantum, request arrival, or the horizon."""
        best = math.inf
        for unit, rate in rates:
            if rate > EPS:
                c = unit.remaining_me / rate
                if EPS < c < best:
                    best = c
        for unit, rate in ve_exec:
            if rate > EPS:
                c = unit.remaining_ve / rate
                if EPS < c < best:
                    best = c
        now = self.now
        if self.reclaims:
            for timer in self.reclaims:
                c = timer.ready_at - now
                if EPS < c < best:
                    best = c
        if next_decision_at is not None:
            gap = next_decision_at - now
            if gap <= EPS:
                raise SimulationError("scheduler quantum did not advance time")
            if gap < best:
                best = gap
        for tenant in self.tenants:
            pending = tenant.pending_arrivals
            if pending:
                c = pending[0] - now
                if EPS < c < best:
                    best = c
        horizon = self.horizon
        if horizon != math.inf:
            c = horizon - now
            if EPS < c < best:
                best = c
        if best == math.inf:
            self._raise_deadlock()
        return best if best > MIN_DELTA else MIN_DELTA

    def _raise_deadlock(self) -> None:
        detail = []
        for tenant in self.tenants:
            detail.append(
                f"{tenant.name}: units={len(tenant.active_units)} "
                f"completed={len(tenant.completed)}/{tenant.target_requests}"
            )
        raise SimulationError(
            "no runnable work and no future events at cycle "
            f"{self.now:.0f} ({'; '.join(detail)})"
        )

    # ------------------------------------------------------------------
    # Advancing state
    # ------------------------------------------------------------------
    def _advance(self, delta: float, plan: _EpochPlan) -> None:
        stats = self.stats
        finished: List[ExecUnit] = self._finished_units
        finished.clear()
        for unit, rate in plan.rates:
            progress = rate * delta
            remaining = unit.remaining_me - progress
            unit.remaining_me = remaining if remaining > 0.0 else 0.0
            if remaining <= EPS:
                finished.append(unit)
            ve_rate = unit.ve_rate
            if ve_rate > 0:
                remaining = unit.remaining_ve - progress * ve_rate * unit.granted_me
                unit.remaining_ve = remaining if remaining > 0.0 else 0.0

        for unit, rate in plan.ve_exec:
            remaining = unit.remaining_ve - rate * delta
            unit.remaining_ve = remaining if remaining > 0.0 else 0.0
            if remaining <= EPS:
                finished.append(unit)

        # Table III metric: a tenant is blocked when it runs fewer home
        # engines than it is entitled to (because a harvester still holds
        # them or the reclaim penalty is being paid).  The blocked set is
        # part of the plan -- it is a pure function of unit states,
        # grants, and allocations.
        blocked = stats.blocked_cycles_per_tenant
        for tid in plan.blocked:
            blocked[tid] += delta

        if stats.record_assignment or stats.record_bandwidth:
            stats.record_epoch(
                self.now,
                delta,
                plan.me_busy,
                plan.ve_busy,
                me_assigned=plan.me_assigned,
                ve_assigned=plan.ve_assigned,
                hbm_bytes_per_cycle=plan.hbm_rate,
            )
        else:
            # Inline of SimStats.record_epoch for the no-trace case --
            # same accumulation order, minus the call and branch
            # overhead of the general method.
            stats.total_cycles += delta
            integral = stats.me_busy_integral
            per_tenant = stats.me_busy_per_tenant
            for owner, mes in plan.me_busy.items():
                v = mes * delta
                integral += v
                per_tenant[owner] += v
            stats.me_busy_integral = integral
            integral = stats.ve_busy_integral
            per_tenant = stats.ve_busy_per_tenant
            for owner, ves in plan.ve_busy.items():
                v = ves * delta
                integral += v
                per_tenant[owner] += v
            stats.ve_busy_integral = integral

    def _compute_blocked(self) -> Tuple[int, ...]:
        """Ids of the tenants blocked under the current grant state."""
        done = UnitState.DONE
        running_state = UnitState.RUNNING
        out: List[int] = []
        for tenant in self.tenants:
            wanted = 0
            running = 0
            for u in tenant.active_units:
                if not u.is_me_unit:
                    continue
                state = u.state
                if state is not done:
                    wanted += u.me_engines_needed
                if state is running_state and not u.harvesting:
                    running += u.granted_me
            if wanted == 0:
                continue
            entitled = tenant.alloc_mes
            if wanted < entitled:
                entitled = wanted
            if running + EPS < entitled:
                out.append(tenant.tenant_id)
        return tuple(out)

    # ------------------------------------------------------------------
    # Completion handling
    # ------------------------------------------------------------------
    def _handle_completions(self) -> bool:
        """Retire the units _advance drove to zero remaining work.

        Only units that progressed this epoch can complete (spawns carry
        at least one cycle of work and non-running units make no
        progress), so _advance collects them as it updates remainders
        instead of rescanning every active unit here."""
        finished = self._finished_units
        if not finished:
            return False
        done = UnitState.DONE
        owners = set()
        for unit in finished:
            if unit.is_me_unit:
                unit.remaining_me = 0.0
                unit.remaining_ve = 0.0
            else:
                unit.remaining_ve = 0.0
            unit.state = done
            unit.granted_me = 0
            unit.granted_ve = 0.0
            owners.add(unit.owner)
        finished.clear()
        now = self.now
        stats = self.stats
        for tenant in self.tenants:
            if tenant.tenant_id in owners:
                tenant.on_unit_done(now, stats, self)
        return True

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _build_result(self) -> SimResult:
        total = max(self.stats.total_cycles, EPS)
        results: Dict[int, TenantResult] = {}
        seconds = self.core.cycles_to_seconds(total)
        for tenant in self.tenants:
            blocked = self.stats.blocked_cycles_per_tenant.get(tenant.tenant_id, 0.0)
            results[tenant.tenant_id] = TenantResult(
                tenant_id=tenant.tenant_id,
                name=tenant.name,
                latencies_cycles=tenant.latencies(),
                throughput_rps=len(tenant.completed) / seconds if seconds > 0 else 0.0,
                me_utilization=self.stats.tenant_me_utilization(tenant.tenant_id),
                ve_utilization=self.stats.tenant_ve_utilization(tenant.tenant_id),
                blocked_fraction=blocked / total,
                completed_requests=len(tenant.completed),
                queueing_cycles=tenant.queueing_delays(),
                offered_requests=tenant.issued_requests(),
            )
        return SimResult(tenants=results, stats=self.stats, total_cycles=total)
