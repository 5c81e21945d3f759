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
from typing import Callable, Deque, Dict, Hashable, List, Optional, Sequence, Tuple

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
from repro.sim.stats import SimStats, ordered_mean, ordered_sum, percentiles

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
        #: Start cycle of the open operator, kept only under ``record_ops``
        #: (a tenant runs its operators in order, so one is open at most).
        self._op_start = 0.0
        self.completed: List[Request] = []
        self._next_request_id = 0
        # Per-(op, group) unit templates: every request replays the same
        # compiled graph, so the unit specs are derived once (and shared
        # across tenants running the same graph object) instead of being
        # recomputed per request.
        self._templates = _graph_unit_templates(graph)
        #: Free-list of retired ExecUnit shells for the hot spawn path.
        self._pool: List[ExecUnit] = []
        #: Set when this tenant replaced its active units (spawn, group
        #: retire, mega-batch materialisation); the engine's epoch frame
        #: consumes it to re-plan and to recompute the fingerprint's
        #: creation-rank permutation.
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
            self._op_start = now
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

    def on_unit_done(self, now: float, stats: SimStats, sim: "Simulator") -> bool:
        """Advance cursors when the whole active group completed; returns
        whether that completed the current request."""
        done = UnitState.DONE
        for u in self.active_units:
            if u.state is not done:
                return False
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
            return False
        if stats.record_ops:
            op = self.graph.ops[op_cursor]
            stats.op_records.append((
                self.tenant_id, op.name, op.op_index,
                self.current_request.request_id, self._op_start, now,
            ))
        self.group_cursor = 0
        self.op_cursor = op_cursor + 1
        if self.op_cursor < len(self._templates):
            self._spawn_group_units(now, stats)
            return False
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
        return True

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


#: An epoch plan is one decision-memo entry, the 11-tuple ``(preempt
#: effects, dense state, ME rates, VE rates, HBM rate, blocked tenant
#: ids, me_busy, ve_busy, me_assigned, ve_assigned, forced)``, applied to
#: the units the plan touches, in fingerprint order (the units
#: ``state_fingerprint`` returns: tenant order, then each tenant's
#: active units):
#:
#: - preempt effects are ``(position, reclaim owner)`` pairs, applied
#:   before the dense state;
#: - the dense state holds one ``(granted_me, granted_ve, harvesting,
#:   state, code offset)`` tuple per unit, the post-decision state; the
#:   offset is ``state * 64 + granted_me`` (None from 64 engines up), so
#:   a replay sets each unit's code as ``tpl_id * 256 + offset``;
#: - the rate pairs are ``(position, rate)``, in the order the fresh
#:   decision derived them;
#: - the blocked ids and the busy/assignment dicts are keyed by tenant
#:   id, and everything else is a plain value.
#:
#: So an entry holds no per-simulation object references, and memos can
#: be shared across simulators.  Everything in it is a pure function of
#: the scheduler state fingerprint, which is what makes it replayable.
#: ``forced`` records whether the plan forced a re-decision; its time is
#: not stored, because it belongs to the policy state of the moment (a
#: replay asks :meth:`SchedulerBase.forced_decision_at` for it).
PlanEntry = Tuple

#: A promotion hook, ``promote(plan_key, units)``, as the mega-batch
#: engine's chain lanes pass to :meth:`Simulator.run`.  It returns None
#: when it does not take the epoch, which the frame then steps itself;
#: otherwise it has stepped the run from that epoch on, written back
#: ``now`` and ``epochs``, and returns the units the frame retires next.
Promote = Callable[[Hashable, List[ExecUnit]], Optional[List[ExecUnit]]]


def _aggregate_rate_dicts(
    units: List[ExecUnit],
    rates: Tuple[Tuple[int, float], ...],
    ve_exec: Tuple[Tuple[int, float], ...],
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
    for i, rate in rates:
        unit = units[i]
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
    for i, rate in ve_exec:
        unit = units[i]
        owner = unit.owner
        ve_busy[owner] = ve_busy.get(owner, 0.0) + rate
        if record_assignment:
            ve_assigned[owner] = (
                ve_assigned.get(owner, 0.0) + unit.granted_ve
            )
    return me_busy, ve_busy, me_assigned, ve_assigned


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

    @property
    def p95_latency(self) -> float:
        return percentiles(self.latencies_cycles, (95.0,))[0]

    @property
    def mean_latency(self) -> float:
        return ordered_mean(self.latencies_cycles)

    @property
    def mean_queueing_delay(self) -> float:
        return ordered_mean(self.queueing_cycles)


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
        #: Epochs stepped so far (the livelock guard's count).
        self.epochs = 0
        #: Cached creation-rank permutation of the fingerprint's units
        #: (see unit_state_fingerprint); None once a tenant replaced its
        #: active units.
        self._rank_perm: Optional[Tuple[int, ...]] = None

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
    def run(self, promote: Optional[Promote] = None) -> SimResult:
        """Bootstrap every tenant's request stream and step the whole run
        in one epoch frame (:meth:`_step_epochs`).

        ``promote`` is the mega-batch engine's promotion hook, offered
        to the frame (see :meth:`_step_epochs`); without it every epoch
        steps on unit objects."""
        for tenant in self.tenants:
            tenant.bootstrap(self.now)
            tenant.start_pending_work(self.now, self.stats)
        # The epoch loop allocates heavily but acyclically (tuples,
        # pair lists, pooled units); pausing the cycle collector keeps
        # its periodic scans out of the hot loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._step_epochs(promote)
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

    def _step_epochs(self, promote: Optional[Promote]) -> None:
        """Step every epoch of the run in one frame.

        The frame stops when every tenant is done or the clock reaches
        the horizon, and raises once ``max_epochs`` epochs have not
        sufficed (a livelock).  Each epoch runs, in order:

        1. the stop check and the livelock guard;
        2. reclaim expiry, arrivals and pending work;
        3. plan selection.  *Steady-state reuse*: no discrete event
           happened since the previous epoch, which the scheduler
           fingerprinted and which forced no re-decision, so its plan
           holds verbatim.  *Memo replay*: a structurally identical
           state was planned before, so its entry is re-applied without
           the scheduler's decision or the HBM waterfill; the
           scheduler's ``replay_policy`` hook, when it has one, first
           re-applies the policy-state change the key carries.  *Fresh
           decision*: run the scheduler, validate, derive rates, and
           memoise the entry when the scheduler fingerprinted the epoch
           (a plan that forces a re-decision only when
           ``forced_decision_at`` returns exactly its time).  With the
           fast path off, every epoch decides fresh;
        4. the delta scan: the next unit completion, reclaim expiry,
           forced re-decision, arrival or the horizon;
        5. the advance of every unit's remaining work, plus accounting;
        6. completion retire: units driven to zero become DONE and their
           tenants advance (retire runs at the top of the loop).

        A plan is a memo entry applied to the units the plan touches
        (see :data:`PlanEntry`).  The clock, the epoch count, the stats
        maps and the scheduler's bound methods live in locals;
        ``self.now`` is written after every advance and ``self.epochs``
        before every call of ``promote`` and at the end.
        ``promote(plan_key, units)`` is offered each epoch whose plan has
        a memo key, preempted nothing and runs without reclaim timers
        (see :data:`Promote`).  When it takes the epoch, the frame
        reloads the clock and the epoch count, retires the units it
        returns, and re-checks and re-plans before the next epoch.
        """
        tenants = self.tenants
        stats = self.stats
        blocked_map = stats.blocked_cycles_per_tenant
        me_map = stats.me_busy_per_tenant
        ve_map = stats.ve_busy_per_tenant
        record = stats.record_assignment or stats.record_bandwidth
        scheduler = self.scheduler
        fingerprint = scheduler.state_fingerprint
        forced_at = scheduler.forced_decision_at
        replay_policy = (
            scheduler.replay_policy
            if type(scheduler).replay_policy is not SchedulerBase.replay_policy
            else None
        )
        memo = self._decision_memo
        memo_get = memo.get
        fast_path = self.fast_path
        horizon = self.horizon
        max_epochs = self.max_epochs
        inf = math.inf
        done = UnitState.DONE
        now = self.now
        epochs = self.epochs
        # Plan state: the plan ``(entry, units, next_at)``, its memo key
        # (None when it was neither replayed from nor stored into the
        # memo), whether a discrete event happened since it was selected,
        # and whether it may be reused verbatim while none does.  The
        # first epoch plans, since ``dirty`` starts set.
        dirty = True
        finished: List[ExecUnit] = []
        win = finished.append
        check = True
        while True:
            # -- 6. completion retire ------------------------------------
            # Only units that progressed can complete (spawns carry at
            # least one cycle of work and non-running units make no
            # progress), so the advance collects them as it goes.
            if finished:
                owners = set()
                for unit in finished:
                    if unit.is_me_unit:
                        unit.remaining_me = 0.0
                    unit.remaining_ve = 0.0
                    unit.state = done
                    unit.granted_me = 0
                    unit.granted_ve = 0.0
                    tpl = unit.tpl_id
                    unit.code = tpl * 256 + 128 if tpl >= 0 else None
                    owners.add(unit.owner)
                finished.clear()
                for tenant in tenants:
                    if tenant.tenant_id in owners:
                        if tenant.on_unit_done(now, stats, self):
                            check = True
                dirty = True

            # -- 1. stop check and livelock guard ------------------------
            # Only a request completion can finish a tenant, so the
            # tenants are re-checked after completions alone.
            if check:
                if self._finished():
                    break
                check = False
            if now >= horizon:
                break
            if epochs >= max_epochs:
                raise SimulationError(
                    f"exceeded {max_epochs} epochs at cycle "
                    f"{now:.0f}; likely a scheduling livelock"
                )
            epochs += 1

            # -- 2. reclaim expiry, arrivals and pending work ------------
            reclaims = self.reclaims
            if reclaims:
                threshold = now + EPS
                kept = [r for r in reclaims if r.ready_at > threshold]
                if len(kept) != len(reclaims):
                    dirty = True
                self.reclaims = reclaims = kept
            for tenant in tenants:
                if tenant.pending_arrivals:
                    tenant.activate_arrivals(now)
                if not tenant.active_units:
                    tenant.start_pending_work(now, stats)
                if tenant._units_mutated:
                    # Spawned, retired or materialised units: the next
                    # fingerprint recomputes the rank permutation.
                    tenant._units_mutated = False
                    self._rank_perm = None
                    dirty = True

            # -- 3. plan selection ---------------------------------------
            had_preempt = False
            if dirty or not reusable:
                plan_key = None
                entry = None
                fp = fingerprint(self) if fast_path else None
                if fp is not None:
                    key, units = fp
                    entry = memo_get(key)
                if entry is not None:
                    plan_key = key
                    if replay_policy is not None:
                        replay_policy(self, key)
                    pre = entry[0]
                    if pre:
                        self._replay_preemptions(pre, units)
                        had_preempt = True
                    for unit, (granted, granted_ve, harvesting, state, off) in zip(
                        units, entry[1]
                    ):
                        unit.granted_me = granted
                        unit.granted_ve = granted_ve
                        unit.harvesting = harvesting
                        unit.state = state
                        tpl = unit.tpl_id
                        unit.code = (
                            tpl * 256 + off
                            if off is not None and tpl >= 0 else None
                        )
                    next_at = forced_at(self) if entry[10] else None
                else:
                    entry, units, next_at, had_preempt = self._decide(fp)
                    if fp is not None and (
                        next_at is None or next_at == forced_at(self)
                    ):
                        if len(memo) >= _MEMO_LIMIT:
                            memo.clear()
                        memo[key] = entry
                        plan_key = key
                reusable = fp is not None and next_at is None
            if (
                promote is not None
                and plan_key is not None
                and not had_preempt
                and not reclaims
            ):
                self.epochs = epochs
                retired = promote(plan_key, units)
                if retired is not None:
                    finished.extend(retired)
                    now = self.now
                    epochs = self.epochs
                    check = dirty = True
                    continue
            # A preemption epoch leaves fresh reclaim timers behind: the
            # next decision must see them, so it is never reused.
            dirty = had_preempt

            # -- 4. delta scan -------------------------------------------
            me_rates = entry[2]
            ve_rates = entry[3]
            best = inf
            for i, rate in me_rates:
                if rate > EPS:
                    c = units[i].remaining_me / rate
                    if EPS < c < best:
                        best = c
            for i, rate in ve_rates:
                if rate > EPS:
                    c = units[i].remaining_ve / rate
                    if EPS < c < best:
                        best = c
            for timer in reclaims:
                c = timer.ready_at - now
                if EPS < c < best:
                    best = c
            if next_at is not None:
                gap = next_at - now
                if gap <= EPS:
                    raise SimulationError(
                        "scheduler quantum did not advance time"
                    )
                if gap < best:
                    best = gap
            for tenant in tenants:
                pending = tenant.pending_arrivals
                if pending:
                    c = pending[0] - now
                    if EPS < c < best:
                        best = c
            c = horizon - now  # inf without a horizon: never a candidate
            if EPS < c < best:
                best = c
            if best == inf:
                self._raise_deadlock()
            delta = best if best > MIN_DELTA else MIN_DELTA

            # -- 5. advance and accounting -------------------------------
            for i, rate in me_rates:
                unit = units[i]
                progress = rate * delta
                remaining = unit.remaining_me - progress
                unit.remaining_me = remaining if remaining > 0.0 else 0.0
                if remaining <= EPS:
                    win(unit)
                ve_rate = unit.ve_rate
                if ve_rate > 0:
                    remaining = (
                        unit.remaining_ve - progress * ve_rate * unit.granted_me
                    )
                    unit.remaining_ve = remaining if remaining > 0.0 else 0.0
            for i, rate in ve_rates:
                unit = units[i]
                remaining = unit.remaining_ve - rate * delta
                unit.remaining_ve = remaining if remaining > 0.0 else 0.0
                if remaining <= EPS:
                    win(unit)
            # Table III metric: a tenant is blocked when it runs fewer
            # home engines than it is entitled to (because a harvester
            # still holds them or the reclaim penalty is being paid).
            for tid in entry[5]:
                blocked_map[tid] += delta
            if record:
                stats.record_epoch(
                    now,
                    delta,
                    entry[6],
                    entry[7],
                    me_assigned=entry[8],
                    ve_assigned=entry[9],
                    hbm_bytes_per_cycle=entry[4],
                )
            else:
                # Inline of SimStats.record_epoch for the no-trace case
                # -- same accumulation order, minus the call and branch
                # overhead of the general method.
                stats.total_cycles += delta
                integral = stats.me_busy_integral
                for owner, mes in entry[6].items():
                    v = mes * delta
                    integral += v
                    me_map[owner] += v
                stats.me_busy_integral = integral
                integral = stats.ve_busy_integral
                for owner, ves in entry[7].items():
                    v = ves * delta
                    integral += v
                    ve_map[owner] += v
                stats.ve_busy_integral = integral
            now += delta
            self.now = now

        self.epochs = epochs

    def _decide(
        self, fp: Optional[Tuple[Hashable, List[ExecUnit]]]
    ) -> Tuple[PlanEntry, List[ExecUnit], Optional[float], bool]:
        """A fresh decision: run the scheduler, validate and apply its
        decision, and build the plan's memo entry over the units the
        plan touches (``fp``'s, or every active unit in fingerprint
        order when the epoch was not fingerprinted).  Returns ``(entry,
        units, next_at, had_preempt)``."""
        decision = self.scheduler.decide(self)
        running = UnitState.RUNNING
        # Capture preempt effects before they are applied (state changes
        # under _apply_preemptions); the memo replays effects, not the
        # scheduler's Decision object.
        reclaim_owners = decision.reclaim_owners
        preempt_effects = [
            (u, reclaim_owners.get(u, u.owner))
            for u in decision.preempt
            if u.state is running
        ]
        prev_running = [
            u
            for t in self.tenants
            for u in t.active_units
            if u.state is running and u.is_me_unit
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

        if fp is not None:
            units = fp[1]
        else:
            units = [u for t in self.tenants for u in t.active_units]
        ready = UnitState.READY
        dense = []
        for u in units:
            state = u.state
            granted = u.granted_me
            if granted < 64:
                off = (0 if state is ready else 64 if state is running
                       else 128) + granted
                tpl = u.tpl_id
                u.code = tpl * 256 + off if tpl >= 0 else None
            else:
                off = u.code = None
            dense.append((granted, u.granted_ve, u.harvesting, state, off))
        rates, ve_exec, hbm_rate = self._compute_rates(units)
        next_at = decision.next_decision_at
        me_busy, ve_busy, me_assigned, ve_assigned = _aggregate_rate_dicts(
            units, rates, ve_exec, self.stats.record_assignment
        )
        entry = (
            tuple((units.index(u), owner) for u, owner in preempt_effects),
            tuple(dense),
            rates,
            ve_exec,
            hbm_rate,
            self._compute_blocked(),
            me_busy,
            ve_busy,
            me_assigned,
            ve_assigned,
            next_at is not None,
        )
        return entry, units, next_at, bool(decision.preempt)

    def _replay_preemptions(
        self, effects: Tuple[Tuple[int, int], ...], units: List[ExecUnit]
    ) -> None:
        """Re-apply a memoised plan's preempt effects: reclaim timers and
        the preemption counters.  Each unit's ``granted_me`` still holds
        its pre-decision grant (the dense state is applied after),
        matching what the validated plan observed when it preempted."""
        stats = self.stats
        penalty = self.core.me_preemption_cycles
        ready_at = self.now + penalty
        reclaims = self.reclaims
        for i, owner in effects:
            engines = units[i].granted_me
            if engines < 1:
                engines = 1
            for _ in range(engines):
                reclaims.append(ReclaimTimer(ready_at=ready_at, owner=owner))
            stats.preemption_count += 1
            stats.reclaim_penalty_cycles += engines * penalty

    # ------------------------------------------------------------------
    # Decision application
    # ------------------------------------------------------------------
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
    # Rate computation
    # ------------------------------------------------------------------
    def _compute_rates(self, units: List[ExecUnit]):
        """Progress rates for the granted units among ``units``.

        Returns ``(position, rate)`` pairs for ME units and for VE units,
        in ``units`` order, and the consumed HBM rate.  The HBM
        waterfill dominates this path; under the fast path its factors
        come from the exact-key :class:`FairFactorCache`, which returns
        bit-identical values to a fresh computation."""
        running_state = UnitState.RUNNING
        running: List[int] = []
        demands: List[float] = []
        owners: List[int] = []
        for i, unit in enumerate(units):
            if unit.state is not running_state:
                continue
            running.append(i)
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
        hbm_rate = min(self.core.hbm_bytes_per_cycle, ordered_sum(demands))

        rates: List[Tuple[int, float]] = []
        ve_exec: List[Tuple[int, float]] = []
        for i, f in zip(running, factors):
            unit = units[i]
            if unit.is_me_unit:
                ve_rate = unit.ve_rate
                if ve_rate > EPS:
                    needed = ve_rate * unit.granted_me
                    g = min(1.0, unit.granted_ve / needed) if needed > 0 else 1.0
                else:
                    g = 1.0
                rates.append((i, f if f < g else g))
            else:
                ve_exec.append((i, unit.granted_ve * f))
        return tuple(rates), tuple(ve_exec), hbm_rate

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
