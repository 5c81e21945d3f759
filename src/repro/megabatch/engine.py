"""Struct-of-arrays batch engine over independent simulators.

The scalar engine spends most of a steady-state epoch on bookkeeping
that is a pure function of the *structural* state: building the
scheduler fingerprint, replaying the memoised plan onto unit objects,
and retiring/spawning ``ExecUnit`` shells.  This module interns those
structural states once -- as :class:`_ChainNode` -- and advances lanes
that sit on a node through plain remaining-work arrays:

- one node = one decision-memo entry (the plan: per-slot rates, busy
  dicts, blocked tenant ids) plus the tenants' op/group cursors, so
  every lane on a node shares the epoch plan verbatim;
- per-lane state shrinks to two float lists (remaining ME/VE work per
  slot), the clock, and the real ``Tenant`` request queues;
- a completion triggers a *transition*: the successor fingerprint key
  is constructed arithmetically from the node (packed template ids,
  updated states, creation-rank permutation) and looked up in the same
  process-wide plan memo the scalar fast path uses.  Known transitions
  are cached per node, so recurring steady-state cycles never touch a
  unit object.

Anything the chain representation does not model -- preemptions,
reclaim timers, arrivals landing on an idle tenant, a cold memo --
*materialises* the lane back into ordinary unit objects and falls back
to the scalar engine's own step functions; a simulator that can never
bind to a node (op recording, the reference path, a scheduler without
a memo context) runs through ``Simulator.run()`` instead.  Every float
operation on the array path replicates the scalar expression grouping
(``rate * delta``, ``remaining - progress``,
``(progress * ve_rate) * granted``) and the scalar accumulation order,
so results are bit-identical, not approximately equal.
"""

from __future__ import annotations

import gc
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.engine import EPS, MIN_DELTA, Request, Simulator, SimResult
from repro.sim.scheduler_base import ExecUnit, UnitState

#: Differential toggle: with REPRO_SIM_MEGABATCH=0, :func:`run_simulators`
#: steps its lanes one by one through ``Simulator.run()``.
MEGABATCH_ENV = "REPRO_SIM_MEGABATCH"

#: Safety valves for the process-wide chain caches.
_SCOPE_LIMIT = 256
_NODE_LIMIT = 4096

_READY = UnitState.READY
_RUNNING = UnitState.RUNNING
_DONE = UnitState.DONE
_STATE_CODE = {_READY: 0, _RUNNING: 1, _DONE: 2}


def megabatch_default() -> bool:
    """Whether :func:`run_simulators` co-steps its lanes (default: yes)."""
    return os.environ.get(MEGABATCH_ENV, "1").lower() not in ("0", "false", "off")


# ----------------------------------------------------------------------
# Chain scopes: interned structural states shared across lanes
# ----------------------------------------------------------------------
#: Process-wide scope cache.  A scope pins the decision memo and the
#: compiled graphs its node keys are derived from, so object ids stay
#: valid for the cache's lifetime.
_CHAIN_SCOPES: Dict[Tuple, "_ChainScope"] = {}


class _ChainScope:
    """Chain-node namespace for one (memo context, graph layout).

    Lanes may share nodes only when their decision memo *and* their
    tenants' compiled graphs and loop kinds coincide: the memo pins the
    scheduler/core/allocation layout (decisions), the graphs pin the
    unit templates (successor structure), and ``closed_loop`` pins the
    request-completion effects.
    """

    __slots__ = ("memo", "graphs", "templates", "closed", "nodes")

    def __init__(self, sim: Simulator) -> None:
        self.memo = sim._decision_memo
        self.graphs = tuple(t.graph for t in sim.tenants)
        self.templates = [t._templates for t in sim.tenants]
        self.closed = tuple(t.closed_loop for t in sim.tenants)
        self.nodes: Dict[Tuple, Optional[_ChainNode]] = {}

    def node(self, plan_key: Tuple, cursors: Tuple) -> Optional["_ChainNode"]:
        """Interned node for (memo key, cursors); None when the state is
        outside the chain representation (reclaims in the key, preempt
        effects in the plan, grants too large to pack)."""
        nkey = (plan_key, cursors)
        node = self.nodes.get(nkey)
        if node is None and nkey not in self.nodes:
            node = _ChainNode.build(self, plan_key, cursors)
            if node is None and plan_key[0] is None and plan_key not in self.memo:
                # Transient failure: the scalar path has not planned
                # this state yet, so the memo entry is missing.  Do NOT
                # cache the None -- once a materialised lane visits the
                # state, the memo fills and the retry succeeds.
                return None
            if len(self.nodes) >= _NODE_LIMIT:
                self.nodes.clear()
            self.nodes[nkey] = node
        return node


def _scope_for(sim: Simulator) -> Optional[_ChainScope]:
    ctx = sim._memo_ctx
    if ctx is None:
        return None
    key = (
        ctx,
        id(sim._decision_memo),
        tuple(id(t.graph) for t in sim.tenants),
        tuple(t.closed_loop for t in sim.tenants),
    )
    scope = _CHAIN_SCOPES.get(key)
    if scope is None:
        if len(_CHAIN_SCOPES) >= _SCOPE_LIMIT:
            _CHAIN_SCOPES.clear()
        scope = _ChainScope(sim)
        _CHAIN_SCOPES[key] = scope
    return scope


class _Transition:
    """One learned structural transition: winners + start flags in,
    successor node plus remaining-work carry/init recipe out."""

    __slots__ = ("next_node", "carry", "me_base", "ve_base", "completers")

    def __init__(self, next_node, carry, me_base, ve_base, completers):
        self.next_node = next_node
        #: (new_slot, old_slot) pairs whose remaining work carries over.
        self.carry = carry
        #: Successor remaining-work vectors with every fresh value
        #: (template work for spawns, zeros for lingering DONE winners)
        #: pre-filled -- copy, then overwrite the carry slots.
        self.me_base = me_base
        self.ve_base = ve_base
        #: Tenant positions whose request completed at this transition.
        self.completers = completers


class _ChainNode:
    """One interned structural state with its memoised epoch plan.

    ``plan_key`` is the scalar fast path's fingerprint key; the node
    decodes that key's memo entry once into slot-indexed rate/accounting
    vectors shared by every lane and every visit.  Slots follow the
    fingerprint order (tenant order x active-unit order), and each
    tenant's active units are exactly its current template group in
    template order -- the invariant that lets cursors plus the compiled
    graph reconstruct every unit attribute.
    """

    __slots__ = (
        "scope", "plan_key", "cursors", "n_slots", "tenant_slots",
        "slot_tenant", "slot_templates", "slot_tpl_ids", "dense",
        "dense_codes", "creation_order", "me_adv", "ve_adv", "delta_me",
        "delta_ve", "blocked_tids", "me_busy_items", "ve_busy_items",
        "trans", "start_trans", "completers_cache",
    )

    @classmethod
    def build(
        cls, scope: _ChainScope, plan_key: Tuple, cursors: Tuple
    ) -> Optional["_ChainNode"]:
        """The node for a memoised plan, or None when the plan is outside
        the chain representation.

        Forced entries (plans that set ``next_decision_at``) are refused:
        their re-decision time comes from the scheduler's policy state
        at the moment of replay, and an array-mode lane never consults
        the scheduler.
        """
        if plan_key[0] is not None:
            return None  # reclaim counts in the key: outside the chain
        entry = scope.memo.get(plan_key)
        if entry is None or entry[0] or entry[10]:
            return None  # evicted, a preempting plan, or a forced one
        (_pre, dense, enc_rates, enc_ve_exec, _hbm, blocked,
         me_busy, ve_busy, _ma, _va, _forced) = entry

        node = cls()
        node.scope = scope
        node.plan_key = plan_key
        node.cursors = cursors
        tenant_slots: List[Tuple[int, int]] = []
        slot_tenant: List[int] = []
        slot_templates: List[Tuple] = []
        pos = 0
        for tpos, cur in enumerate(cursors):
            if cur is None:
                tenant_slots.append((pos, pos))
                continue
            op, grp = cur
            templates_t = scope.templates[tpos]
            if op >= len(templates_t) or grp >= len(templates_t[op]):
                return None
            group = templates_t[op][grp]
            tenant_slots.append((pos, pos + len(group)))
            for tpl in group:
                slot_tenant.append(tpos)
                slot_templates.append(tpl)
            pos += len(group)
        if pos != len(dense):
            return None  # layout mismatch: fall back to the object path
        node.n_slots = pos
        node.tenant_slots = tuple(tenant_slots)
        node.slot_tenant = tuple(slot_tenant)
        node.slot_templates = tuple(slot_templates)
        node.slot_tpl_ids = tuple(tpl[10] for tpl in slot_templates)
        node.dense = dense
        codes = []
        for slot, d in enumerate(dense):
            # Fingerprint packing guards: units outside the packed-int
            # encoding (huge grants, template-less units) fall back to
            # tuple encoding in the scalar path, which the chain's
            # arithmetic key construction does not model.
            if d[0] >= 64 or node.slot_tpl_ids[slot] < 0:
                return None
            codes.append(_STATE_CODE[d[3]])
        node.dense_codes = tuple(codes)
        rank_perm = plan_key[1]
        node.creation_order = rank_perm if rank_perm else tuple(range(pos))

        # Advance vectors: every rates entry updates remaining ME work
        # (and its embedded VE stream); VE-exec entries update VE work.
        me_adv = []
        for i, rate in enc_rates:
            tpl = slot_templates[i]
            me_adv.append((i, rate, tpl[5], dense[i][0]))
        node.me_adv = tuple(me_adv)
        node.ve_adv = tuple(enc_ve_exec)
        node.delta_me = tuple((i, r) for i, r, _v, _g in me_adv if r > EPS)
        node.delta_ve = tuple((i, r) for i, r in enc_ve_exec if r > EPS)
        node.blocked_tids = blocked
        # Tuple snapshots of the shared entry dicts: same pairs in the
        # same iteration order (so accumulation order matches the scalar
        # engine bitwise), minus the dict-view overhead per epoch.
        node.me_busy_items = tuple(me_busy.items())
        node.ve_busy_items = tuple(ve_busy.items())
        node.trans = {}
        node.start_trans = {}
        node.completers_cache = {}
        return node

    # ------------------------------------------------------------------
    def request_completers(self, winners: Tuple[int, ...]) -> Tuple[int, ...]:
        """Tenant positions whose *request* completes when ``winners``
        finish (a pure function of the structure, independent of queue
        contents)."""
        cached = self.completers_cache.get(winners)
        if cached is not None:
            return cached
        winnerset = frozenset(winners)
        dense_codes = self.dense_codes
        out = []
        for tpos, cur in enumerate(self.cursors):
            if cur is None:
                continue
            start, end = self.tenant_slots[tpos]
            all_done = True
            for s in range(start, end):
                if dense_codes[s] != 2 and s not in winnerset:
                    all_done = False
                    break
            if not all_done:
                continue
            op, grp = cur
            templates_t = self.scope.templates[tpos]
            if grp + 1 >= len(templates_t[op]) and op + 1 >= len(templates_t):
                out.append(tpos)
        cached = tuple(out)
        self.completers_cache[winners] = cached
        return cached

    def transition(
        self, winners: Tuple[int, ...], flags: Tuple[bool, ...]
    ) -> Optional[_Transition]:
        """Successor for (winners, per-completer start flags); None when
        the successor plan is not (yet) in the memo -- the caller
        materialises and the scalar path fills the memo in."""
        tkey = (winners, flags)
        trans = self.trans.get(tkey)
        if trans is None:
            trans = self._build_transition(winners, flags)
            if trans is not None:
                self.trans[tkey] = trans
        return trans

    def _build_transition(
        self, winners: Tuple[int, ...], flags: Tuple[bool, ...]
    ) -> Optional[_Transition]:
        scope = self.scope
        winnerset = frozenset(winners)
        dense = self.dense
        dense_codes = self.dense_codes
        tpl_ids = self.slot_tpl_ids
        new_cursors: List[Optional[Tuple[int, int]]] = []
        carry: List[Tuple[int, int]] = []
        fresh: List[Tuple[int, float, float]] = []
        completers: List[int] = []
        flat: List[int] = []
        old_to_new: Dict[int, int] = {}
        fresh_runs: List[List[int]] = []
        fi = 0
        new_idx = 0
        for tpos, cur in enumerate(self.cursors):
            flat.append(-1)
            if cur is None:
                new_cursors.append(None)
                continue
            start, end = self.tenant_slots[tpos]
            all_done = True
            for s in range(start, end):
                if dense_codes[s] != 2 and s not in winnerset:
                    all_done = False
                    break
            templates_t = scope.templates[tpos]
            if not all_done:
                # Partial completion: the group lingers; winners become
                # DONE slots with cleared grants, survivors keep their
                # post-decision state and grant.
                new_cursors.append(cur)
                for s in range(start, end):
                    if s in winnerset:
                        fresh.append((new_idx, 0.0, 0.0))
                        flat.append(tpl_ids[s] * 256 + 2 * 64)
                    else:
                        carry.append((new_idx, s))
                        flat.append(
                            tpl_ids[s] * 256 + dense_codes[s] * 64 + dense[s][0]
                        )
                    old_to_new[s] = new_idx
                    new_idx += 1
                continue
            # Whole group retired: replay Tenant.on_unit_done's cursor
            # walk (spawned units cannot finish in the same epoch, so at
            # most one group boundary per tenant per transition).
            op, grp = cur
            grp += 1
            if grp < len(templates_t[op]):
                spawn: Optional[Tuple[int, int]] = (op, grp)
            elif op + 1 < len(templates_t):
                spawn = (op + 1, 0)
            else:
                completers.append(tpos)
                if fi >= len(flags):
                    return None  # flag arity mismatch; be conservative
                spawn = (0, 0) if flags[fi] else None
                fi += 1
            new_cursors.append(spawn)
            if spawn is None:
                continue
            group = templates_t[spawn[0]][spawn[1]]
            run: List[int] = []
            for tpl in group:
                fresh.append((new_idx, tpl[3], tpl[4]))
                flat.append(tpl[10] * 256)  # READY, no grant
                run.append(new_idx)
                new_idx += 1
            fresh_runs.append(run)

        # Creation order: survivors keep their relative spawn order and
        # fresh units append in tenant order (the order on_unit_done
        # assigns unit ids), which pins the fingerprint's cross-tenant
        # FIFO permutation.
        order = [old_to_new[s] for s in self.creation_order if s in old_to_new]
        for run in fresh_runs:
            order.extend(run)
        if new_idx <= 1 or order == list(range(new_idx)):
            rank_perm: Tuple[int, ...] = ()
        else:
            rank_perm = tuple(order)
        fp_key = (None, rank_perm, tuple(flat))
        next_node = scope.node(fp_key, tuple(new_cursors))
        if next_node is None or next_node.n_slots != new_idx:
            return None
        me_base = [0.0] * new_idx
        ve_base = [0.0] * new_idx
        for slot, m0, v0 in fresh:
            me_base[slot] = m0
            ve_base[slot] = v0
        return _Transition(
            next_node, tuple(carry), me_base, ve_base, tuple(completers)
        )

    def start_transition(
        self, starters: Tuple[int, ...]
    ) -> Optional[_Transition]:
        """Successor when idle tenants ``starters`` begin a request (an
        arrival admitted onto an empty queue): every existing slot
        carries, each starter spawns its op-0/group-0 templates at
        cursors (0, 0) -- exactly ``_maybe_start_request`` plus
        ``_spawn_group_units`` in tenant order.  None when the successor
        plan is not (yet) in the memo."""
        trans = self.start_trans.get(starters)
        if trans is not None or starters in self.start_trans:
            return trans
        scope = self.scope
        starterset = frozenset(starters)
        dense = self.dense
        dense_codes = self.dense_codes
        tpl_ids = self.slot_tpl_ids
        new_cursors: List[Optional[Tuple[int, int]]] = []
        carry: List[Tuple[int, int]] = []
        fresh: List[Tuple[int, float, float]] = []
        flat: List[int] = []
        old_to_new: Dict[int, int] = {}
        fresh_runs: List[List[int]] = []
        new_idx = 0
        ok = True
        for tpos, cur in enumerate(self.cursors):
            flat.append(-1)
            if cur is not None:
                new_cursors.append(cur)
                start, end = self.tenant_slots[tpos]
                for s in range(start, end):
                    carry.append((new_idx, s))
                    flat.append(
                        tpl_ids[s] * 256 + dense_codes[s] * 64 + dense[s][0]
                    )
                    old_to_new[s] = new_idx
                    new_idx += 1
                continue
            if tpos not in starterset:
                new_cursors.append(None)
                continue
            templates_t = scope.templates[tpos]
            if not templates_t or not templates_t[0]:
                ok = False
                break
            new_cursors.append((0, 0))
            group = templates_t[0][0]
            run: List[int] = []
            for tpl in group:
                fresh.append((new_idx, tpl[3], tpl[4]))
                flat.append(tpl[10] * 256)  # READY, no grant
                run.append(new_idx)
                new_idx += 1
            fresh_runs.append(run)

        trans = None
        if ok:
            order = [
                old_to_new[s] for s in self.creation_order if s in old_to_new
            ]
            for run in fresh_runs:
                order.extend(run)
            if new_idx <= 1 or order == list(range(new_idx)):
                rank_perm: Tuple[int, ...] = ()
            else:
                rank_perm = tuple(order)
            fp_key = (None, rank_perm, tuple(flat))
            next_node = scope.node(fp_key, tuple(new_cursors))
            if next_node is not None and next_node.n_slots == new_idx:
                me_base = [0.0] * new_idx
                ve_base = [0.0] * new_idx
                for slot, m0, v0 in fresh:
                    me_base[slot] = m0
                    ve_base[slot] = v0
                trans = _Transition(next_node, tuple(carry), me_base, ve_base, ())
        if trans is not None:
            # Only cache successes: a miss just means the scalar memo
            # has not seen the successor yet -- it will after the
            # materialise fallback, so retrying later can succeed.
            self.start_trans[starters] = trans
        return trans


# ----------------------------------------------------------------------
# Lanes
# ----------------------------------------------------------------------
class _Lane:
    """One simulator threaded through the batch loop.

    Caches every per-epoch-stable reference (stats accumulator dicts,
    the tenants list, the arrival watch list) so the array-mode inner
    loop touches no attribute chains."""

    __slots__ = (
        "sim", "scope", "node", "rem_me", "rem_ve", "epochs",
        "check_finish", "done", "result", "array_epochs", "object_epochs",
        "stats", "tenants", "blocked_map", "me_map", "ve_map",
        "arrival_watch", "horizon",
    )

    def __init__(self, sim: Simulator, scope: _ChainScope) -> None:
        self.sim = sim
        stats = sim.stats
        self.scope = scope
        self.node: Optional[_ChainNode] = None
        self.rem_me: List[float] = []
        self.rem_ve: List[float] = []
        self.epochs = 0
        self.check_finish = True
        self.done = False
        self.result: Optional[SimResult] = None
        self.array_epochs = 0
        self.object_epochs = 0
        self.stats = stats
        self.tenants = sim.tenants
        self.blocked_map = stats.blocked_cycles_per_tenant
        self.me_map = stats.me_busy_per_tenant
        self.ve_map = stats.ve_busy_per_tenant
        self.arrival_watch: List = []
        self.horizon = sim.horizon if sim.horizon != math.inf else None

    def sync_arrival_watch(self) -> None:
        """(position, tenant) pairs that still hold undelivered
        arrivals.  Arrival deques only drain, so the watch list shrinks
        monotonically between syncs (re-synced whenever the lane enters
        array mode)."""
        self.arrival_watch = [
            (tpos, t)
            for tpos, t in enumerate(self.tenants)
            if t.pending_arrivals
        ]

    @property
    def in_array_mode(self) -> bool:
        return self.node is not None


def _chain_scope(sim: Simulator) -> Optional[_ChainScope]:
    """The chain scope ``sim`` binds its nodes in, or None when it can
    never bind to a chain node: the fast path is off, the run records
    ops, assignments or bandwidth, which the chain path does not track,
    or the scheduler has no memo context.

    PMT and V10 have no memo context.  Their memo keys carry a policy
    token that only the run's own scheduler can compute, and most of
    their plans force a re-decision whose time comes from that
    scheduler, which :meth:`_ChainNode.build` refuses; so their lanes
    run through ``Simulator.run()``, memo and all.  Neu10-temporal
    does not fingerprint at all."""
    stats = sim.stats
    if (
        sim.fast_path
        and not stats.record_ops
        and not stats.record_assignment
        and not stats.record_bandwidth
    ):
        return _scope_for(sim)
    return None


def _cursors_of(sim: Simulator) -> Tuple:
    return tuple(
        (t.op_cursor, t.group_cursor) if t.active_units else None
        for t in sim.tenants
    )


# ----------------------------------------------------------------------
# The batch engine
# ----------------------------------------------------------------------
class MegaBatchEngine:
    """Co-step a batch of independent simulators to completion.

    ``run()`` returns one :class:`SimResult` per input simulator, in
    input order, each bit-identical to what ``sim.run()`` would have
    produced.  A simulator that can never bind to a chain node (see
    :func:`_chain_scope`) runs alone through ``sim.run()`` before the
    loop starts, because stepping it one epoch per round is slower.
    The rest co-step and leave the batch as they finish; a lane whose
    current state the chain representation cannot express steps
    through the scalar engine's own ``_next_plan``/``_finish_step`` --
    correctness never depends on a lane being accelerated.
    """

    def __init__(self, sims: Sequence[Simulator]) -> None:
        self.sims = list(sims)
        self.group_stats: Dict[str, int] = {}

    def run(self) -> List[SimResult]:
        results: List[Optional[SimResult]] = []
        lanes: List[_Lane] = []
        for sim in self.sims:
            scope = _chain_scope(sim)
            if scope is None:
                results.append(sim.run())
            else:
                lane = _Lane(sim, scope)
                lanes.append(lane)
                results.append(None)
                sim.start()
        active = list(lanes)
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while active:
                active = self._round(active)
        finally:
            if gc_was_enabled:
                gc.enable()
        self.group_stats = {
            "lanes": len(self.sims),
            "array_epochs": sum(l.array_epochs for l in lanes),
            "object_epochs": sum(l.object_epochs for l in lanes),
        }
        chained = iter(lanes)
        return [r if r is not None else next(chained).result for r in results]

    # ------------------------------------------------------------------
    def _check(self, lane: _Lane) -> bool:
        """Pre-epoch stop check, mirroring Simulator.run's loop
        condition.  Returns False (and finishes the lane) when the lane
        is done; the per-epoch livelock guard lives in the steppers."""
        sim = lane.sim
        if lane.check_finish and sim._finished():
            self._finish(lane)
            return False
        lane.check_finish = False
        if sim.now >= sim.horizon:
            self._finish(lane)
            return False
        return True

    def _round(self, active: List[_Lane]) -> List[_Lane]:
        """Advance every active lane by at least one epoch.

        Array-mode lanes *burst* -- they keep stepping until they leave
        array mode or finish -- so the scheduling overhead of this
        method is off the hot path.  Object-mode lanes step one epoch
        per round, giving each a promotion attempt."""
        object_lanes: List[_Lane] = []
        buckets: Dict[int, List[_Lane]] = {}
        for lane in active:
            if not self._check(lane):
                continue
            if lane.in_array_mode:
                buckets.setdefault(id(lane.node), []).append(lane)
            else:
                object_lanes.append(lane)

        for lane in object_lanes:
            self._object_epoch(lane)
        # Lanes are independent, but they fill the shared chain caches
        # as they go: bursting them grouped by node keeps that order,
        # and so group_stats, stable.
        for group in buckets.values():
            for lane in group:
                self._array_burst(lane)
        return [lane for lane in active if not lane.done]

    def _finish(self, lane: _Lane) -> None:
        # No materialisation needed: stats and request bookkeeping are
        # maintained on the real objects in both modes.
        lane.result = lane.sim._build_result()
        lane.done = True

    def _array_burst(self, lane: _Lane) -> None:
        """Keep stepping an array-mode lane (including across chain
        transitions) until it finishes, hits the horizon, or drops back
        to object mode.  The caller has already vetted the first epoch
        via _check (whose logic is inlined in the loop below)."""
        sim = lane.sim
        _array_epoch(lane)
        while lane.node is not None:
            if lane.check_finish and sim._finished():
                self._finish(lane)
                return
            lane.check_finish = False
            if sim.now >= sim.horizon:
                self._finish(lane)
                return
            _array_epoch(lane)

    # ------------------------------------------------------------------
    def _object_epoch(self, lane: _Lane) -> None:
        """One scalar-engine epoch, promoting the lane onto a chain node
        whenever the plan just came out of the decision memo."""
        sim = lane.sim
        lane.epochs += 1
        if lane.epochs > sim.max_epochs:
            raise SimulationError(
                f"exceeded {sim.max_epochs} epochs at cycle "
                f"{sim.now:.0f}; likely a scheduling livelock"
            )
        lane.object_epochs += 1
        lane.check_finish = True
        plan, had_preempt = sim._next_plan()
        if (
            not had_preempt
            and not sim.reclaims
            and sim._plan_key is not None
        ):
            node = lane.scope.node(sim._plan_key, _cursors_of(sim))
            fp_units = sim._fp_units
            if node is not None and fp_units is not None and len(fp_units) == node.n_slots:
                lane.node = node
                lane.rem_me = [u.remaining_me for u in fp_units]
                lane.rem_ve = [u.remaining_ve for u in fp_units]
                lane.sync_arrival_watch()
                lane.object_epochs -= 1
                lane.check_finish = False
                _array_epoch(lane)
                return
        sim._finish_step(plan, had_preempt)


# ----------------------------------------------------------------------
# Array-mode epoch
# ----------------------------------------------------------------------
def _array_epoch(lane: _Lane) -> None:
    """One epoch for a lane bound to a chain node.

    Fully fused -- delta scan, work advance, accounting, completion
    transition, and arrival admission in one frame -- because this is
    the per-epoch cost everything else amortises down to.  Every float
    expression replicates the scalar engine's grouping and accumulation
    order exactly (see `_pick_delta`, `_advance`, `on_unit_done`)."""
    node = lane.node
    sim = lane.sim
    lane.epochs += 1
    if lane.epochs > sim.max_epochs:
        _materialize(lane)
        raise SimulationError(
            f"exceeded {sim.max_epochs} epochs at cycle "
            f"{sim.now:.0f}; likely a scheduling livelock"
        )
    rem_me = lane.rem_me
    rem_ve = lane.rem_ve

    # -- delta: exactly Simulator._pick_delta over the node's plan ------
    best = math.inf
    for i, rate in node.delta_me:
        c = rem_me[i] / rate
        if EPS < c < best:
            best = c
    for i, rate in node.delta_ve:
        c = rem_ve[i] / rate
        if EPS < c < best:
            best = c
    now = sim.now
    watch = lane.arrival_watch
    next_arr = math.inf
    if watch:
        for _tpos, tenant in watch:
            pending = tenant.pending_arrivals
            if pending:
                a = pending[0]
                if a < next_arr:
                    next_arr = a
                c = a - now
                if EPS < c < best:
                    best = c
    horizon = lane.horizon
    if horizon is not None:
        c = horizon - now
        if EPS < c < best:
            best = c
    if best == math.inf:
        _materialize(lane)
        sim._raise_deadlock()
    delta = best if best > MIN_DELTA else MIN_DELTA

    # -- advance: exactly Simulator._advance's work updates -------------
    winners = None
    for i, rate, ve_rate, granted in node.me_adv:
        progress = rate * delta
        remaining = rem_me[i] - progress
        rem_me[i] = remaining if remaining > 0.0 else 0.0
        if remaining <= EPS:
            if winners is None:
                winners = [i]
            else:
                winners.append(i)
        if ve_rate > 0:
            rv = rem_ve[i] - progress * ve_rate * granted
            rem_ve[i] = rv if rv > 0.0 else 0.0
    for i, rate in node.ve_adv:
        remaining = rem_ve[i] - rate * delta
        rem_ve[i] = remaining if remaining > 0.0 else 0.0
        if remaining <= EPS:
            if winners is None:
                winners = [i]
            else:
                winners.append(i)

    # -- accounting: the scalar _advance's record-flags-off branch ------
    stats = lane.stats
    blocked = lane.blocked_map
    for tid in node.blocked_tids:
        blocked[tid] += delta
    stats.total_cycles += delta
    integral = stats.me_busy_integral
    per_tenant = lane.me_map
    for owner, mes in node.me_busy_items:
        v = mes * delta
        integral += v
        per_tenant[owner] += v
    stats.me_busy_integral = integral
    integral = stats.ve_busy_integral
    per_tenant = lane.ve_map
    for owner, ves in node.ve_busy_items:
        v = ves * delta
        integral += v
        per_tenant[owner] += v
    stats.ve_busy_integral = integral

    now = sim.now = now + delta
    lane.array_epochs += 1

    # -- completions: structural transition along the chain -------------
    if winners is not None:
        tenants = lane.tenants
        wkey = tuple(winners)
        completers = node.completers_cache.get(wkey)
        if completers is None:
            completers = node.request_completers(wkey)
        if completers:
            flags = tuple(
                tenants[tpos].closed_loop or bool(tenants[tpos].queued_requests)
                for tpos in completers
            )
        else:
            flags = ()
        trans = node.trans.get((wkey, flags))
        if trans is None:
            trans = node.transition(wkey, flags)
            if trans is None:
                _fallback_complete(lane, winners)
                return
        # Request-completion effects on the real tenant objects
        # (identical to on_unit_done's request tail, minus unit spawns
        # which are encoded in the successor node).
        for k, tpos in enumerate(trans.completers):
            tenant = tenants[tpos]
            request = tenant.current_request
            request.finish_cycle = now
            tenant.completed.append(request)
            tenant.current_request = None
            if tenant.closed_loop:
                tenant.queued_requests.append(
                    Request(request_id=tenant._take_id(), issue_cycle=now)
                )
            if flags[k]:
                nxt = tenant.queued_requests.popleft()
                nxt.start_cycle = now
                tenant.current_request = nxt
            lane.check_finish = True
        new_me = trans.me_base.copy()
        new_ve = trans.ve_base.copy()
        for new_slot, old_slot in trans.carry:
            new_me[new_slot] = rem_me[old_slot]
            new_ve[new_slot] = rem_ve[old_slot]
        lane.node = trans.next_node
        lane.rem_me = new_me
        lane.rem_ve = new_ve

    # -- arrivals: the scalar pre_step's admission at the same clock ----
    # Gated on the minimum arrival time read during the delta scan, so
    # epochs with nothing due skip the admission pass entirely.
    if next_arr <= now + EPS:
        _admit_arrivals(lane, now)


def _admit_arrivals(lane: _Lane, now: float) -> None:
    """Deliver due arrivals exactly as the scalar ``activate_arrivals``
    would at the next epoch's pre-step: admit (in tenant order) onto
    every watched queue, then start idle tenants' requests through an
    arrival-start chain transition.  Falls back to materialisation only
    when the successor structure is not in the memo yet."""
    threshold = now + EPS
    drained = False
    starters = None
    for tpos, tenant in lane.arrival_watch:
        pending = tenant.pending_arrivals
        if pending and pending[0] <= threshold:
            take_id = tenant._take_id
            queue = tenant.queued_requests
            while pending and pending[0] <= threshold:
                issue = pending.popleft()
                queue.append(Request(request_id=take_id(), issue_cycle=issue))
            if tenant.current_request is None:
                if starters is None:
                    starters = [tpos]
                else:
                    starters.append(tpos)
            if not pending:
                drained = True
    if starters is not None:
        node = lane.node
        trans = node.start_trans.get(tuple(starters))
        if trans is None:
            trans = node.start_transition(tuple(starters))
            if trans is None:
                _materialize(lane)
                return
        tenants = lane.tenants
        for tpos in starters:
            tenant = tenants[tpos]
            request = tenant.queued_requests.popleft()
            request.start_cycle = now
            tenant.current_request = request
        rem_me = lane.rem_me
        rem_ve = lane.rem_ve
        new_me = trans.me_base.copy()
        new_ve = trans.ve_base.copy()
        for new_slot, old_slot in trans.carry:
            new_me[new_slot] = rem_me[old_slot]
            new_ve[new_slot] = rem_ve[old_slot]
        lane.node = trans.next_node
        lane.rem_me = new_me
        lane.rem_ve = new_ve
    if drained:
        lane.sync_arrival_watch()


def _fallback_complete(lane: _Lane, winners: List[int]) -> None:
    """Unknown transition (cold memo for the successor): rebuild unit
    objects and drive the engine's own completion handler, which also
    repopulates the memo for the next time this transition occurs."""
    units = _materialize(lane)
    sim = lane.sim
    fin = sim._finished_units
    fin.clear()
    for slot in winners:
        fin.append(units[slot])
    sim._handle_completions()
    sim._dirty = True
    lane.check_finish = True


def _materialize(lane: _Lane) -> List[ExecUnit]:
    """Array mode -> object mode: stamp unit objects back out of the
    node structure and the lane's remaining-work arrays.

    Fresh unit ids are taken in the recorded creation order, preserving
    the cross-tenant FIFO rank permutation the fingerprint (and the
    schedulers' tie-breaks) depend on."""
    node = lane.node
    sim = lane.sim
    n = node.n_slots
    units: List[Optional[ExecUnit]] = [None] * n
    from_template = ExecUnit.from_template
    rem_me = lane.rem_me
    rem_ve = lane.rem_ve
    tenants = sim.tenants
    for slot in node.creation_order:
        tenant = tenants[node.slot_tenant[slot]]
        unit = from_template(
            node.slot_templates[slot],
            tenant.tenant_id,
            tenant.current_request.request_id,
            None,
        )
        d = node.dense[slot]
        unit.granted_me = d[0]
        unit.granted_ve = d[1]
        unit.harvesting = d[2]
        unit.state = d[3]
        unit.remaining_me = rem_me[slot]
        unit.remaining_ve = rem_ve[slot]
        units[slot] = unit
    for tpos, tenant in enumerate(tenants):
        start, end = node.tenant_slots[tpos]
        tenant.active_units = [units[s] for s in range(start, end)]
        cur = node.cursors[tpos]
        if cur is not None:
            tenant.op_cursor, tenant.group_cursor = cur
        else:
            tenant.op_cursor = 0
            tenant.group_cursor = 0
        tenant._units_mutated = False
    sim._dirty = True
    sim._reusable = False
    lane.node = None
    lane.rem_me = []
    lane.rem_ve = []
    lane.check_finish = True
    return units


# ----------------------------------------------------------------------
# The one driver for every fast-path simulation
# ----------------------------------------------------------------------
def run_simulators(sims: Sequence[Simulator]) -> List[SimResult]:
    """Run a batch of freshly constructed simulators to completion.

    Every library call site steps its simulators here; a single run is
    a batch of one.  The batch goes through one
    :class:`MegaBatchEngine`, or, under ``REPRO_SIM_MEGABATCH=0``, each
    simulator steps alone through ``Simulator.run()``.  Results come
    back in input order and are bit-identical either way."""
    if megabatch_default():
        return MegaBatchEngine(sims).run()
    return [sim.run() for sim in sims]
