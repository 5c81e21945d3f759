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
  are cached per node -- the hops that complete no request in a table
  keyed by the epoch's winner bitmask -- so recurring steady-state
  cycles never touch a unit object;
- a transition that carries no slot over leaves the lane on work fixed
  by the successor node, so the node precomputes the epoch such a lane
  steps next (its *entry epoch*), and the lane adds only what depends
  on it: its clock, its stats and its arrival and horizon checks.

Each lane steps in one ``Simulator.run()`` frame, lane after lane in
input order.  Whenever an epoch's plan comes out of the decision memo,
the frame offers it to the lane's promotion hook (:meth:`_Lane.promote`),
which binds the lane to the plan's node and bursts it there
(:func:`_burst`), epoch after epoch and hop after hop, until it
finishes, reaches its horizon or leaves array mode.  The burst keeps
the lane's node, remaining work, clock, epoch counters and stats
accumulators in locals and writes them back when it exits.

Anything the chain representation does not model -- preemptions,
reclaim timers, a cold memo for a successor -- *materialises* the lane
back into ordinary unit objects, and the hook hands the frame the units
it retires next, so the frame steps on where the burst stopped; a
simulator that can never bind to a node (op recording, the reference
path, a scheduler without a memo context) runs through
``Simulator.run()`` without a hook.
Every float operation on the array path replicates the scalar
expression grouping (``rate * delta``, ``remaining - progress``,
``(progress * ve_rate) * granted``) and the scalar accumulation order,
so results are bit-identical, not approximately equal.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import EPS, MIN_DELTA, Request, Simulator, SimResult
from repro.sim.scheduler_base import ExecUnit, UnitState

#: Differential toggle: with REPRO_SIM_MEGABATCH=0, :func:`run_simulators`
#: runs every simulator through ``Simulator.run()`` without a hook.
MEGABATCH_ENV = "REPRO_SIM_MEGABATCH"

#: Safety valves for the process-wide chain caches.
_SCOPE_LIMIT = 256
_NODE_LIMIT = 4096

_READY = UnitState.READY
_RUNNING = UnitState.RUNNING
_DONE = UnitState.DONE
_STATE_CODE = {_READY: 0, _RUNNING: 1, _DONE: 2}


def megabatch_default() -> bool:
    """Whether :func:`run_simulators` steps chain lanes (default: yes)."""
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


#: One learned transition, ``(next_node, carry, me_base, ve_base)``:
#: ``carry`` holds the (new_slot, old_slot) pairs whose remaining work
#: carries over, and the base vectors are the successor's remaining
#: work with every fresh value (template work for spawns, zeros for
#: lingering DONE winners) pre-filled -- copy them, then overwrite the
#: carry slots.  With nothing carried the base vectors are the lane's
#: work as they stand, and the successor's entry epoch applies (see
#: :attr:`_ChainNode.entry`); the burst then reads them without a copy.
#: A plain tuple, so the burst loop unpacks it at once.
_Transition = Tuple[
    "_ChainNode", Tuple[Tuple[int, int], ...], List[float], List[float]
]

#: A node's entry epoch, ``(best, delta, mask, me_after, ve_after,
#: me_acc, ve_acc)``: the slot-only delta candidate and the step it
#: clamps to, the winner bitmask, the work left after the step, and each
#: owner's ``mes * delta`` and ``ves * delta`` in the plan's order.  The
#: lists are shared by every lane that steps the entry: read-only.
_Entry = Tuple[
    float, float, int, List[float], List[float],
    Tuple[Tuple[int, float], ...], Tuple[Tuple[int, float], ...],
]


class _ChainNode:
    """One interned structural state with its memoised epoch plan.

    ``plan_key`` is the scalar fast path's fingerprint key; the node
    decodes that key's memo entry once into slot-indexed rate/accounting
    vectors shared by every lane and every visit.  Slots follow the
    fingerprint order (tenant order x active-unit order), and each
    tenant's active units are exactly its current template group in
    template order -- the invariant that lets cursors plus the compiled
    graph reconstruct every unit attribute.

    ``entry`` is the epoch a lane steps when it enters the node with
    nothing carried over.  Then every slot is a fresh spawn holding its
    template work, so that epoch's slot part -- delta, advance, winners
    and busy products -- is a constant of the node, computed once here
    (:meth:`_entry_epoch`).  A hop that carries a slot never steps it.
    """

    __slots__ = (
        "scope", "cursors", "n_slots", "tenant_slots",
        "slot_tenant", "slot_templates", "slot_tpl_ids", "dense",
        "dense_codes", "creation_order", "me_adv", "me_ve_adv", "ve_adv",
        "delta_me", "delta_ve", "blocked_tids", "me_busy_items",
        "ve_busy_items", "entry", "hops", "trans", "start_trans",
        "completers_cache",
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

        # Advance vectors: every rates entry updates remaining ME work,
        # split by whether the unit also drains an embedded VE stream;
        # VE-exec entries update VE work.  Each entry carries its slot's
        # bit for the winner mask.
        me_adv = []
        me_ve_adv = []
        for i, rate in enc_rates:
            ve_rate = slot_templates[i][5]
            if ve_rate > 0:
                me_ve_adv.append((i, rate, ve_rate, dense[i][0], 1 << i))
            else:
                me_adv.append((i, rate, 1 << i))
        node.me_adv = tuple(me_adv)
        node.me_ve_adv = tuple(me_ve_adv)
        node.ve_adv = tuple((i, rate, 1 << i) for i, rate in enc_ve_exec)
        node.delta_me = tuple((i, r) for i, r in enc_rates if r > EPS)
        node.delta_ve = tuple((i, r) for i, r in enc_ve_exec if r > EPS)
        node.blocked_tids = blocked
        # Tuple snapshots of the shared entry dicts: same pairs in the
        # same iteration order (so accumulation order matches the scalar
        # engine bitwise), minus the dict-view overhead per epoch.
        node.me_busy_items = tuple(me_busy.items())
        node.ve_busy_items = tuple(ve_busy.items())
        node.entry = node._entry_epoch()
        node.hops = {}
        node.trans = {}
        node.start_trans = {}
        node.completers_cache = {}
        return node

    def _entry_epoch(self) -> Optional[_Entry]:
        """One epoch stepped from the template work of every slot, with
        the burst's own delta scan (slots only: arrivals and the horizon
        belong to the lane), advance and busy products.  None when no
        slot runs or the step completes nothing, so that an entry epoch
        always hops and no lane carries the shared lists past it."""
        rem_me = [tpl[3] for tpl in self.slot_templates]
        rem_ve = [tpl[4] for tpl in self.slot_templates]
        best = math.inf
        for i, rate in self.delta_me:
            c = rem_me[i] / rate
            if EPS < c < best:
                best = c
        for i, rate in self.delta_ve:
            c = rem_ve[i] / rate
            if EPS < c < best:
                best = c
        if best == math.inf:
            return None
        delta = best if best > MIN_DELTA else MIN_DELTA
        mask = 0
        for i, rate, bit in self.me_adv:
            remaining = rem_me[i] - rate * delta
            rem_me[i] = remaining if remaining > 0.0 else 0.0
            if remaining <= EPS:
                mask |= bit
        for i, rate, ve_rate, granted, bit in self.me_ve_adv:
            progress = rate * delta
            remaining = rem_me[i] - progress
            rem_me[i] = remaining if remaining > 0.0 else 0.0
            if remaining <= EPS:
                mask |= bit
            remaining = rem_ve[i] - progress * ve_rate * granted
            rem_ve[i] = remaining if remaining > 0.0 else 0.0
        for i, rate, bit in self.ve_adv:
            remaining = rem_ve[i] - rate * delta
            rem_ve[i] = remaining if remaining > 0.0 else 0.0
            if remaining <= EPS:
                mask |= bit
        if not mask:
            return None
        me_acc = tuple((owner, mes * delta) for owner, mes in self.me_busy_items)
        ve_acc = tuple((owner, ves * delta) for owner, ves in self.ve_busy_items)
        return (best, delta, mask, rem_me, rem_ve, me_acc, ve_acc)

    # ------------------------------------------------------------------
    # Transitions.  Winners are a bitmask over the node's slots.
    # ------------------------------------------------------------------
    def _retires(self, tpos: int, mask: int) -> bool:
        """Whether tenant ``tpos``'s whole active group is DONE once the
        ``mask`` winners finish."""
        dense_codes = self.dense_codes
        start, end = self.tenant_slots[tpos]
        for s in range(start, end):
            if dense_codes[s] != 2 and not mask >> s & 1:
                return False
        return True

    def request_completers(self, mask: int) -> Tuple[int, ...]:
        """Tenant positions whose *request* completes when the ``mask``
        winners finish (a pure function of the structure, independent of
        queue contents)."""
        cached = self.completers_cache.get(mask)
        if cached is not None:
            return cached
        out = []
        for tpos, cur in enumerate(self.cursors):
            if cur is None or not self._retires(tpos, mask):
                continue
            op, grp = cur
            templates_t = self.scope.templates[tpos]
            if grp + 1 >= len(templates_t[op]) and op + 1 >= len(templates_t):
                out.append(tpos)
        cached = tuple(out)
        self.completers_cache[mask] = cached
        return cached

    def transition(
        self, mask: int, flags: Tuple[bool, ...]
    ) -> Optional[_Transition]:
        """Successor for (winner mask, per-completer start flags); None
        when the successor plan is not (yet) in the memo -- the caller
        materialises and the scalar path fills the memo in.  A hop that
        completes no request (no flags) is cached in ``hops``, which the
        burst loop reads first."""
        table, key = (self.trans, (mask, flags)) if flags else (self.hops, mask)
        trans = table.get(key)
        if trans is None:
            trans = self._build_transition(mask, flags)
            if trans is not None:
                table[key] = trans
        return trans

    def _build_transition(
        self, mask: int, flags: Tuple[bool, ...]
    ) -> Optional[_Transition]:
        scope = self.scope
        dense = self.dense
        dense_codes = self.dense_codes
        tpl_ids = self.slot_tpl_ids
        new_cursors: List[Optional[Tuple[int, int]]] = []
        carry: List[Tuple[int, int]] = []
        fresh: List[Tuple[int, float, float]] = []
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
            templates_t = scope.templates[tpos]
            if not self._retires(tpos, mask):
                # Partial completion: the group lingers; winners become
                # DONE slots with cleared grants, survivors keep their
                # post-decision state and grant.
                new_cursors.append(cur)
                start, end = self.tenant_slots[tpos]
                for s in range(start, end):
                    if mask >> s & 1:
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
        return self._successor(
            new_cursors, flat, carry, fresh, old_to_new, fresh_runs, new_idx
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
        if trans is not None:
            return trans
        scope = self.scope
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
            if tpos not in starters:
                new_cursors.append(None)
                continue
            templates_t = scope.templates[tpos]
            if not templates_t or not templates_t[0]:
                return None
            new_cursors.append((0, 0))
            run: List[int] = []
            for tpl in templates_t[0][0]:
                fresh.append((new_idx, tpl[3], tpl[4]))
                flat.append(tpl[10] * 256)  # READY, no grant
                run.append(new_idx)
                new_idx += 1
            fresh_runs.append(run)
        trans = self._successor(
            new_cursors, flat, carry, fresh, old_to_new, fresh_runs, new_idx
        )
        if trans is not None:
            # Only cache successes: a miss just means the scalar memo
            # has not seen the successor yet -- it will after the
            # materialise fallback, so retrying later can succeed.
            self.start_trans[starters] = trans
        return trans

    def _successor(
        self, new_cursors, flat, carry, fresh, old_to_new, fresh_runs, new_idx
    ) -> Optional[_Transition]:
        """The transition onto the successor these parts describe, or
        None when its node cannot be built (yet)."""
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
        next_node = self.scope.node(fp_key, tuple(new_cursors))
        if next_node is None or next_node.n_slots != new_idx:
            return None
        me_base = [0.0] * new_idx
        ve_base = [0.0] * new_idx
        for slot, m0, v0 in fresh:
            me_base[slot] = m0
            ve_base[slot] = v0
        return (next_node, tuple(carry), me_base, ve_base)


# ----------------------------------------------------------------------
# Lanes
# ----------------------------------------------------------------------
class _Lane:
    """One chainable simulator and its promotion hook.  While the lane
    bursts, its node and remaining-work lists live in the burst frame's
    locals; these fields hold them at its exits."""

    __slots__ = (
        "sim", "scope", "node", "rem_me", "rem_ve", "array_epochs",
        "entry_epochs",
    )

    def __init__(self, sim: Simulator, scope: _ChainScope) -> None:
        self.sim = sim
        self.scope = scope
        self.node: Optional[_ChainNode] = None
        self.rem_me: List[float] = []
        self.rem_ve: List[float] = []
        self.array_epochs = 0
        self.entry_epochs = 0

    def promote(
        self, plan_key: Tuple, units: List[ExecUnit]
    ) -> Optional[List[ExecUnit]]:
        """The scalar frame's promotion hook: bind the lane to the chain
        node of this memoised plan and burst it there.  Returns None
        when the state has no node, so the frame steps the epoch;
        otherwise the units the frame retires next: the winners of the
        last epoch after a cold successor, none after a finish, an
        arrival-start materialise or the livelock bound (where the
        frame's own guard raises)."""
        node = self.scope.node(plan_key, _cursors_of(self.sim))
        if node is None or len(units) != node.n_slots:
            return None
        self.node = node
        self.rem_me = [u.remaining_me for u in units]
        self.rem_ve = [u.remaining_ve for u in units]
        stop, mask = _burst(self)
        if stop == "finish":
            # Stats and request bookkeeping live on the real objects in
            # both modes, so the frame's stop check and result build
            # need no unit objects.
            return []
        units = _materialize(self)
        if stop == "deadlock":
            self.sim._raise_deadlock()
        if stop == "cold":
            return [unit for slot, unit in enumerate(units) if mask >> slot & 1]
        return []


def _chain_scope(sim: Simulator) -> Optional[_ChainScope]:
    """The chain scope ``sim`` binds its nodes in, or None when it can
    never bind to a chain node: the fast path is off, the run records
    ops, assignments or bandwidth, which the chain path does not track,
    or the scheduler has no memo context.

    PMT and V10 have no memo context.  Their memo keys carry a policy
    token that only the run's own scheduler can compute, and most of
    their plans force a re-decision whose time comes from that
    scheduler, which :meth:`_ChainNode.build` refuses; so they run
    through ``Simulator.run()`` without a hook, memo and all.
    Neu10-temporal does not fingerprint at all."""
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
    """Run a batch of independent simulators to completion.

    ``run()`` returns one :class:`SimResult` per input simulator, in
    input order, each bit-identical to what ``sim.run()`` would have
    produced.  Each simulator steps in its own ``Simulator.run()``
    frame, one after another: a chainable one with its lane's
    promotion hook, one that can never bind to a chain node (see
    :func:`_chain_scope`) without.  A lane whose current state the
    chain representation cannot express steps on unit objects in that
    frame -- correctness never depends on a lane being accelerated.
    """

    def __init__(self, sims: Sequence[Simulator]) -> None:
        self.sims = list(sims)
        self.group_stats: Dict[str, int] = {}

    def run(self) -> List[SimResult]:
        results: List[SimResult] = []
        lanes: List[_Lane] = []
        for sim in self.sims:
            scope = _chain_scope(sim)
            if scope is None:
                results.append(sim.run())
            else:
                lane = _Lane(sim, scope)
                lanes.append(lane)
                results.append(sim.run(lane.promote))
        self.group_stats = {
            "lanes": len(self.sims),
            "array_epochs": sum(l.array_epochs for l in lanes),
            "entry_epochs": sum(l.entry_epochs for l in lanes),
            "object_epochs": sum(l.sim.epochs - l.array_epochs for l in lanes),
        }
        return results


# ----------------------------------------------------------------------
# Array mode: one burst frame per promotion
# ----------------------------------------------------------------------
def _burst(lane: _Lane) -> Tuple[str, int]:
    """Step a lane that was just promoted onto a chain node, epoch after
    epoch and hop after hop, until it finishes, reaches the horizon, or
    leaves array mode; return the exit and the last epoch's winner mask.
    The scalar frame has already counted and vetted the first epoch.

    Fully fused -- delta scan, work advance, accounting, completion
    transition, and arrival admission in one frame -- because this is
    the per-epoch cost everything else amortises down to.  The lane's
    node, remaining-work lists, clock, epoch counters and the three
    ``SimStats`` accumulators live in locals.  Every exit -- ``finish``
    (every tenant done or the horizon reached), ``cold`` (the successor
    of the mask's winners is not in the memo yet), ``materialize`` (an
    arrival-start successor is not), ``livelock`` (``max_epochs``
    stepped, and the next epoch due) and ``deadlock`` -- breaks out of
    the loop to one write-back, after which :meth:`_Lane.promote` acts
    on it.  The calls inside the loop read only node structure and the
    tenants' request bookkeeping (``Simulator._finished``, transition
    building, request ids), and the burst updates that bookkeeping and
    the per-tenant stats dicts in place.  Every float expression replicates the scalar engine's
    grouping and accumulation order exactly (see the delta scan and the
    advance in ``Simulator._step_epochs``, and ``on_unit_done``), so
    results are bit-identical.

    A hop that carries nothing leaves the lane on the successor's base
    work, which is that node's constant, so the next epoch is the node's
    precomputed entry (:attr:`_ChainNode.entry`): the burst scans the
    arrivals and the horizon, and when neither comes strictly sooner it
    only adds the entry's delta and busy products and hops.  Otherwise
    the epoch steps on the lane's own copy of the base work.  So the
    remaining-work locals may hold a node's shared lists; nothing
    writes them, and at the exits only :func:`_materialize` reads
    them."""
    sim = lane.sim
    stats = sim.stats
    tenants = sim.tenants
    blocked_map = stats.blocked_cycles_per_tenant
    me_map = stats.me_busy_per_tenant
    ve_map = stats.ve_busy_per_tenant
    horizon = sim.horizon
    max_epochs = sim.max_epochs
    inf = math.inf
    node = lane.node
    rem_me = lane.rem_me
    rem_ve = lane.rem_ve
    now = sim.now
    epochs = sim.epochs
    array_epochs = lane.array_epochs
    entry_epochs = lane.entry_epochs
    total_cycles = stats.total_cycles
    me_integral = stats.me_busy_integral
    ve_integral = stats.ve_busy_integral
    check_finish = False
    mask = 0
    # (position, tenant) pairs that still hold undelivered arrivals, and
    # their deques.  Deques only drain, and only through the admission
    # below, which reloads both lists when one runs dry: every watched
    # deque is non-empty at the delta scan.
    watched = [(tpos, t) for tpos, t in enumerate(tenants) if t.pending_arrivals]
    watch = [t.pending_arrivals for _tpos, t in watched]
    # The node's entry epoch while the lane holds the node's base work,
    # read-only, because the last hop carried nothing; None otherwise.
    entry = None
    while True:
        # -- delta: exactly the scalar delta scan over the node's plan --
        # (An entry epoch's slot part is the node's; the arrivals and
        # the horizon are the lane's.)
        if entry is None:
            best = inf
            for i, rate in node.delta_me:
                c = rem_me[i] / rate
                if EPS < c < best:
                    best = c
            for i, rate in node.delta_ve:
                c = rem_ve[i] / rate
                if EPS < c < best:
                    best = c
        else:
            best = entry[0]
        next_arr = inf
        for pending in watch:
            a = pending[0]
            if a < next_arr:
                next_arr = a
            c = a - now
            if EPS < c < best:
                best = c
        c = horizon - now  # inf without a horizon: never a candidate
        if EPS < c < best:
            best = c

        if entry is not None and best == entry[0]:
            # -- an entry epoch that nothing cut short: only the adds ---
            # (A tie with an arrival or the horizon keeps the entry, as
            # the scan's strict ``<`` does.)
            _best, delta, mask, rem_me, rem_ve, me_acc, ve_acc = entry
            for tid in node.blocked_tids:
                blocked_map[tid] += delta
            total_cycles += delta
            for owner, v in me_acc:
                me_integral += v
                me_map[owner] += v
            for owner, v in ve_acc:
                ve_integral += v
                ve_map[owner] += v
            entry_epochs += 1
        else:
            if entry is not None:
                # An arrival or the horizon cuts the entry epoch short:
                # step it on the lane's own copy of the base work.
                entry = None
                rem_me = rem_me.copy()
                rem_ve = rem_ve.copy()
            if best == inf:
                stop = "deadlock"
                break
            delta = best if best > MIN_DELTA else MIN_DELTA

            # -- advance: exactly the scalar advance's work updates -----
            # (``rate * delta`` is the scalar ``progress``.)  Slots are
            # independent, so splitting the ME loop by VE stream keeps
            # every per-slot result.
            mask = 0
            for i, rate, bit in node.me_adv:
                remaining = rem_me[i] - rate * delta
                rem_me[i] = remaining if remaining > 0.0 else 0.0
                if remaining <= EPS:
                    mask |= bit
            for i, rate, ve_rate, granted, bit in node.me_ve_adv:
                progress = rate * delta
                remaining = rem_me[i] - progress
                rem_me[i] = remaining if remaining > 0.0 else 0.0
                if remaining <= EPS:
                    mask |= bit
                remaining = rem_ve[i] - progress * ve_rate * granted
                rem_ve[i] = remaining if remaining > 0.0 else 0.0
            for i, rate, bit in node.ve_adv:
                remaining = rem_ve[i] - rate * delta
                rem_ve[i] = remaining if remaining > 0.0 else 0.0
                if remaining <= EPS:
                    mask |= bit

            # -- accounting: the scalar advance's record-flags-off branch
            for tid in node.blocked_tids:
                blocked_map[tid] += delta
            total_cycles += delta
            for owner, mes in node.me_busy_items:
                v = mes * delta
                me_integral += v
                me_map[owner] += v
            for owner, ves in node.ve_busy_items:
                v = ves * delta
                ve_integral += v
                ve_map[owner] += v
        now += delta
        array_epochs += 1

        # -- completions: structural transition along the chain ---------
        if mask:
            trans = node.hops.get(mask)
            if trans is None:
                completers = node.request_completers(mask)
                flags = tuple(
                    tenants[tpos].closed_loop
                    or bool(tenants[tpos].queued_requests)
                    for tpos in completers
                )
                trans = node.transition(mask, flags)
                if trans is None:
                    stop = "cold"
                    break
                # Request-completion effects on the real tenant objects
                # (identical to on_unit_done's request tail, minus unit
                # spawns, which the successor node encodes).
                for tpos, start_next in zip(completers, flags):
                    tenant = tenants[tpos]
                    request = tenant.current_request
                    request.finish_cycle = now
                    tenant.completed.append(request)
                    tenant.current_request = None
                    if tenant.closed_loop:
                        tenant.queued_requests.append(
                            Request(request_id=tenant._take_id(), issue_cycle=now)
                        )
                    if start_next:
                        nxt = tenant.queued_requests.popleft()
                        nxt.start_cycle = now
                        tenant.current_request = nxt
                    check_finish = True
            node, carry, me_base, ve_base = trans
            entry = None if carry else node.entry
            if entry is None:
                new_me = me_base.copy()
                new_ve = ve_base.copy()
                for new_slot, old_slot in carry:
                    new_me[new_slot] = rem_me[old_slot]
                    new_ve[new_slot] = rem_ve[old_slot]
                rem_me = new_me
                rem_ve = new_ve
            else:
                rem_me = me_base
                rem_ve = ve_base

        # -- arrivals: the scalar frame's admission at the same clock ---
        # Gated on the minimum arrival time read during the delta scan,
        # so epochs with nothing due skip the admission pass entirely.
        # Admit (in tenant order) onto every watched queue, then start
        # idle tenants' requests through an arrival-start transition.
        threshold = now + EPS
        if next_arr <= threshold:
            drained = False
            starters = []
            for tpos, tenant in watched:
                pending = tenant.pending_arrivals
                if pending[0] <= threshold:
                    take_id = tenant._take_id
                    queue = tenant.queued_requests
                    while pending and pending[0] <= threshold:
                        issue = pending.popleft()
                        queue.append(
                            Request(request_id=take_id(), issue_cycle=issue)
                        )
                    if tenant.current_request is None:
                        starters.append(tpos)
                    if not pending:
                        drained = True
            if drained:
                watched = [(tpos, t) for tpos, t in watched if t.pending_arrivals]
                watch = [t.pending_arrivals for _tpos, t in watched]
            if starters:
                starters = tuple(starters)
                trans = node.start_trans.get(starters)
                if trans is None:
                    trans = node.start_transition(starters)
                    if trans is None:
                        stop = "materialize"
                        break
                for tpos in starters:
                    tenant = tenants[tpos]
                    request = tenant.queued_requests.popleft()
                    request.start_cycle = now
                    tenant.current_request = request
                node, carry, me_base, ve_base = trans
                entry = None if carry else node.entry
                if entry is None:
                    new_me = me_base.copy()
                    new_ve = ve_base.copy()
                    for new_slot, old_slot in carry:
                        new_me[new_slot] = rem_me[old_slot]
                        new_ve[new_slot] = rem_ve[old_slot]
                    rem_me = new_me
                    rem_ve = new_ve
                else:
                    rem_me = me_base
                    rem_ve = ve_base

        # -- next epoch: the scalar frame's stop check and guard --------
        if check_finish:
            if sim._finished():
                stop = "finish"
                break
            check_finish = False
        if now >= horizon:
            stop = "finish"
            break
        if epochs >= max_epochs:
            stop = "livelock"
            break
        epochs += 1

    lane.node = node
    lane.rem_me = rem_me
    lane.rem_ve = rem_ve
    lane.array_epochs = array_epochs
    lane.entry_epochs = entry_epochs
    sim.now = now
    sim.epochs = epochs
    stats.total_cycles = total_cycles
    stats.me_busy_integral = me_integral
    stats.ve_busy_integral = ve_integral
    return stop, mask


def _materialize(lane: _Lane) -> List[ExecUnit]:
    """Array mode -> object mode: stamp unit objects back out of the
    node structure and the lane's remaining-work arrays.

    Fresh unit ids are taken in the recorded creation order, preserving
    the cross-tenant FIFO rank permutation the fingerprint (and the
    schedulers' tie-breaks) depend on.  Every tenant is flagged as having
    replaced its active units, so the scalar frame's next epoch re-plans
    and recomputes the rank permutation."""
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
        # A node's slots always pack (see _ChainNode.build), so the
        # entry's code offset is never None here.
        unit.code = unit.tpl_id * 256 + d[4]
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
        tenant._units_mutated = True
    return units


# ----------------------------------------------------------------------
# The one driver for every fast-path simulation
# ----------------------------------------------------------------------
def run_simulators(sims: Sequence[Simulator]) -> List[SimResult]:
    """Run a batch of freshly constructed simulators to completion.

    Every library call site steps its simulators here; a single run is
    a batch of one.  The batch goes through one
    :class:`MegaBatchEngine`, which steps each chainable simulator with
    its lane's promotion hook, or, under ``REPRO_SIM_MEGABATCH=0``,
    each simulator steps through ``Simulator.run()`` without one.
    Results come back in input order and are bit-identical either
    way."""
    if megabatch_default():
        return MegaBatchEngine(sims).run()
    return [sim.run() for sim in sims]
