"""PMT: preemptive temporal sharing of the whole NPU core.

Models PREMA-style multi-tasking (paper baseline "PMT [16]"): exactly one
vNPU owns the entire core at a time; a preemptive fair scheduler rotates
ownership on a quantum, weighted by priority.  Context switches preempt
every running engine and pay the ME context-save penalty, and the incoming
tenant additionally waits for the reclaim window -- the "high preemption
overhead" the paper attributes to coarse-grained time-sharing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.sim.scheduler_base import (
    Decision,
    ExecUnit,
    SchedulerBase,
    UnitState,
    attribute_code,
)
from repro.sim.sched_static import allocate_tenant_ve, sort_me_candidates

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator, Tenant

#: Default scheduling quantum in cycles (~48 us at 1.05 GHz).
DEFAULT_QUANTUM = 50_000.0


class PmtScheduler(SchedulerBase):
    """Whole-core preemptive temporal sharing.

    The policy state is the current owner and its quantum end.  Every
    epoch with work fingerprints, owner switches included: a switch's
    key names the next owner, and :meth:`replay_policy` moves the state
    on a memo hit as :meth:`decide` does on a fresh decision.  The key
    is meaningful only against this run's service history, so the memo
    stays private to the run (no :meth:`memo_context`).
    """

    name = "pmt"

    def __init__(self, quantum_cycles: float = DEFAULT_QUANTUM) -> None:
        self.quantum_cycles = quantum_cycles
        self._current: Optional[int] = None
        self._quantum_end = 0.0

    # ------------------------------------------------------------------
    def state_fingerprint(self, sim: "Simulator"):
        """The inputs of this epoch's plan, plus the current owner, and
        on a switch the next one.

        An epoch that keeps its owner is a pure function of the owner's
        units, the reclaim count (the free MEs), ``_current`` and, for
        each other tenant, whether it has work (which decides whether
        the quantum end forces a re-decision) and whether it wants MEs
        (which makes it blocked).  Its key is ``((reclaim count, owner's
        unit codes and the other tenants' flags in tenant order),
        current owner)`` and its plan touches the owner's units only:
        every other unit is READY or DONE without a grant, since a
        switch plan takes every engine from the outgoing owner and a
        tenant that does not own the core never progresses.  The quantum
        end only times the forced re-decision, which
        :meth:`forced_decision_at` supplies.

        An epoch that switches owner (no current owner, an idle one, or
        an expired quantum with someone else waiting) also moves
        ``_current`` and ``_quantum_end``.  Its key is ``((reclaim count,
        codes), current owner, next owner)``, the next owner being the
        least-service pick :meth:`decide` makes, with the next owner's
        units spelled out in full and every other unit as (is ME, state,
        granted MEs); its plan touches every unit.  No rank permutation is
        needed, since the policy reads no unit order across tenants.
        :meth:`replay_policy` tells the two kinds apart by key length
        and performs the switch when a switch key replays.  An epoch
        with no work anywhere returns None.
        """
        candidates = [t for t in sim.tenants if self._has_work(t)]
        if not candidates:
            return None
        current = self._tenant_by_id(sim, self._current)
        flat: List = [len(sim.reclaims)]
        append = flat.append
        if self._must_switch(sim, candidates, current):
            nxt = self._pick_next(sim, candidates, current)
            units: List[ExecUnit] = []
            for tenant in sim.tenants:
                active = tenant.active_units
                units += active
                append(-1)
                if tenant is nxt:
                    for u in active:
                        code = u.code
                        append(code if code is not None else attribute_code(u))
                else:
                    # Below -1: (state, grant) from the code's low byte,
                    # doubled, plus the ME bit.
                    for u in active:
                        code = u.code
                        append(
                            -2 - (((code & 255) << 1) | u.is_me_unit)
                            if code is not None else attribute_code(u)
                        )
            return (tuple(flat), self._current, nxt.tenant_id), units
        for tenant in sim.tenants:
            if tenant is current:
                for u in tenant.active_units:
                    code = u.code
                    append(code if code is not None else attribute_code(u))
            else:
                append(self._waiting_flag(tenant))
        return (tuple(flat), self._current), current.active_units

    def replay_policy(self, sim: "Simulator", key) -> None:
        """On a replayed switch, hand the core to the key's next owner
        for a fresh quantum, as :meth:`decide` does."""
        if len(key) == 3:
            self._current = key[2]
            self._quantum_end = sim.now + self.quantum_cycles

    def forced_decision_at(self, sim: "Simulator") -> float:
        return self._quantum_end

    # ------------------------------------------------------------------
    def decide(self, sim: "Simulator") -> Decision:
        decision = Decision()
        candidates = [t for t in sim.tenants if self._has_work(t)]
        if not candidates:
            return decision

        current = self._tenant_by_id(sim, self._current)
        if self._must_switch(sim, candidates, current):
            nxt = self._pick_next(sim, candidates, current)
            if current is not None and nxt is not current:
                self._preempt_tenant(decision, current, nxt.tenant_id)
            current = nxt
            self._current = current.tenant_id
            self._quantum_end = sim.now + self.quantum_cycles

        penalty = sum(max(1, u.granted_me) for u in decision.preempt)
        capacity = sim.available_mes - penalty

        granted: List[ExecUnit] = []
        used = 0
        for unit in sort_me_candidates(self.ready_me_units(current)):
            need = unit.me_engines_needed
            if used + need > capacity:
                continue
            decision.running_me[unit] = need
            granted.append(unit)
            used += need
        decision.ve_alloc.update(
            allocate_tenant_ve(current, granted, float(sim.core.num_ves))
        )
        if len(candidates) > 1:
            decision.next_decision_at = self.forced_decision_at(sim)
        return decision

    # ------------------------------------------------------------------
    def _must_switch(
        self,
        sim: "Simulator",
        candidates: List["Tenant"],
        current: Optional["Tenant"],
    ) -> bool:
        """Whether this epoch hands the core to a new owner; the one
        test :meth:`decide` and :meth:`state_fingerprint` share."""
        return (
            current is None
            or not self._has_work(current)
            or (sim.now >= self._quantum_end - 1e-9 and len(candidates) > 1)
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _has_work(tenant: "Tenant") -> bool:
        # Runs per tenant in every fingerprint and fresh decision, so it
        # is a plain loop rather than any() over a generator.
        done = UnitState.DONE
        for u in tenant.active_units:
            if u.state is not done:
                return True
        return False

    @staticmethod
    def _waiting_flag(tenant: "Tenant") -> int:
        """A tenant's part of a key between switches when it does not
        own the core: -1 without work, -2 with work but no ME demand,
        -3 with ME demand (it is then blocked)."""
        done = UnitState.DONE
        flag = -1
        for u in tenant.active_units:
            if u.state is not done:
                if u.is_me_unit and u.me_engines_needed:
                    return -3
                flag = -2
        return flag

    @staticmethod
    def _tenant_by_id(sim: "Simulator", tenant_id: Optional[int]) -> Optional["Tenant"]:
        if tenant_id is None:
            return None
        for tenant in sim.tenants:
            if tenant.tenant_id == tenant_id:
                return tenant
        return None

    def _pick_next(
        self, sim: "Simulator", candidates: List["Tenant"], current: Optional["Tenant"]
    ) -> "Tenant":
        """Least-service-first, weighted by priority; avoid re-picking the
        expiring tenant when someone else is waiting.

        Service is *ME cycles actually received*
        (``stats.me_busy_per_tenant``), not time spent with a request in
        flight: under closed-loop serving every collocated tenant is
        active every cycle, so an active-time key ties permanently and
        the rotation degenerates to pool order -- with three or more
        tenants that starves whoever the order never reaches.
        """
        pool = [t for t in candidates if t is not current] or candidates
        served = sim.stats.me_busy_per_tenant
        return min(
            pool,
            key=lambda t: served.get(t.tenant_id, 0.0) / max(t.priority, 1e-9),
        )

    def _preempt_tenant(
        self, decision: Decision, tenant: "Tenant", beneficiary: int
    ) -> None:
        for unit in tenant.active_units:
            if unit.state is UnitState.RUNNING and unit.is_me_unit:
                decision.preempt.append(unit)
                decision.reclaim_owners[unit] = beneficiary
