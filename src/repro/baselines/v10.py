"""V10: temporal sharing of all MEs/VEs with operator-level preemption.

Models the paper's strongest baseline (V10, ISCA'23).  Workloads are
compiled with the traditional VLIW-style ISA, so an ME operator couples
the control flow of the whole ME array: while it runs, *no other ME
operator can execute* -- only VE-only operators from collocated vNPUs
proceed concurrently on the vector engines (paper SectionV-A).  This
creates the "false contention" Neu10 eliminates: an operator that cannot
fill every ME still blocks them all.

Fairness is priority-based and preemptive at operator granularity: when
a waiting vNPU's service deficit exceeds a threshold, the running ME
operator is preempted (paying the context-save penalty on each coupled
engine).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.sim.scheduler_base import (
    Decision,
    ExecUnit,
    SchedulerBase,
    UnitKind,
    UnitState,
    attribute_code,
    creation_rank_perm,
)
from repro.sim.sched_static import allocate_tenant_ve

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator, Tenant

#: Service imbalance (cycles) that triggers an operator preemption.
#: V10 schedules at *operator* granularity: fairness normally acts when
#: an operator completes, and a running operator is forcibly preempted
#: only on a gross imbalance.  This is what makes V10's tail latency
#: fragile under "complex inter-operator dependencies and imbalanced
#: operator lengths" (paper SectionV-B).
DEFAULT_PREEMPT_THRESHOLD = 400_000.0
#: How often to re-evaluate fairness while the core is contended.
DEFAULT_CHECK_PERIOD = 25_000.0


class V10Scheduler(SchedulerBase):
    """Operator-level temporal sharing of the ME array."""

    name = "v10"

    def __init__(
        self,
        preempt_threshold: float = DEFAULT_PREEMPT_THRESHOLD,
        check_period: float = DEFAULT_CHECK_PERIOD,
    ) -> None:
        self.preempt_threshold = preempt_threshold
        self.check_period = check_period

    # ------------------------------------------------------------------
    def state_fingerprint(self, sim: "Simulator"):
        """The inputs of this epoch's plan, plus the outcome of the
        service comparisons.

        The deficit trigger and the least-served pick are the only
        inputs of :meth:`decide` beyond the unit state; the key carries
        their discrete outcome, ``((rank permutation, (reclaim count,
        codes)), beneficiary id or None, picked unit's owner or None)``,
        as computed by :meth:`_service_choices`.  The reclaim count is
        all the plan reads of the reclaim timers (the free MEs).  The
        codes follow :func:`unit_state_fingerprint`'s layout, except
        that every READY ME unit other than the picked one is the marker
        ``-2 - me_engines_needed``: the plan reads such a unit only for
        the fact that it waits and for the MEs it needs, never for its
        rates.  The rank permutation stays, because VE operators share
        the VEs in creation order across tenants.  The plan touches
        every active unit.  The policy keeps no other mutable state, so
        every epoch is memoisable.
        """
        _running, beneficiary, picked = self._service_choices(sim)
        ready = UnitState.READY
        units: List[ExecUnit] = []
        flat: List = [len(sim.reclaims)]
        append = flat.append
        for tenant in sim.tenants:
            active = tenant.active_units
            units += active
            append(-1)
            for u in active:
                if u.is_me_unit and u.state is ready and u is not picked:
                    append(-2 - u.me_engines_needed)
                else:
                    code = u.code
                    append(code if code is not None else attribute_code(u))
        rank_perm = sim._rank_perm
        if rank_perm is None:
            rank_perm = sim._rank_perm = creation_rank_perm(units)
        return (
            (rank_perm, tuple(flat)),
            beneficiary.tenant_id if beneficiary is not None else None,
            picked.owner if picked is not None else None,
        ), units

    def forced_decision_at(self, sim: "Simulator") -> float:
        return sim.now + self.check_period

    # ------------------------------------------------------------------
    def decide(self, sim: "Simulator") -> Decision:
        decision = Decision()
        running_me, beneficiary, picked = self._service_choices(sim)
        if beneficiary is not None:
            decision.preempt.append(running_me)
            decision.reclaim_owners[running_me] = beneficiary.tenant_id
            running_me = None
        if running_me is None:
            running_me = picked
        if running_me is not None:
            # The VLIW ISA couples the whole ME array: the operator holds
            # its compiled engine block and nothing else may use MEs.
            decision.running_me[running_me] = running_me.me_engines_needed

        self._allocate_ves(sim, decision, running_me)

        contended = bool(self._waiting_me_tenants(sim, running_me))
        if contended:
            decision.next_decision_at = self.forced_decision_at(sim)
        return decision

    def _service_choices(
        self, sim: "Simulator"
    ) -> Tuple[Optional[ExecUnit], Optional["Tenant"], Optional[ExecUnit]]:
        """The choices :meth:`decide` takes from accumulated service.

        Returns ``(running, beneficiary, picked)``: the ME operator
        running before this decision; the waiting tenant a deficit
        preemption of it benefits, or None when the trigger does not
        fire; and the least-served tenant's operator picked when no ME
        operator runs after the trigger, or None.
        """
        running_me = self._running_me_unit(sim)
        waiting = self._waiting_me_tenants(sim, running_me)
        served = sim.stats.me_busy_per_tenant
        beneficiary = None
        if running_me is not None and waiting:
            owner_served = served.get(running_me.owner, 0.0)
            worst = min(
                served.get(t.tenant_id, 0.0) / max(t.priority, 1e-9)
                for t in waiting
            )
            if owner_served / max(self._priority_of(sim, running_me.owner), 1e-9) - worst > self.preempt_threshold:
                beneficiary = min(
                    waiting, key=lambda t: served.get(t.tenant_id, 0.0)
                )
        if running_me is not None and beneficiary is None:
            return running_me, None, None
        preempt = [running_me] if beneficiary is not None else []
        penalty = sum(max(1, u.granted_me) for u in preempt)
        picked = self._pick_me_unit(sim, sim.available_mes - penalty, preempt)
        return running_me, beneficiary, picked

    # ------------------------------------------------------------------
    @staticmethod
    def _running_me_unit(sim: "Simulator") -> Optional[ExecUnit]:
        for tenant in sim.tenants:
            for unit in tenant.active_units:
                if unit.state is UnitState.RUNNING and unit.is_me_unit:
                    return unit
        return None

    @staticmethod
    def _priority_of(sim: "Simulator", tenant_id: int) -> float:
        for tenant in sim.tenants:
            if tenant.tenant_id == tenant_id:
                return tenant.priority
        return 1.0

    def _waiting_me_tenants(
        self, sim: "Simulator", running_me: Optional[ExecUnit]
    ) -> List["Tenant"]:
        # Runs in every fingerprint and twice per fresh decision, so it
        # is a plain loop rather than any() over a generator.  Not done
        # and not running means READY.
        ready = UnitState.READY
        out = []
        for tenant in sim.tenants:
            if running_me is not None and tenant.tenant_id == running_me.owner:
                continue
            for u in tenant.active_units:
                if u.is_me_unit and u.state is ready:
                    out.append(tenant)
                    break
        return out

    def _pick_me_unit(
        self,
        sim: "Simulator",
        capacity: int,
        exclude: List[ExecUnit] = (),
    ) -> Optional[ExecUnit]:
        """Least-served tenant's pending ME operator, if it fits the
        engines not frozen by a reclaim window.

        ``exclude`` holds units this decision already preempts: they are
        still RUNNING in ``active_units`` when this runs, and re-picking
        one would make the decision preempt and run the same unit.  The
        preempted tenant's head operator stalls, and in-order execution
        stalls the rest of that tenant with it.
        """
        best: Optional[ExecUnit] = None
        best_score = float("inf")
        for tenant in sim.tenants:
            for unit in tenant.active_units:
                if not unit.is_me_unit or unit.done:
                    continue
                if unit in exclude:
                    break
                if unit.me_engines_needed > capacity:
                    continue
                score = sim.stats.me_busy_per_tenant.get(
                    tenant.tenant_id, 0.0
                ) / max(tenant.priority, 1e-9)
                if score < best_score:
                    best, best_score = unit, score
                break  # operators execute in order within a tenant
        return best

    def _allocate_ves(
        self,
        sim: "Simulator",
        decision: Decision,
        running_me: Optional[ExecUnit],
    ) -> None:
        """VE-only operators from every tenant share the vector engines;
        the running ME operator's embedded stream goes first."""
        remaining = float(sim.core.num_ves)
        if running_me is not None and running_me.ve_rate > 0:
            need = running_me.ve_rate * running_me.me_engines_needed
            got = min(remaining, need)
            if got > 0:
                decision.ve_alloc[running_me] = got
                remaining -= got
        ve_units: List[ExecUnit] = []
        for tenant in sim.tenants:
            for unit in tenant.active_units:
                if unit.is_me_unit or unit.done:
                    continue
                if unit.kind in (UnitKind.VLIW_VE, UnitKind.VE_UTOP):
                    ve_units.append(unit)
        ve_units.sort(key=lambda u: u.unit_id)
        for unit in ve_units:
            if remaining <= 1e-9:
                break
            got = min(remaining, float(unit.parallelism))
            if got > 0:
                decision.ve_alloc[unit] = got
                remaining -= got
