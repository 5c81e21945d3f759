"""The Neu10 uTOp scheduler: spatial isolation + ME/VE harvesting.

Implements paper SectionIII-E rule for rule (spatial-isolated mode):

1. *Full-allocation priority*: if a vNPU has ``n`` home MEs and at least
   ``n`` ready ME uTOps, it gets all ``n`` -- harvesters holding its
   engines are preempted (paying the 256-cycle reclaim penalty, which the
   owner absorbs as wait time).
2. *Surplus harvesting*: engines a vNPU cannot fill (too few ready ME
   uTOps) are offered to collocated vNPUs with excess ready uTOps.
3. *VE scheduling*: a ready VE uTOp always executes if any VE capacity
   remains; within a vNPU's VE budget, embedded streams of running ME
   uTOps are prioritised so MEs drain as fast as possible; unused VE
   budget is harvested by collocated vNPUs (paper Fig. 18b).

Only ME uTOps harvest -- VLIW-compiled coupled blocks cannot change
engine counts at runtime, which is exactly the ISA limitation NeuISA
removes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.errors import SchedulerError
from repro.sim.scheduler_base import (
    Decision,
    ExecUnit,
    SchedulerBase,
    UnitKind,
    UnitState,
    unit_state_fingerprint,
)
from repro.sim.sched_static import (
    allocate_tenant_ve,
    sort_me_candidates,
    unmet_ve_demand,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator, Tenant


class Neu10Scheduler(SchedulerBase):
    """Spatial-isolated vNPUs with dynamic uTOp harvesting."""

    name = "neu10"

    def __init__(
        self, harvesting: bool = True, ve_embedded_first: bool = True
    ) -> None:
        self.harvesting = harvesting
        #: Serve ME uTOps' embedded VE streams before VE uTOps (the
        #: paper's policy); False inverts the order (ablation).
        self.ve_embedded_first = ve_embedded_first
        #: Tenants whose grants were trimmed this decision (reset per call).
        self._trimmed: List[int] = []

    # ------------------------------------------------------------------
    def state_fingerprint(self, sim: "Simulator"):
        """Neu10 decisions depend only on unit/reclaim/allocation state,
        never on the clock or accumulated service -- memoisable."""
        return unit_state_fingerprint(sim)

    def memo_context(self):
        return ("neu10", self.harvesting, self.ve_embedded_first)

    # ------------------------------------------------------------------
    def decide(self, sim: "Simulator") -> Decision:
        self._trimmed = []
        decision = Decision()
        avail = sim.available_mes

        # ---- Phase A: home grants --------------------------------------
        granted_units: Dict[int, List[ExecUnit]] = {}
        grant_order: List[ExecUnit] = []
        total_home = 0
        for tenant in sim.tenants:
            cap = max(0, tenant.alloc_mes - sim.reclaiming_for(tenant.tenant_id))
            used = 0
            mine: List[ExecUnit] = []
            for unit in sort_me_candidates(self.ready_me_units(tenant)):
                need = unit.me_engines_needed
                if used + need > cap:
                    continue
                mine.append(unit)
                grant_order.append(unit)
                used += need
            granted_units[tenant.tenant_id] = mine
            total_home += used

        # ---- Displaced harvesters: keep or preempt ----------------------
        prev_running = [
            u
            for t in sim.tenants
            for u in t.active_units
            if u.state is UnitState.RUNNING and u.is_me_unit
        ]
        home_set = {u for units in granted_units.values() for u in units}
        displaced = [u for u in prev_running if u not in home_set]

        # A displaced harvester keeps its engine only if surplus remains
        # after every home grant; otherwise it is preempted and its engine
        # pays the reclaim penalty (unavailable this epoch either way).
        surplus0 = avail - total_home
        keep_harvesting: List[ExecUnit] = []
        for unit in sorted(displaced, key=lambda u: u.unit_id):
            if not self.harvesting or unit.kind is not UnitKind.ME_UTOP:
                continue
            if surplus0 >= unit.me_engines_needed:
                keep_harvesting.append(unit)
                surplus0 -= unit.me_engines_needed
        preempted = [u for u in displaced if u not in keep_harvesting]

        # ---- Capacity reconciliation ------------------------------------
        penalty_engines = sum(max(1, u.granted_me) for u in preempted)
        keep_engines = sum(u.me_engines_needed for u in keep_harvesting)
        capacity = avail - penalty_engines
        if total_home + keep_engines > capacity:
            # Home demand collides with engines frozen by the reclaim
            # penalty: the newly granted (READY) home units wait it out.
            total_home = self._trim(
                granted_units, grant_order, total_home,
                capacity - keep_engines,
            )
        free = capacity - total_home - keep_engines

        for units in granted_units.values():
            for unit in units:
                decision.running_me[unit] = unit.me_engines_needed

        # Reclaim owners: the tenants whose grants were trimmed (they
        # wait for the penalty); otherwise the lending vNPU.
        self._assign_reclaim_owners(decision, preempted, sim, granted_units)
        decision.preempt.extend(preempted)

        # ---- Phase B: harvesting ---------------------------------------
        harvesters = self._harvest(
            sim, decision, granted_units, free, keep_harvesting
        )

        # ---- VE allocation ---------------------------------------------
        self._allocate_ves(sim, decision, granted_units, harvesters)
        return decision

    # ------------------------------------------------------------------
    def _trim(
        self,
        granted_units: Dict[int, List[ExecUnit]],
        grant_order: List[ExecUnit],
        total: int,
        capacity: int,
    ) -> int:
        """Drop newly-granted READY units (latest first) until the grant
        set fits the post-preemption capacity.  The dropped tenants are
        the ones waiting out the reclaim penalty."""
        for unit in reversed(grant_order):
            if total <= capacity:
                break
            if unit.state is UnitState.RUNNING:
                continue  # never trim a running unit without preempting
            granted_units[unit.owner].remove(unit)
            total -= unit.me_engines_needed
            self._trimmed.append(unit.owner)
        if total > capacity:
            raise SchedulerError(
                "cannot fit running units into post-preemption capacity"
            )
        return total

    def _assign_reclaim_owners(
        self,
        decision: Decision,
        preempted: List[ExecUnit],
        sim: "Simulator",
        granted_units: Dict[int, List[ExecUnit]],
    ) -> None:
        """The frozen engine belongs to the vNPU reclaiming it: first the
        tenants whose grants were trimmed this round, then whichever
        tenant has the most unused home allocation (the lender)."""
        trimmed = self._trimmed
        self._trimmed = []
        if not preempted:
            return
        lenders = sorted(
            sim.tenants,
            key=lambda t: (
                t.alloc_mes
                - sum(u.me_engines_needed for u in granted_units[t.tenant_id])
                - sim.reclaiming_for(t.tenant_id)
            ),
            reverse=True,
        )
        for unit in preempted:
            if trimmed:
                decision.reclaim_owners[unit] = trimmed.pop(0)
            else:
                lender = next(
                    (t for t in lenders if t.tenant_id != unit.owner), None
                )
                if lender is not None:
                    decision.reclaim_owners[unit] = lender.tenant_id

    # ------------------------------------------------------------------
    def _harvest(
        self,
        sim: "Simulator",
        decision: Decision,
        granted_units: Dict[int, List[ExecUnit]],
        free: int,
        keep_harvesting: List[ExecUnit],
    ) -> List[ExecUnit]:
        """Distribute surplus engines round-robin across tenants with
        excess ready ME uTOps.  Continuing harvesters go first."""
        harvesters: List[ExecUnit] = []
        for unit in keep_harvesting:
            decision.running_me[unit] = unit.me_engines_needed
            decision.harvested_me[unit] = unit.me_engines_needed
            harvesters.append(unit)

        if not self.harvesting or free <= 0:
            return harvesters

        surplus: Dict[int, List[ExecUnit]] = {}
        for tenant in sim.tenants:
            already = set(granted_units[tenant.tenant_id]) | set(keep_harvesting)
            extras = [
                u
                for u in sort_me_candidates(self.ready_me_units(tenant))
                if u not in already and u.kind is UnitKind.ME_UTOP
            ]
            if extras:
                surplus[tenant.tenant_id] = extras

        while free > 0 and surplus:
            for tenant_id in list(surplus):
                if free <= 0:
                    break
                unit = surplus[tenant_id].pop(0)
                decision.running_me[unit] = 1
                decision.harvested_me[unit] = 1
                harvesters.append(unit)
                free -= 1
                if not surplus[tenant_id]:
                    del surplus[tenant_id]
        return harvesters

    # ------------------------------------------------------------------
    def _allocate_ves(
        self,
        sim: "Simulator",
        decision: Decision,
        granted_units: Dict[int, List[ExecUnit]],
        harvesters: List[ExecUnit],
    ) -> None:
        total_cap = float(sim.core.num_ves)
        used = 0.0
        needy: List[ExecUnit] = []
        per_tenant_granted: Dict[int, List[ExecUnit]] = {}
        for tenant in sim.tenants:
            mine = list(granted_units[tenant.tenant_id])
            mine.extend(u for u in harvesters if u.owner == tenant.tenant_id)
            per_tenant_granted[tenant.tenant_id] = mine

        for tenant in sim.tenants:
            cap = min(float(tenant.alloc_ves), total_cap - used)
            alloc = allocate_tenant_ve(
                tenant,
                per_tenant_granted[tenant.tenant_id],
                cap,
                embedded_first=self.ve_embedded_first,
            )
            for unit, amount in alloc.items():
                decision.ve_alloc[unit] = decision.ve_alloc.get(unit, 0.0) + amount
                used += amount
            needy.extend(
                unmet_ve_demand(tenant, per_tenant_granted[tenant.tenant_id],
                                decision.ve_alloc)
            )

        if not self.harvesting:
            return
        # VE harvesting: leftover capacity goes to unmet demand, embedded
        # ME streams first (they free MEs sooner), then VE uTOps.
        leftover = total_cap - used
        if leftover <= 1e-9:
            return
        needy.sort(key=lambda u: (not u.is_me_unit, u.unit_id))
        for unit in needy:
            if leftover <= 1e-9:
                break
            if unit.is_me_unit:
                want = unit.ve_rate * max(1, unit.me_engines_needed)
            else:
                want = float(unit.parallelism)
            gap = want - decision.ve_alloc.get(unit, 0.0)
            if gap <= 0:
                continue
            got = min(leftover, gap)
            decision.ve_alloc[unit] = decision.ve_alloc.get(unit, 0.0) + got
            leftover -= got
