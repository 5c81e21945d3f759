"""Neu10-NoHarvest: static spatial partitioning (MIG-like).

Each vNPU owns a dedicated slice of MEs and VEs.  uTOps are scheduled
only within the owner's slice; idle foreign engines are never used.
This is the paper's ``Neu10-NH`` baseline ("resembles existing static
partitioning techniques such as NVIDIA Multi-Instance GPU"), and is also
the isolation reference: a tenant's performance under Neu10-NH must
equal its solo performance on an equally sized core (property-tested).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.errors import SchedulerError
from repro.sim.scheduler_base import (
    Decision,
    ExecUnit,
    SchedulerBase,
    UnitState,
    unit_state_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator, Tenant


def sort_me_candidates(units: List[ExecUnit]) -> List[ExecUnit]:
    """Stable scheduling order: already-running units first (continuity,
    avoids gratuitous preemption), then FIFO by unit id."""
    return sorted(
        units,
        key=lambda u: (u.state is not UnitState.RUNNING, u.unit_id),
    )


def allocate_tenant_ve(
    tenant: "Tenant",
    granted_me_units: List[ExecUnit],
    cap: float,
    embedded_first: bool = True,
) -> Dict[ExecUnit, float]:
    """VE split within one tenant's VE budget.

    With ``embedded_first`` (the paper's policy, SectionIII-E) the
    embedded streams of running ME units are served before VE uTOps
    "which allows the occupied MEs to be freed as soon as possible";
    the inverted order exists as an ablation.
    """
    alloc: Dict[ExecUnit, float] = {}
    remaining = cap

    def serve_embedded(budget: float) -> float:
        for unit in granted_me_units:
            if budget <= 1e-12:
                break
            # Grants always equal me_engines_needed, so size the stream
            # from the requirement (grants are applied after decide).
            need = unit.ve_rate * max(1, unit.me_engines_needed)
            if need <= 0:
                continue
            got = min(budget, need)
            alloc[unit] = alloc.get(unit, 0.0) + got
            budget -= got
        return budget

    def serve_ve_utops(budget: float) -> float:
        for unit in tenant.active_units:
            if unit.is_me_unit or unit.done:
                continue
            if budget <= 1e-12:
                break
            got = min(budget, float(unit.parallelism))
            if got > 0:
                alloc[unit] = alloc.get(unit, 0.0) + got
                budget -= got
        return budget

    if embedded_first:
        remaining = serve_ve_utops(serve_embedded(remaining))
    else:
        remaining = serve_embedded(serve_ve_utops(remaining))
    return alloc


def unmet_ve_demand(
    tenant: "Tenant",
    granted_me_units: List[ExecUnit],
    alloc: Dict[ExecUnit, float],
) -> List[ExecUnit]:
    """Units of ``tenant`` that could use more VEs than allocated."""
    needy: List[ExecUnit] = []
    for unit in granted_me_units:
        need = unit.ve_rate * max(1, unit.me_engines_needed)
        if need > alloc.get(unit, 0.0) + 1e-12:
            needy.append(unit)
    for unit in tenant.active_units:
        if unit.is_me_unit or unit.done:
            continue
        if float(unit.parallelism) > alloc.get(unit, 0.0) + 1e-12:
            needy.append(unit)
    return needy


class StaticPartitionScheduler(SchedulerBase):
    """Dedicated per-vNPU engine slices without harvesting."""

    name = "neu10-nh"

    def state_fingerprint(self, sim: "Simulator"):
        """Static partitions only read unit and allocation state."""
        return unit_state_fingerprint(sim)

    def memo_context(self):
        return ("neu10-nh",)

    def decide(self, sim: "Simulator") -> Decision:
        total_me = sum(t.alloc_mes for t in sim.tenants)
        total_ve = sum(t.alloc_ves for t in sim.tenants)
        if total_me > sim.core.num_mes or total_ve > sim.core.num_ves:
            raise SchedulerError(
                "static partition oversubscribes the core "
                f"({total_me} MEs / {total_ve} VEs)"
            )
        decision = Decision()
        for tenant in sim.tenants:
            cap = tenant.alloc_mes
            granted_units: List[ExecUnit] = []
            used = 0
            for unit in sort_me_candidates(self.ready_me_units(tenant)):
                need = unit.me_engines_needed
                if used + need > cap:
                    continue
                decision.running_me[unit] = need
                granted_units.append(unit)
                used += need
            ve_alloc = allocate_tenant_ve(tenant, granted_units, tenant.alloc_ves)
            decision.ve_alloc.update(ve_alloc)
        return decision
