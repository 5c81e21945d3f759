"""Cluster orchestrator: admission, placement and release of vNPUs.

Plays the role KubeVirt/Kubernetes plays in the paper's deployment
story: tenants submit vNPU requests (optionally with a compile-time
profile and an EU budget for the allocator); the orchestrator picks a
host via the configured policy and drives that host's hypervisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compiler.profiler import WorkloadProfile
from repro.core.allocator import split_eu_budget
from repro.core.vnpu import VnpuConfig
from repro.cluster.host import Host
from repro.cluster.placement import LeastLoadedPolicy, PlacementPolicy
from repro.cluster.virt import (
    REJECT_CAPACITY,
    REJECT_HYPERCALL,
    REJECT_VF_EXHAUSTED,
)
from repro.errors import AllocationError, HypercallError
from repro.sim.stats import ordered_mean


@dataclass
class PlacementRequest:
    """One tenant's ask."""

    owner: str
    num_mes: int = 1
    num_ves: int = 1
    sram_bytes: int = 0
    hbm_bytes: int = 0
    priority: float = 1.0
    #: Optional compile-time profile ratios, used by contention-aware
    #: placement and by the EU-budget path.
    m: Optional[float] = None
    v: Optional[float] = None
    #: Stamped by :meth:`ClusterOrchestrator.submit`; ``None`` until the
    #: request is submitted.
    request_id: Optional[int] = None

    @staticmethod
    def from_profile(
        owner: str,
        profile: WorkloadProfile,
        total_eus: int,
        sram_bytes: int = 0,
        hbm_bytes: int = 0,
        priority: float = 1.0,
    ) -> "PlacementRequest":
        """Pay-as-you-go: size the ME/VE split from the profile (Eq. 4)."""
        num_mes, num_ves = split_eu_budget(profile.m, profile.v, total_eus)
        return PlacementRequest(
            owner=owner,
            num_mes=num_mes,
            num_ves=num_ves,
            sram_bytes=sram_bytes,
            hbm_bytes=hbm_bytes,
            priority=priority,
            m=profile.m,
            v=profile.v,
        )

    def as_vnpu_config(self) -> VnpuConfig:
        return VnpuConfig(
            num_mes_per_core=self.num_mes,
            num_ves_per_core=self.num_ves,
            sram_bytes_per_core=self.sram_bytes,
            hbm_bytes_per_core=self.hbm_bytes,
        )


@dataclass
class Placement:
    request: PlacementRequest
    host: Host
    vnpu_id: int


class ClusterOrchestrator:
    """Places vNPU requests onto hosts.

    Request ids are the orchestrator's own, counting from 1: they key
    its placement and rejection tables.
    """

    def __init__(
        self,
        hosts: List[Host],
        policy: Optional[PlacementPolicy] = None,
    ) -> None:
        if not hosts:
            raise AllocationError("cluster needs at least one host")
        names = [h.name for h in hosts]
        if len(set(names)) != len(names):
            raise AllocationError("host names must be unique")
        self.hosts = list(hosts)
        self.policy = policy if policy is not None else LeastLoadedPolicy()
        self._placements: Dict[int, Placement] = {}
        self.rejected: List[PlacementRequest] = []
        #: request_id -> why admission turned it away (``REJECT_*`` in
        #: :mod:`repro.cluster.virt`).
        self.rejection_causes: Dict[int, str] = {}
        self._next_request_id = 1

    # ------------------------------------------------------------------
    def _diagnose_rejection(self, request: PlacementRequest) -> str:
        """Why no host could take ``request``.

        The placement policies admit iff some host has both free engines
        and a free VF, so when engines fit somewhere the only possible
        blocker is SR-IOV VF exhaustion -- the control-plane limit the
        paper's SR-IOV design imposes.
        """
        if any(
            h.fits_engines(request.num_mes, request.num_ves)
            for h in self.hosts
        ):
            return REJECT_VF_EXHAUSTED
        return REJECT_CAPACITY

    def _record_rejection(self, request: PlacementRequest, cause: str) -> None:
        self.rejected.append(request)
        self.rejection_causes[request.request_id] = cause

    def submit(self, request: PlacementRequest) -> Optional[Placement]:
        """Admit and place; returns None (and records) when rejected.

        Stamps the next request id on ``request`` first, so a placement
        and a rejection cause are both keyed by it.
        """
        request.request_id = self._next_request_id
        self._next_request_id += 1
        host = self.policy.choose(self.hosts, request)
        if host is None:
            self._record_rejection(request, self._diagnose_rejection(request))
            return None
        try:
            handle = host.place(
                request.as_vnpu_config(),
                owner=request.owner,
                m=request.m,
                v=request.v,
                priority=request.priority,
            )
        except HypercallError:
            # The policy judged the host feasible but the hypervisor
            # refused the create; the control plane has the final word.
            self._record_rejection(request, REJECT_HYPERCALL)
            return None
        placement = Placement(
            request=request, host=host, vnpu_id=handle.vnpu_id
        )
        self._placements[request.request_id] = placement
        return placement

    def release(self, request_id: int) -> None:
        placement = self._placements.pop(request_id, None)
        if placement is None:
            raise AllocationError(f"unknown placement {request_id}")
        placement.host.release(placement.vnpu_id)

    # ------------------------------------------------------------------
    # Elastic membership (autoscaling)
    # ------------------------------------------------------------------
    def add_host(self, host: Host) -> None:
        """Bring a new host into the placement set (scale-up)."""
        if any(h.name == host.name for h in self.hosts):
            raise AllocationError(f"host {host.name!r} is already registered")
        self.hosts.append(host)

    def remove_host(self, name: str) -> Host:
        """Retire an *empty* host from the placement set (scale-down).

        Drain its residents first (see :meth:`migrate`); removing an
        occupied host would strand live placements.
        """
        for i, host in enumerate(self.hosts):
            if host.name == name:
                if host.resident:
                    raise AllocationError(
                        f"host {name!r} still hosts "
                        f"{len(host.resident)} vNPU(s); drain it first"
                    )
                if len(self.hosts) == 1:
                    raise AllocationError(
                        "cannot remove the last host of a cluster"
                    )
                return self.hosts.pop(i)
        raise AllocationError(f"unknown host {name!r}")

    def migrate(
        self,
        request_id: int,
        exclude: Tuple[str, ...] = (),
    ) -> Optional[Placement]:
        """Re-place one live tenant onto a different host.

        The configured policy picks the target among hosts not named in
        ``exclude`` (typically the host being drained).  Returns the new
        placement, or ``None`` -- placement untouched -- when no other
        host fits the request.  Unlike :meth:`submit`, a failed
        migration is not recorded as a rejection: the tenant keeps
        running where it is.
        """
        placement = self._placements.get(request_id)
        if placement is None:
            raise AllocationError(f"unknown placement {request_id}")
        banned = set(exclude) | {placement.host.name}
        candidates = [h for h in self.hosts if h.name not in banned]
        if not candidates:
            return None
        target = self.policy.choose(candidates, placement.request)
        if target is None:
            return None
        placement.host.release(placement.vnpu_id)
        request = placement.request
        try:
            handle = target.place(
                request.as_vnpu_config(),
                owner=request.owner,
                m=request.m,
                v=request.v,
                priority=request.priority,
            )
        except HypercallError:
            # The target's control plane refused (e.g. a policy that
            # skipped the feasibility check against a VF-exhausted
            # host).  Re-place on the source host -- its engines and VF
            # were freed just above, so this cannot fail -- keeping the
            # "failed migration leaves the tenant running" contract.
            handle = placement.host.place(
                request.as_vnpu_config(),
                owner=request.owner,
                m=request.m,
                v=request.v,
                priority=request.priority,
            )
            self._placements[request_id] = Placement(
                request=request, host=placement.host, vnpu_id=handle.vnpu_id
            )
            return None
        moved = Placement(
            request=request, host=target, vnpu_id=handle.vnpu_id
        )
        self._placements[request_id] = moved
        return moved

    # ------------------------------------------------------------------
    def placements(self) -> List[Placement]:
        return list(self._placements.values())

    def utilization(self) -> Dict[str, float]:
        return {h.name: h.load for h in self.hosts}

    def collocation_map(self) -> Dict[str, List[str]]:
        """Host name -> owners resident there (for policy studies)."""
        out: Dict[str, List[str]] = {h.name: [] for h in self.hosts}
        for placement in self._placements.values():
            out[placement.host.name].append(placement.request.owner)
        return out

    def rejection_cause_counts(self) -> Dict[str, int]:
        """Rejections per cause (empty when everything was admitted)."""
        out: Dict[str, int] = {}
        for cause in self.rejection_causes.values():
            out[cause] = out.get(cause, 0) + 1
        return out

    def admission_rate(self) -> float:
        total = len(self._placements) + len(self.rejected)
        if total == 0:
            return 1.0
        return len(self._placements) / total


def complementarity_score(pairs: List[Tuple[float, float]]) -> float:
    """Mean |m1 + m2 - 1| over collocated pairs: 0 is perfectly
    complementary (one ME-heavy with one VE-heavy), 1 is worst.  Used to
    compare placement policies in tests and examples."""
    return ordered_mean([abs(m1 + m2 - 1.0) for m1, m2 in pairs])
