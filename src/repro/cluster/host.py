"""A cluster host: one machine with NPU cores behind a hypervisor.

Placement goes through the real guest-side control plane: every tenant
gets a :class:`~repro.runtime.vm.GuestVm` (host-physical stride from the
hypervisor's own address space) and a
:class:`~repro.runtime.driver.VnpuDriver`, whose ``open``/``close``
issue the actual create/destroy hypercalls, occupy an SR-IOV virtual
function, and register the DMA buffer with the IOMMU.  A host therefore
admits a tenant only while it has both free engines *and* a free VF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import NpuCoreConfig
from repro.core.mapper import MappingMode
from repro.errors import AllocationError
from repro.runtime.driver import VnpuDriver
from repro.runtime.hypervisor import Hypervisor, VnpuHandle
from repro.sim.stats import ordered_mean


@dataclass
class HostedVnpu:
    """Book-keeping for a vNPU placed on this host."""

    handle: VnpuHandle
    owner: str
    #: Compile-time ME active ratio of the owner's workload (None when
    #: the tenant did not provide a profile).
    m: Optional[float] = None
    v: Optional[float] = None
    #: The guest driver bound to this vNPU (owns the VM and DMA buffer).
    driver: Optional[VnpuDriver] = None


class Host:
    """One machine in the cluster."""

    def __init__(
        self,
        name: str,
        cores: List[NpuCoreConfig],
        mode: MappingMode = MappingMode.SPATIAL,
        num_vfs: int = 16,
    ) -> None:
        if not cores:
            raise AllocationError(f"host {name!r} needs at least one core")
        self.name = name
        self.cores = list(cores)
        self.hypervisor = Hypervisor(cores, mode=mode, num_vfs=num_vfs)
        self.resident: Dict[int, HostedVnpu] = {}

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def total_mes(self) -> int:
        return sum(c.num_mes for c in self.cores)

    @property
    def total_ves(self) -> int:
        return sum(c.num_ves for c in self.cores)

    @property
    def committed_mes(self) -> int:
        return sum(
            h.handle.config.num_mes_per_core * h.handle.config.total_cores
            for h in self.resident.values()
        )

    @property
    def committed_ves(self) -> int:
        return sum(
            h.handle.config.num_ves_per_core * h.handle.config.total_cores
            for h in self.resident.values()
        )

    @property
    def load(self) -> float:
        denom = self.total_mes + self.total_ves
        if denom == 0:
            return 1.0
        return (self.committed_mes + self.committed_ves) / denom

    @property
    def num_vfs(self) -> int:
        """SR-IOV virtual-function pool size of this host."""
        return self.hypervisor.sriov.num_vfs

    @property
    def free_vfs(self) -> int:
        return self.hypervisor.sriov.num_vfs - self.hypervisor.sriov.in_use

    def fits_engines(self, num_mes: int, num_ves: int) -> bool:
        """Engine capacity alone (ignores the VF pool)."""
        return (
            self.committed_mes + num_mes <= self.total_mes
            and self.committed_ves + num_ves <= self.total_ves
        )

    def fits(self, num_mes: int, num_ves: int) -> bool:
        """Admissible: free engines *and* a free virtual function."""
        return self.fits_engines(num_mes, num_ves) and self.free_vfs > 0

    # ------------------------------------------------------------------
    # Profile mix (for contention-aware placement)
    # ------------------------------------------------------------------
    def mean_me_pressure(self) -> float:
        """Average m of resident workloads (0.5 when unknown/empty)."""
        values = [h.m for h in self.resident.values() if h.m is not None]
        if not values:
            return 0.5
        return ordered_mean(values)

    # ------------------------------------------------------------------
    # Placement plumbing (called by the orchestrator)
    # ------------------------------------------------------------------
    def place(
        self,
        config,
        owner: str,
        m: Optional[float] = None,
        v: Optional[float] = None,
        priority: float = 1.0,
    ) -> VnpuHandle:
        vm = self.hypervisor.create_vm(owner)
        driver = VnpuDriver(vm, self.hypervisor)
        handle = driver.open(config, priority=priority)
        self.resident[handle.vnpu_id] = HostedVnpu(
            handle=handle, owner=owner, m=m, v=v, driver=driver
        )
        return handle

    def release(self, vnpu_id: int) -> None:
        hosted = self.resident.get(vnpu_id)
        if hosted is None:
            raise AllocationError(
                f"host {self.name!r} does not host vNPU {vnpu_id}"
            )
        if hosted.driver is not None:
            hosted.driver.close()
        else:  # pragma: no cover - placements always carry a driver
            self.hypervisor.hypercall_destroy(vnpu_id)
        del self.resident[vnpu_id]
