"""The vNPU manager (paper SectionIII-F).

In the paper this is a host kernel module behind three hypercalls:
create a vNPU, change its configuration, deallocate it.  It "tracks the
allocated and free resources (MEs/VEs, SRAM, HBM) of all physical NPUs
on the host machine and implements the vNPU mapping policies".  Here it
composes the allocator and the mapper and owns the instance registry;
:mod:`repro.runtime.hypervisor` routes guest hypercalls to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.compiler.profiler import WorkloadProfile
from repro.config import NpuCoreConfig
from repro.core.allocator import VnpuAllocator
from repro.core.mapper import MappingMode, VnpuMapper
from repro.core.vnpu import VnpuConfig, VnpuInstance, VnpuState
from repro.errors import AllocationError


class VnpuManager:
    """Registry + policy engine for all vNPUs on one host.

    The manager issues vNPU ids, counting from 1 per host: every table
    keyed by a vNPU id (this registry, the mapper, the SR-IOV pool, the
    IOMMU, :attr:`repro.cluster.host.Host.resident`) belongs to the same
    host, and the counter is plain state that a checkpoint pickles with
    the host.
    """

    def __init__(
        self,
        cores: List[NpuCoreConfig],
        mode: MappingMode = MappingMode.SPATIAL,
    ) -> None:
        if not cores:
            raise AllocationError("manager needs at least one physical core")
        self.cores = list(cores)
        self.allocator = VnpuAllocator(cores[0])
        self.mapper = VnpuMapper(cores, mode=mode)
        self._instances: Dict[int, VnpuInstance] = {}
        self._next_id = 1

    # ------------------------------------------------------------------
    # Lifecycle operations (the three hypercalls)
    # ------------------------------------------------------------------
    def create(
        self,
        config: VnpuConfig,
        owner: str = "tenant",
        priority: float = 1.0,
    ) -> VnpuInstance:
        """Hypercall 1: create and map a new vNPU."""
        vnpu = VnpuInstance(
            config=config, owner=owner, priority=priority,
            vnpu_id=self._next_id,
        )
        self._next_id += 1
        self.mapper.map(vnpu)
        self._instances[vnpu.vnpu_id] = vnpu
        return vnpu

    def create_for_workload(
        self,
        profile: WorkloadProfile,
        total_eus: int,
        owner: str = "tenant",
        priority: float = 1.0,
        hbm_footprint_bytes: Optional[int] = None,
    ) -> VnpuInstance:
        """Create a vNPU sized by the allocator for a profiled workload
        ("Neu10 can also learn an optimized vNPU configuration for a DNN
        workload with ML compilers")."""
        result = self.allocator.allocate(
            profile, total_eus, hbm_footprint_bytes=hbm_footprint_bytes
        )
        return self.create(result.as_vnpu_config(), owner=owner, priority=priority)

    def reconfigure(self, vnpu_id: int, config: VnpuConfig) -> VnpuInstance:
        """Hypercall 2: change the configuration of an existing vNPU.

        Implemented as unmap + remap with the new configuration; the
        vNPU id is preserved.
        """
        old = self.get(vnpu_id)
        was_active = old.state is VnpuState.ACTIVE
        if was_active:
            old.transition(VnpuState.MAPPED)
        self.mapper.unmap(old)
        del self._instances[vnpu_id]
        replacement = VnpuInstance(
            config=config, owner=old.owner, priority=old.priority,
            vnpu_id=vnpu_id,
        )
        try:
            self.mapper.map(replacement)
        except Exception:
            # Remap the old configuration (its resources were just
            # freed, so this cannot fail) -- a rejected reconfigure must
            # not destroy the tenant's live vNPU.  ``unmap`` retired the
            # old instance object, so rebuild one under the same id.
            restored = VnpuInstance(
                config=old.config, owner=old.owner, priority=old.priority,
                vnpu_id=vnpu_id,
            )
            self.mapper.map(restored)
            if was_active:
                restored.transition(VnpuState.ACTIVE)
            self._instances[vnpu_id] = restored
            raise
        if was_active:
            replacement.transition(VnpuState.ACTIVE)
        self._instances[vnpu_id] = replacement
        return replacement

    def destroy(self, vnpu_id: int) -> None:
        """Hypercall 3: deallocate a vNPU and clean up its context."""
        vnpu = self.get(vnpu_id)
        if vnpu.state is VnpuState.ACTIVE:
            vnpu.transition(VnpuState.MAPPED)
        self.mapper.unmap(vnpu)
        del self._instances[vnpu_id]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, vnpu_id: int) -> VnpuInstance:
        if vnpu_id not in self._instances:
            raise AllocationError(f"unknown vNPU id {vnpu_id}")
        return self._instances[vnpu_id]

    def instances(self) -> List[VnpuInstance]:
        return list(self._instances.values())

    def collocated_with(self, vnpu_id: int) -> List[VnpuInstance]:
        """vNPUs sharing the same physical core."""
        me = self.get(vnpu_id)
        return [
            v
            for v in self._instances.values()
            if v.vnpu_id != vnpu_id and v.pnpu_core == me.pnpu_core
        ]

    def free_mes(self, core_index: int) -> int:
        pnpu = self.mapper.pnpus[core_index]
        return pnpu.core.num_mes - pnpu.mes_committed
