"""Hypervisor integration (paper SectionIII-F, Fig. 11).

The hypervisor "only mediates the resource management functions that are
not on the critical path": three hypercalls routed to the vNPU manager.
On vNPU creation it also:

- assigns an SR-IOV virtual function and programs its BAR identity
  registers,
- attaches the vNPU's SRAM/HBM segment windows to the IOMMU,
- registers the guest's DMA buffer for remapping.

Data-path operations (command submission, polling) bypass it entirely.

Every hypercall is counted (total and per type); the cluster serving
driver (:mod:`repro.traffic.cluster_sim`) turns those counts into a
modelled control-plane latency charged against tenant onboarding time.
The hypervisor also owns a :class:`~repro.runtime.vm.HostAddressSpace`,
so guest VMs it creates get deterministic, per-host, non-aliasing
host-physical strides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compiler.profiler import WorkloadProfile
from repro.config import HBM_SEGMENT_BYTES, NpuCoreConfig, SRAM_SEGMENT_BYTES
from repro.core.manager import VnpuManager
from repro.core.mapper import MappingMode
from repro.core.vnpu import VnpuConfig, VnpuInstance, VnpuState
from repro.errors import HypercallError
from repro.runtime.iommu import Iommu, MemoryKind
from repro.runtime.sriov import SriovRegistry, VirtualFunction
from repro.runtime.vm import GuestVm, HostAddressSpace


@dataclass
class VnpuHandle:
    """What the guest gets back from a create hypercall."""

    vnpu_id: int
    vf_bdf: str
    config: VnpuConfig


class Hypervisor:
    """Mediates vNPU lifecycle; owns the manager, IOMMU and SR-IOV."""

    def __init__(
        self,
        cores: List[NpuCoreConfig],
        mode: MappingMode = MappingMode.SPATIAL,
        num_vfs: int = 16,
    ) -> None:
        self.manager = VnpuManager(cores, mode=mode)
        self.iommu = Iommu()
        self.sriov = SriovRegistry(num_vfs=num_vfs)
        self.address_space = HostAddressSpace()
        self.hypercall_count = 0
        self.hypercall_counts: Dict[str, int] = {
            "create": 0, "reconfigure": 0, "destroy": 0,
        }

    def _count_hypercall(self, kind: str) -> None:
        self.hypercall_count += 1
        self.hypercall_counts[kind] += 1

    # ------------------------------------------------------------------
    # Guest VMs
    # ------------------------------------------------------------------
    def create_vm(self, name: str, memory_bytes: int = 16 * 2**30) -> GuestVm:
        """A guest VM backed by this host's own address space, so host
        bases are deterministic per host regardless of process history."""
        return GuestVm(name, memory_bytes, address_space=self.address_space)

    # ------------------------------------------------------------------
    # Occupancy telemetry
    # ------------------------------------------------------------------
    @property
    def vf_capacity(self) -> int:
        return self.sriov.num_vfs

    @property
    def vf_in_use(self) -> int:
        return self.sriov.in_use

    @property
    def iommu_mapping_count(self) -> int:
        return self.iommu.mapping_count

    # ------------------------------------------------------------------
    # Hypercalls
    # ------------------------------------------------------------------
    def hypercall_create(
        self,
        config: VnpuConfig,
        owner: str = "tenant",
        priority: float = 1.0,
        profile: Optional[WorkloadProfile] = None,
        total_eus: Optional[int] = None,
    ) -> VnpuHandle:
        """Create a vNPU; with ``profile`` + ``total_eus`` the allocator
        overrides the requested ME/VE split."""
        self._count_hypercall("create")
        try:
            if profile is not None and total_eus is not None:
                vnpu = self.manager.create_for_workload(
                    profile, total_eus, owner=owner, priority=priority
                )
            else:
                vnpu = self.manager.create(config, owner=owner, priority=priority)
        except Exception as exc:
            raise HypercallError(f"vNPU creation rejected: {exc}") from exc
        try:
            vf = self._wire_device(vnpu)
        except Exception as exc:
            # The vNPU was mapped but could not be wired (typically VF
            # exhaustion): unwind the manager state so a rejected create
            # leaves the host exactly as it found it.
            self._unwire_device(vnpu)
            self.manager.destroy(vnpu.vnpu_id)
            raise HypercallError(f"vNPU creation rejected: {exc}") from exc
        vnpu.transition(VnpuState.ACTIVE)
        return VnpuHandle(vnpu_id=vnpu.vnpu_id, vf_bdf=vf.bdf, config=vnpu.config)

    def hypercall_reconfigure(self, vnpu_id: int, config: VnpuConfig) -> VnpuHandle:
        """Resize a live vNPU.  The guest's DMA registrations survive
        (its DMA buffer is unchanged); the VF and segment windows are
        re-assigned, so a guest driver must re-query its BAR (see
        :meth:`repro.runtime.driver.VnpuDriver.reconfigure`)."""
        self._count_hypercall("reconfigure")
        unwired = False
        try:
            old = self.manager.get(vnpu_id)
            self._unwire_device(old, keep_dma=True)
            unwired = True
            vnpu = self.manager.reconfigure(vnpu_id, config)
        except HypercallError:
            raise
        except Exception as exc:
            if unwired:
                # The manager restored (or kept) a mapping under this id;
                # rewire it so a rejected reconfigure is a no-op.
                try:
                    survivor = self.manager.get(vnpu_id)
                except Exception:
                    survivor = None
                if survivor is not None and self.sriov.vf_of(vnpu_id) is None:
                    self._wire_device(survivor)
            raise HypercallError(f"vNPU reconfigure rejected: {exc}") from exc
        vf = self._wire_device(vnpu)
        if vnpu.state is not VnpuState.ACTIVE:
            vnpu.transition(VnpuState.ACTIVE)
        return VnpuHandle(vnpu_id=vnpu.vnpu_id, vf_bdf=vf.bdf, config=vnpu.config)

    def hypercall_destroy(self, vnpu_id: int) -> None:
        """Clean up the vNPU context and remove its DMA setup."""
        self._count_hypercall("destroy")
        try:
            vnpu = self.manager.get(vnpu_id)
            self._unwire_device(vnpu)
            self.manager.destroy(vnpu_id)
        except HypercallError:
            raise
        except Exception as exc:
            raise HypercallError(f"vNPU destroy rejected: {exc}") from exc

    # ------------------------------------------------------------------
    # Device plumbing
    # ------------------------------------------------------------------
    def _wire_device(self, vnpu: VnpuInstance) -> VirtualFunction:
        vf = self.sriov.assign(vnpu.vnpu_id)
        cfg = vnpu.config
        vf.bar.load_identity(
            vnpu_id=vnpu.vnpu_id,
            num_chips=cfg.num_chips,
            num_cores_per_chip=cfg.num_cores_per_chip,
            num_mes=cfg.num_mes_per_core,
            num_ves=cfg.num_ves_per_core,
            sram_bytes=cfg.sram_bytes_per_core,
            hbm_bytes=cfg.hbm_bytes_per_core,
        )
        if cfg.sram_bytes_per_core > 0:
            self.iommu.attach_window(
                vnpu.vnpu_id,
                MemoryKind.SRAM,
                vnpu.sram_segment_base or 0,
                max(1, cfg.sram_bytes_per_core // SRAM_SEGMENT_BYTES),
            )
        if cfg.hbm_bytes_per_core > 0:
            self.iommu.attach_window(
                vnpu.vnpu_id,
                MemoryKind.HBM,
                vnpu.hbm_segment_base or 0,
                max(1, cfg.hbm_bytes_per_core // HBM_SEGMENT_BYTES),
            )
        return vf

    def _unwire_device(self, vnpu: VnpuInstance, keep_dma: bool = False) -> None:
        if self.sriov.vf_of(vnpu.vnpu_id) is not None:
            self.sriov.release(vnpu.vnpu_id)
        if keep_dma:
            self.iommu.detach_windows(vnpu.vnpu_id)
        else:
            self.iommu.detach(vnpu.vnpu_id)

    # ------------------------------------------------------------------
    def bar_of(self, vnpu_id: int):
        vf = self.sriov.vf_of(vnpu_id)
        if vf is None:
            raise HypercallError(f"vNPU {vnpu_id} has no virtual function")
        return vf.bar
