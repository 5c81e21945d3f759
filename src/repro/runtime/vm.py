"""Guest VM container.

Holds guest "physical" memory (a flat byte-addressed space with bounds
checks), the DMA buffer region the device accesses through the IOMMU,
and the vNPU drivers the guest loaded.  This is control-plane modelling:
memory content is tracked as allocation metadata, not bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import VirtualizationError

#: Each VM's memory occupies a disjoint host-physical stride, so DMA
#: addresses from different tenants never alias in the IOMMU tables.
HOST_STRIDE = 64 * 2**30


class HostAddressSpace:
    """Owner of the host-physical slot allocator for guest VMs.

    Each VM created against one address space gets a disjoint
    ``HOST_STRIDE``-sized stride, so DMA addresses of collocated
    tenants never alias in the IOMMU tables.  Slot allocation used to
    live in module-level mutable state, which made host bases depend on
    how many VMs *any* earlier test or run had created in the process;
    scoping the counter to an owner (each :class:`Hypervisor` holds its
    own) restores run-to-run determinism and worker-count
    equivalence across process pools.
    """

    def __init__(self) -> None:
        self._next_slot = 0

    def allocate_base(self) -> int:
        """Claim the next free stride and return its base address."""
        base = self._next_slot * HOST_STRIDE
        self._next_slot += 1
        return base

    @property
    def slots_allocated(self) -> int:
        return self._next_slot

    def reset(self) -> None:
        """Forget every allocation (only safe once all VMs are gone)."""
        self._next_slot = 0


#: Fallback space for VMs constructed without an explicit owner, e.g.
#: standalone driver examples.  Resettable via ``reset()``; code that
#: needs deterministic bases should pass a scoped space (the hypervisor
#: does).
DEFAULT_HOST_ADDRESS_SPACE = HostAddressSpace()


@dataclass
class GuestAllocation:
    addr: int
    size: int
    label: str


class GuestVm:
    """One tenant VM with guest-physical memory."""

    def __init__(
        self,
        name: str,
        memory_bytes: int = 16 * 2**30,
        address_space: Optional[HostAddressSpace] = None,
    ) -> None:
        if memory_bytes <= 0:
            raise VirtualizationError("guest memory must be positive")
        if memory_bytes > HOST_STRIDE:
            raise VirtualizationError("guest memory exceeds the host stride")
        self.name = name
        self.memory_bytes = memory_bytes
        space = address_space if address_space is not None else DEFAULT_HOST_ADDRESS_SPACE
        self.host_base = space.allocate_base()
        self._allocations: List[GuestAllocation] = []
        self._next_addr = self.host_base + 0x1000

    def alloc(self, size: int, label: str = "buffer") -> GuestAllocation:
        if size <= 0:
            raise VirtualizationError("allocation size must be positive")
        addr = self._next_addr
        if addr + size > self.host_base + self.memory_bytes:
            raise VirtualizationError(
                f"guest {self.name}: out of memory allocating {size} bytes"
            )
        allocation = GuestAllocation(addr=addr, size=size, label=label)
        self._allocations.append(allocation)
        # Keep allocations page aligned.
        self._next_addr = (addr + size + 0xFFF) & ~0xFFF
        return allocation

    def free(self, allocation: GuestAllocation) -> None:
        try:
            self._allocations.remove(allocation)
        except ValueError as exc:
            raise VirtualizationError("double free of guest allocation") from exc

    def owns(self, addr: int, size: int) -> bool:
        return any(
            a.addr <= addr and addr + size <= a.addr + a.size
            for a in self._allocations
        )

    @property
    def allocations(self) -> List[GuestAllocation]:
        return list(self._allocations)
