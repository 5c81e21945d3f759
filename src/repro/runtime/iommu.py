"""IOMMU and segment-based memory isolation (paper SectionIII-C/F).

Neu10 "enforces memory address space isolation among collocated vNPUs
with the conventional memory segmentation scheme for both HBM and SRAM":
fixed-size segments (2 MB SRAM, 1 GB HBM) are mapped contiguously into a
vNPU's virtual address space.  Translation is a base-plus-offset add; an
out-of-bounds access raises a fault (the paper's page fault).  The same
object performs DMA remapping for host<->device transfers: a vNPU may
only DMA into its own registered buffers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import HBM_SEGMENT_BYTES, SRAM_SEGMENT_BYTES
from repro.errors import DmaFault, SegmentationFault


class MemoryKind(enum.Enum):
    SRAM = ("sram", SRAM_SEGMENT_BYTES)
    HBM = ("hbm", HBM_SEGMENT_BYTES)

    def __init__(self, label: str, segment_bytes: int) -> None:
        self.label = label
        self.segment_bytes = segment_bytes


@dataclass(frozen=True)
class SegmentWindow:
    """A vNPU's contiguous run of physical segments in one memory."""

    base_segment: int
    num_segments: int
    segment_bytes: int

    @property
    def size_bytes(self) -> int:
        return self.num_segments * self.segment_bytes

    @property
    def base_bytes(self) -> int:
        return self.base_segment * self.segment_bytes


class Iommu:
    """Per-device translation + protection tables."""

    def __init__(self) -> None:
        self._windows: Dict[Tuple[int, MemoryKind], SegmentWindow] = {}
        self._dma_buffers: Dict[int, List[Tuple[int, int]]] = {}
        self.fault_count = 0
        #: Cumulative counters (never decremented) for control-plane
        #: telemetry; the live table sizes are the ``*_count`` properties.
        self.windows_attached_total = 0
        self.dma_registrations_total = 0

    # ------------------------------------------------------------------
    # Occupancy telemetry
    # ------------------------------------------------------------------
    @property
    def window_count(self) -> int:
        """Live SRAM/HBM segment windows across all vNPUs."""
        return len(self._windows)

    @property
    def dma_buffer_count(self) -> int:
        """Live registered DMA buffers across all vNPUs."""
        return sum(len(v) for v in self._dma_buffers.values())

    @property
    def mapping_count(self) -> int:
        """Total live IOMMU entries (segment windows + DMA buffers)."""
        return self.window_count + self.dma_buffer_count

    # ------------------------------------------------------------------
    # Segment windows (NPU-side SRAM/HBM isolation)
    # ------------------------------------------------------------------
    def attach_window(
        self, vnpu_id: int, kind: MemoryKind, base_segment: int, num_segments: int
    ) -> SegmentWindow:
        if base_segment < 0 or num_segments < 1:
            raise SegmentationFault("invalid segment window")
        window = SegmentWindow(
            base_segment=base_segment,
            num_segments=num_segments,
            segment_bytes=kind.segment_bytes,
        )
        if (vnpu_id, kind) not in self._windows:
            self.windows_attached_total += 1
        self._windows[(vnpu_id, kind)] = window
        return window

    def detach(self, vnpu_id: int) -> None:
        self.detach_windows(vnpu_id)
        self._dma_buffers.pop(vnpu_id, None)

    def detach_windows(self, vnpu_id: int) -> None:
        """Drop the segment windows but keep DMA registrations (used by
        reconfigure, where the guest's DMA buffer stays valid)."""
        for key in [k for k in self._windows if k[0] == vnpu_id]:
            del self._windows[key]

    def translate(self, vnpu_id: int, kind: MemoryKind, virt_addr: int) -> int:
        """Virtual (vNPU-local) address -> physical byte address.

        "The address translation is performed by adding the segment
        offset to the starting address of the physical segment."
        A fault is raised for addresses outside the vNPU's window.
        """
        window = self._windows.get((vnpu_id, kind))
        if window is None:
            self.fault_count += 1
            raise SegmentationFault(
                f"vNPU {vnpu_id} has no {kind.label} window"
            )
        if not 0 <= virt_addr < window.size_bytes:
            self.fault_count += 1
            raise SegmentationFault(
                f"vNPU {vnpu_id}: {kind.label} address 0x{virt_addr:x} "
                f"outside its {window.size_bytes}-byte window"
            )
        return window.base_bytes + virt_addr

    # ------------------------------------------------------------------
    # DMA remapping (host-memory side)
    # ------------------------------------------------------------------
    def register_dma_buffer(self, vnpu_id: int, guest_addr: int, size: int) -> None:
        if size <= 0 or guest_addr < 0:
            raise DmaFault("invalid DMA buffer registration")
        self._dma_buffers.setdefault(vnpu_id, []).append((guest_addr, size))
        self.dma_registrations_total += 1

    def check_dma(self, vnpu_id: int, guest_addr: int, size: int) -> None:
        """Validate a device DMA against the vNPU's registered buffers."""
        for base, length in self._dma_buffers.get(vnpu_id, []):
            if base <= guest_addr and guest_addr + size <= base + length:
                return
        self.fault_count += 1
        raise DmaFault(
            f"vNPU {vnpu_id}: DMA to unregistered guest range "
            f"[0x{guest_addr:x}, +{size})"
        )
