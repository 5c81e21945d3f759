"""vNPU -> pNPU mapping (paper SectionIII-C).

Two mapping modes:

- **hardware-isolated (spatial)**: a vNPU gets dedicated EUs and memory;
  collocation is admitted only while the physical core's resources are
  not exceeded.
- **software-isolated (temporal)**: vNPUs may oversubscribe a core; the
  mapper load-balances by assigning each new vNPU to the pNPU with the
  least total resource requirement.

The mapper also "attempts to balance the number of allocated EUs and the
size of allocated memory", so EU-heavy/memory-light vNPUs end up
collocated with EU-light/memory-heavy ones (greedy policy).  Memory is
carved out of fixed-size protection segments (2 MB SRAM / 1 GB HBM); the
segment bases recorded on the instance drive the IOMMU/segmentation
checks in :mod:`repro.runtime.iommu`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import (
    HBM_SEGMENT_BYTES,
    NpuCoreConfig,
    SRAM_SEGMENT_BYTES,
)
from repro.core.vnpu import VnpuInstance, VnpuState
from repro.errors import MappingError


class MappingMode(enum.Enum):
    SPATIAL = "hardware-isolated"
    TEMPORAL = "software-isolated"


@dataclass
class PnpuState:
    """Book-keeping for one physical NPU core."""

    core_index: int
    core: NpuCoreConfig
    mode: MappingMode = MappingMode.SPATIAL
    resident: List[VnpuInstance] = field(default_factory=list)
    sram_segments_used: int = 0
    hbm_segments_used: int = 0

    @property
    def mes_committed(self) -> int:
        return sum(v.config.num_mes_per_core for v in self.resident)

    @property
    def ves_committed(self) -> int:
        return sum(v.config.num_ves_per_core for v in self.resident)

    @property
    def load_score(self) -> float:
        """Fraction of the core's resources already committed (EUs and
        memory weighted equally), used for least-loaded placement."""
        eu_frac = (self.mes_committed + self.ves_committed) / (
            self.core.num_mes + self.core.num_ves
        )
        mem_frac = 0.0
        if self.core.num_hbm_segments:
            mem_frac = self.hbm_segments_used / self.core.num_hbm_segments
        return (eu_frac + mem_frac) / 2.0

    def fits_spatially(self, vnpu: VnpuInstance) -> bool:
        cfg = vnpu.config
        if self.mes_committed + cfg.num_mes_per_core > self.core.num_mes:
            return False
        if self.ves_committed + cfg.num_ves_per_core > self.core.num_ves:
            return False
        return self._fits_memory(vnpu)

    def _fits_memory(self, vnpu: VnpuInstance) -> bool:
        cfg = vnpu.config
        sram_segs = _segments(cfg.sram_bytes_per_core, SRAM_SEGMENT_BYTES)
        hbm_segs = _segments(cfg.hbm_bytes_per_core, HBM_SEGMENT_BYTES)
        if self.sram_segments_used + sram_segs > self.core.num_sram_segments:
            return False
        if self.hbm_segments_used + hbm_segs > self.core.num_hbm_segments:
            return False
        return True


def _segments(nbytes: int, segment_bytes: int) -> int:
    if nbytes <= 0:
        return 0
    return -(-nbytes // segment_bytes)


class VnpuMapper:
    """Places vNPUs onto a pool of physical NPU cores."""

    def __init__(
        self,
        cores: List[NpuCoreConfig],
        mode: MappingMode = MappingMode.SPATIAL,
    ) -> None:
        if not cores:
            raise MappingError("mapper needs at least one physical core")
        self.mode = mode
        self.pnpus: List[PnpuState] = [
            PnpuState(core_index=i, core=core, mode=mode)
            for i, core in enumerate(cores)
        ]
        self._placement: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def map(self, vnpu: VnpuInstance) -> PnpuState:
        """Place ``vnpu``; returns its pNPU.  Raises when infeasible."""
        if vnpu.state is not VnpuState.REQUESTED:
            raise MappingError(f"{vnpu.describe()} is not in REQUESTED state")
        vnpu.config.validate_against(self.pnpus[0].core)
        target = self._choose(vnpu)
        if target is None:
            raise MappingError(
                f"no pNPU can host {vnpu.describe()} under {self.mode.value}"
            )
        self._commit(target, vnpu)
        return target

    def unmap(self, vnpu: VnpuInstance) -> None:
        if vnpu.vnpu_id not in self._placement:
            raise MappingError(f"{vnpu.describe()} is not mapped")
        pnpu = self.pnpus[self._placement.pop(vnpu.vnpu_id)]
        pnpu.resident.remove(vnpu)
        cfg = vnpu.config
        pnpu.sram_segments_used -= _segments(cfg.sram_bytes_per_core, SRAM_SEGMENT_BYTES)
        pnpu.hbm_segments_used -= _segments(cfg.hbm_bytes_per_core, HBM_SEGMENT_BYTES)
        vnpu.transition(VnpuState.DESTROYED)

    # ------------------------------------------------------------------
    def _choose(self, vnpu: VnpuInstance) -> Optional[PnpuState]:
        if self.mode is MappingMode.SPATIAL:
            candidates = [p for p in self.pnpus if p.fits_spatially(vnpu)]
        else:
            # Temporal sharing allows EU oversubscription but memory is
            # still partitioned.
            candidates = [p for p in self.pnpus if p._fits_memory(vnpu)]
        if not candidates:
            return None
        # Greedy balance of EU and memory pressure: pick the pNPU with
        # the least combined load ("assigns a new vNPU to the pNPU that
        # suffers the least resource requirement").
        return min(candidates, key=lambda p: (p.load_score, p.core_index))

    def _commit(self, pnpu: PnpuState, vnpu: VnpuInstance) -> None:
        cfg = vnpu.config
        vnpu.sram_segment_base = pnpu.sram_segments_used
        vnpu.hbm_segment_base = pnpu.hbm_segments_used
        pnpu.sram_segments_used += _segments(cfg.sram_bytes_per_core, SRAM_SEGMENT_BYTES)
        pnpu.hbm_segments_used += _segments(cfg.hbm_bytes_per_core, HBM_SEGMENT_BYTES)
        pnpu.resident.append(vnpu)
        vnpu.pnpu_core = pnpu.core_index
        vnpu.transition(VnpuState.MAPPED)
        self._placement[vnpu.vnpu_id] = pnpu.core_index
