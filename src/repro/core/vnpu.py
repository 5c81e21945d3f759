"""The vNPU abstraction (paper SectionIII-A, Fig. 10).

A vNPU is a virtual NPU device exposed to a guest VM as a PCIe device.
Its configuration mirrors the hierarchy of a physical board::

    struct vNPU_Config {
        size_t num_chips;          size_t num_cores_per_chip;
        size_t num_MEs_per_core;   size_t num_VEs_per_core;
        size_t sram_size_per_core; size_t mem_size_per_core;
    }

The instance tracks the lifecycle the hypervisor drives: requested ->
mapped -> active -> destroyed, with explicit transition validation so
control-plane bugs surface as :class:`~repro.errors.LifecycleError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.config import NpuCoreConfig
from repro.errors import ConfigError, LifecycleError


@dataclass(frozen=True)
class VnpuConfig:
    """User-visible vNPU configuration (paper Fig. 10)."""

    num_chips: int = 1
    num_cores_per_chip: int = 1
    num_mes_per_core: int = 1
    num_ves_per_core: int = 1
    sram_bytes_per_core: int = 0
    hbm_bytes_per_core: int = 0

    def __post_init__(self) -> None:
        if self.num_chips < 1 or self.num_cores_per_chip < 1:
            raise ConfigError("a vNPU needs at least one chip and one core")
        # "Each vNPU will have at least one ME and one VE" (SectionIII-B).
        if self.num_mes_per_core < 1 or self.num_ves_per_core < 1:
            raise ConfigError("a vNPU core needs at least one ME and one VE")
        if self.sram_bytes_per_core < 0 or self.hbm_bytes_per_core < 0:
            raise ConfigError("memory sizes cannot be negative")

    @property
    def total_cores(self) -> int:
        return self.num_chips * self.num_cores_per_chip

    @property
    def total_mes(self) -> int:
        return self.total_cores * self.num_mes_per_core

    @property
    def total_ves(self) -> int:
        return self.total_cores * self.num_ves_per_core

    @property
    def total_eus(self) -> int:
        """Execution units = MEs + VEs; what the user pays for."""
        return self.total_mes + self.total_ves

    def validate_against(self, core: NpuCoreConfig) -> None:
        """The maximum vNPU size is capped by the physical NPU size."""
        if self.num_mes_per_core > core.num_mes:
            raise ConfigError(
                f"vNPU wants {self.num_mes_per_core} MEs/core, "
                f"physical core has {core.num_mes}"
            )
        if self.num_ves_per_core > core.num_ves:
            raise ConfigError(
                f"vNPU wants {self.num_ves_per_core} VEs/core, "
                f"physical core has {core.num_ves}"
            )
        if self.sram_bytes_per_core > core.sram_bytes:
            raise ConfigError("vNPU SRAM exceeds physical SRAM")
        if self.hbm_bytes_per_core > core.hbm_bytes:
            raise ConfigError("vNPU HBM exceeds physical HBM")


class VnpuState(enum.Enum):
    REQUESTED = "requested"
    MAPPED = "mapped"
    ACTIVE = "active"
    DESTROYED = "destroyed"


_VALID_TRANSITIONS = {
    VnpuState.REQUESTED: {VnpuState.MAPPED, VnpuState.DESTROYED},
    VnpuState.MAPPED: {VnpuState.ACTIVE, VnpuState.DESTROYED},
    VnpuState.ACTIVE: {VnpuState.MAPPED, VnpuState.DESTROYED},
    VnpuState.DESTROYED: set(),
}


@dataclass
class VnpuInstance:
    """A live vNPU with lifecycle state and placement."""

    config: VnpuConfig
    owner: str = "tenant"
    priority: float = 1.0
    #: Issued by the host's :class:`~repro.core.manager.VnpuManager`;
    #: unique within that host, whose tables it keys.
    vnpu_id: int = field(kw_only=True)
    state: VnpuState = VnpuState.REQUESTED
    #: Physical core index assigned by the mapper (single-core vNPUs).
    pnpu_core: Optional[int] = None
    #: Base SRAM/HBM segment indices assigned at mapping time.
    sram_segment_base: Optional[int] = None
    hbm_segment_base: Optional[int] = None

    def transition(self, new_state: VnpuState) -> None:
        if new_state not in _VALID_TRANSITIONS[self.state]:
            raise LifecycleError(
                f"vNPU {self.vnpu_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def describe(self) -> str:
        cfg = self.config
        return (
            f"vNPU#{self.vnpu_id}[{cfg.num_mes_per_core}ME+"
            f"{cfg.num_ves_per_core}VE x {cfg.total_cores} cores, "
            f"{self.state.value}]"
        )
