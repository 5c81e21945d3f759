"""Hardware configuration for the simulated NPU (paper Table II).

The default :class:`NpuCoreConfig` mirrors the simulator configuration the
paper evaluates on:

====================  =========================================
# of MEs / VEs        4 MEs & 4 VEs
ME dimension          128 x 128 systolic array
VE ALU dimension      128 x 8 FP32 operations / cycle
Frequency             1050 MHz
On-chip SRAM          128 MB
HBM                   64 GB capacity, 1200 GB/s bandwidth
====================  =========================================

All timing inside the simulator is expressed in *cycles* of the core
clock; helper properties convert between cycles, seconds and bytes/cycle
so workload definitions can use natural units.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from typing import Union

from repro.errors import ConfigError

#: Default seed for every stochastic component (traffic generators,
#: placement tie-breaking experiments, ...).  One seed reproduces a
#: whole scenario end to end.
DEFAULT_SEED = 2024


def make_rng(seed: Union[int, None] = None) -> random.Random:
    """The repo-wide RNG factory: one seed, one stream."""
    return random.Random(DEFAULT_SEED if seed is None else seed)


def spawn_rng(seed: Union[int, None], *keys: object) -> random.Random:
    """Derive an independent, deterministic child stream.

    Hashing the (seed, keys) tuple decorrelates substreams (e.g. one per
    tenant per segment) while keeping every scenario reproducible from a
    single top-level seed.
    """
    base = DEFAULT_SEED if seed is None else seed
    material = repr((base,) + tuple(keys)).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


#: Bytes in one gigabyte (decimal, as used for HBM marketing capacities).
GB = 10**9
#: Bytes in one mebibyte / gibibyte (binary, used for SRAM and footprints).
MiB = 2**20
GiB = 2**30

#: Size of one SRAM protection segment (paper SectionIII-C: 2 MB).
SRAM_SEGMENT_BYTES = 2 * MiB
#: Size of one HBM protection segment (paper SectionIII-C: 1 GB).
HBM_SEGMENT_BYTES = 1 * GiB

#: ME context-switch (preemption) penalty in cycles: 128 cycles to pop the
#: partial sums plus 128 cycles to pop the weights of the preempted uTOp
#: (paper SectionIII-G, for a 128x128 systolic array).
ME_PREEMPTION_CYCLES = 256


@dataclass(frozen=True)
class NpuCoreConfig:
    """Static configuration of one physical NPU core.

    Parameters mirror paper Table II.  The config is immutable; derived
    quantities are exposed as properties.
    """

    num_mes: int = 4
    num_ves: int = 4
    me_rows: int = 128
    me_cols: int = 128
    ve_lanes: int = 128
    ve_ops_per_lane: int = 8
    frequency_hz: float = 1_050e6
    sram_bytes: int = 128 * MiB
    hbm_bytes: int = 64 * GB
    hbm_bandwidth_bytes_per_s: float = 1_200e9
    me_preemption_cycles: int = ME_PREEMPTION_CYCLES

    def __post_init__(self) -> None:
        if self.num_mes < 1 or self.num_ves < 1:
            raise ConfigError("an NPU core needs at least one ME and one VE")
        if self.me_rows < 1 or self.me_cols < 1:
            raise ConfigError("systolic array dimensions must be positive")
        if self.ve_lanes < 1 or self.ve_ops_per_lane < 1:
            raise ConfigError("vector engine dimensions must be positive")
        if self.frequency_hz <= 0:
            raise ConfigError("frequency must be positive")
        if self.sram_bytes <= 0 or self.hbm_bytes <= 0:
            raise ConfigError("memory sizes must be positive")
        if self.hbm_bandwidth_bytes_per_s <= 0:
            raise ConfigError("HBM bandwidth must be positive")
        if self.me_preemption_cycles < 0:
            raise ConfigError("preemption penalty cannot be negative")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def ve_flops_per_cycle(self) -> int:
        """FP32 operations one VE retires per cycle (128 x 8 by default)."""
        return self.ve_lanes * self.ve_ops_per_lane

    @property
    def me_macs_per_cycle(self) -> int:
        """Peak MACs one ME performs per cycle once the array is full."""
        return self.me_rows * self.me_cols

    @property
    def hbm_bytes_per_cycle(self) -> float:
        """HBM bandwidth expressed in bytes per core clock cycle."""
        return self.hbm_bandwidth_bytes_per_s / self.frequency_hz

    @property
    def num_sram_segments(self) -> int:
        return self.sram_bytes // SRAM_SEGMENT_BYTES

    @property
    def num_hbm_segments(self) -> int:
        return self.hbm_bytes // HBM_SEGMENT_BYTES

    # ------------------------------------------------------------------
    # Unit conversions
    # ------------------------------------------------------------------
    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz

    def cycles_to_us(self, cycles: float) -> float:
        return cycles / self.frequency_hz * 1e6

    def seconds_to_cycles(self, seconds: float) -> float:
        return seconds * self.frequency_hz

    def with_engines(self, num_mes: int, num_ves: int) -> "NpuCoreConfig":
        """Return a copy with a different engine count (paper Fig. 25)."""
        return dataclasses.replace(self, num_mes=num_mes, num_ves=num_ves)

    def with_bandwidth(self, bytes_per_s: float) -> "NpuCoreConfig":
        """Return a copy with a different HBM bandwidth (paper Fig. 26)."""
        return dataclasses.replace(self, hbm_bandwidth_bytes_per_s=bytes_per_s)


@dataclass(frozen=True)
class NpuChipConfig:
    """A chip groups cores that share a board (paper Fig. 1)."""

    core: NpuCoreConfig = NpuCoreConfig()
    num_cores: int = 2

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("a chip needs at least one core")


@dataclass(frozen=True)
class NpuBoardConfig:
    """A board groups chips behind one PCIe endpoint (paper Fig. 1)."""

    chip: NpuChipConfig = NpuChipConfig()
    num_chips: int = 4

    def __post_init__(self) -> None:
        if self.num_chips < 1:
            raise ConfigError("a board needs at least one chip")

    @property
    def total_cores(self) -> int:
        return self.num_chips * self.chip.num_cores

    @property
    def total_mes(self) -> int:
        return self.total_cores * self.chip.core.num_mes

    @property
    def total_ves(self) -> int:
        return self.total_cores * self.chip.core.num_ves


#: The paper's evaluation core (Table II).
DEFAULT_CORE = NpuCoreConfig()
#: A TPUv4-like board: 4 chips x 2 cores.
DEFAULT_BOARD = NpuBoardConfig()
