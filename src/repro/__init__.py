"""Neu10: hardware-assisted virtualization of NPUs (MICRO 2024).

A full-stack reproduction of the paper's system:

- ``repro.core``      -- the vNPU abstraction, allocator (Eqs. 1-4),
                         mapper and manager.
- ``repro.isa``       -- NeuISA (uTOps, groups, execution table) and the
                         baseline VLIW ISA, with a functional VM.
- ``repro.compiler``  -- the ML-compiler substrate: graphs, cost model,
                         tiling, fusion, VLIW/NeuISA lowering, profiler.
- ``repro.sim``       -- the cycle-level behavioural NPU simulator with
                         the Neu10 harvesting scheduler.
- ``repro.baselines`` -- PMT, V10 and static partitioning (Neu10-NH).
- ``repro.workloads`` -- the Table I model zoo + LLaMA2-13B.
- ``repro.runtime``   -- hypervisor/driver/IOMMU/SR-IOV substrate.
- ``repro.serving``   -- multi-tenant serving harness and metrics.
- ``repro.experiments`` -- one driver per paper table/figure.

``examples/quickstart.py`` walks the stack end to end.
"""

from repro.config import (
    DEFAULT_BOARD,
    DEFAULT_CORE,
    NpuBoardConfig,
    NpuChipConfig,
    NpuCoreConfig,
)
from repro.core import VnpuAllocator, VnpuConfig, VnpuManager
from repro.serving import ServingConfig, run_collocation, run_solo
from repro.serving.server import WorkloadSpec

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_BOARD",
    "DEFAULT_CORE",
    "NpuBoardConfig",
    "NpuChipConfig",
    "NpuCoreConfig",
    "ServingConfig",
    "VnpuAllocator",
    "VnpuConfig",
    "VnpuManager",
    "WorkloadSpec",
    "__version__",
    "run_collocation",
    "run_solo",
]

