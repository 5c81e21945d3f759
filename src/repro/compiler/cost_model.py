"""Per-operator cost estimation (the compiler's performance model).

For every operator the model produces an :class:`OpCost`:

- ``me_cycles``: busy cycles on *one* matrix engine (128x128 systolic
  array by default).  MatMul/Conv costs account for array fill/drain and
  weight-loading inefficiency on edge tiles, which is why small or skinny
  matmuls utilise the array poorly.
- ``ve_cycles``: busy cycles on *one* vector engine (128 lanes x 8
  ops/cycle).  For ME operators this is the fused epilogue work (pop
  post-processing, bias, activation -- paper Fig. 6); for VE operators it
  is the whole operator.
- ``hbm_bytes``: DMA traffic to/from HBM.
- ``sram_bytes``: working-set footprint in the on-chip SRAM.

These numbers play the role of the per-operator traces the paper
collected from real TPUv4 runs (ME/VE time, HBM time, tile sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.compiler.operators import (
    Conv2D,
    DepthwiseConv2D,
    Elementwise,
    EmbeddingLookup,
    LayerNorm,
    MatMul,
    Operator,
    Pooling,
    Reduction,
    Softmax,
    me_equivalent_dims,
)
from repro.config import NpuCoreConfig
from repro.errors import CompileError

#: Random-access inefficiency of embedding gathers: each gathered row
#: wastes part of an HBM burst, so effective traffic exceeds useful bytes.
GATHER_OVERHEAD = 2.0
#: Fraction of peak HBM bandwidth random gathers sustain (row-buffer
#: misses and short bursts): gathers occupy the VE for their traffic at
#: this efficiency, which is what keeps DLRM's *average* bandwidth near
#: 40-50% of peak (paper Fig. 7: ~494 GB/s of 1.2 TB/s).
GATHER_BANDWIDTH_EFFICIENCY = 0.45


@dataclass(frozen=True)
class OpCost:
    """Resource demands of one operator on one ME and one VE."""

    me_cycles: float
    ve_cycles: float
    hbm_bytes: float
    sram_bytes: int
    #: Number of independent output tiles an ME op can be split into
    #: without touching the reduction dimension.
    parallel_tiles: int = 1
    #: Number of reduction-dimension chunks (k-tiles); splitting across
    #: them requires a separate VE combine step (NeuISA overhead, Fig 16).
    reduction_tiles: int = 1

    def __post_init__(self) -> None:
        if self.me_cycles < 0 or self.ve_cycles < 0:
            raise CompileError("cycle costs cannot be negative")
        if self.hbm_bytes < 0 or self.sram_bytes < 0:
            raise CompileError("memory costs cannot be negative")

    @property
    def is_me_bound(self) -> bool:
        return self.me_cycles >= self.ve_cycles


class CostModel:
    """Maps operators to :class:`OpCost` on a given core configuration."""

    def __init__(self, core: NpuCoreConfig) -> None:
        self.core = core

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def cost(self, op: Operator) -> OpCost:
        if isinstance(op, MatMul):
            return self._cost_matmul(op)
        if isinstance(op, Conv2D):
            return self._cost_conv(op)
        if isinstance(op, DepthwiseConv2D):
            return self._cost_ve_generic(op, op.flops)
        if isinstance(op, Elementwise):
            return self._cost_ve_generic(op, op.flops)
        if isinstance(op, Softmax):
            return self._cost_ve_generic(op, op.flops)
        if isinstance(op, LayerNorm):
            return self._cost_ve_generic(op, op.flops)
        if isinstance(op, Reduction):
            return self._cost_ve_generic(op, op.flops)
        if isinstance(op, Pooling):
            return self._cost_ve_generic(op, op.flops)
        if isinstance(op, EmbeddingLookup):
            return self._cost_embedding(op)
        raise CompileError(f"no cost model for operator type {type(op).__name__}")

    # ------------------------------------------------------------------
    # ME operators
    # ------------------------------------------------------------------
    def _matmul_cost(
        self, m: int, k: int, n: int, epilogue_factor: float, op: Operator
    ) -> OpCost:
        rows, cols = self.core.me_rows, self.core.me_cols
        tm = math.ceil(m / rows)
        tn = math.ceil(n / cols)
        tk = math.ceil(k / rows)
        # Weight-stationary systolic timing: for each (n-tile, k-tile)
        # pair the array loads a rows x cols weight block (`rows` cycles,
        # one row per cycle) and then streams all m input rows through
        # it.  Partial sums accumulate across k-tiles in place.
        load_and_stream = tn * tk * (rows + m)
        # Output drain: every output row pops once per n-tile (an 8-row
        # vector drains per cycle, so m rows cost m/8 pops of 8 cycles).
        drain_cycles = tn * m
        me_cycles = float(load_and_stream + drain_cycles)

        # VE side: every popped 8x128 output vector takes one VE cycle to
        # post-process (paper Fig. 6), plus fused epilogue passes.
        out_elements = m * n
        pop_vectors = tn * max(1, m // 8)
        ve_cycles = float(pop_vectors) + (
            out_elements * epilogue_factor / self.core.ve_flops_per_cycle
        )

        hbm_bytes = op.hbm_bytes
        tile_bytes = rows * cols * 4
        sram_bytes = 3 * tile_bytes  # input + weight + output tiles
        return OpCost(
            me_cycles=me_cycles,
            ve_cycles=ve_cycles,
            hbm_bytes=hbm_bytes,
            sram_bytes=sram_bytes,
            parallel_tiles=max(1, tm * tn),
            reduction_tiles=max(1, tk),
        )

    def _cost_matmul(self, op: MatMul) -> OpCost:
        factor = sum(e.cost_factor for e in op.epilogue)
        return self._matmul_cost(op.m, op.k, op.n, factor, op)

    def _cost_conv(self, op: Conv2D) -> OpCost:
        m, k, n = op.as_matmul_dims()
        factor = sum(e.cost_factor for e in op.epilogue)
        return self._matmul_cost(m, k, n, factor, op)

    # ------------------------------------------------------------------
    # VE operators
    # ------------------------------------------------------------------
    def _cost_ve_generic(self, op: Operator, lane_ops: float) -> OpCost:
        ve_cycles = max(1.0, lane_ops / self.core.ve_flops_per_cycle)
        sram_bytes = min(int(op.hbm_bytes), self.core.sram_bytes // 8)
        chunk = self.core.ve_flops_per_cycle * 64
        parallel = max(1, int(lane_ops // chunk))
        return OpCost(
            me_cycles=0.0,
            ve_cycles=ve_cycles,
            hbm_bytes=op.hbm_bytes,
            sram_bytes=sram_bytes,
            parallel_tiles=parallel,
        )

    def _cost_embedding(self, op: EmbeddingLookup) -> OpCost:
        hbm_bytes = op.input_bytes * GATHER_OVERHEAD + op.output_bytes
        # A gather keeps the vector unit busy issuing addresses and
        # pooling rows for as long as the random-access traffic takes at
        # full bandwidth: embedding lookups are memory-bound VE time
        # (this is what makes DLRM/NCF "VE-intensive" in paper Fig. 4).
        compute_cycles = op.flops / self.core.ve_flops_per_cycle
        gather_rate = self.core.hbm_bytes_per_cycle * GATHER_BANDWIDTH_EFFICIENCY
        memory_cycles = hbm_bytes / gather_rate
        ve_cycles = max(1.0, compute_cycles, memory_cycles)
        sram_bytes = min(op.input_bytes, self.core.sram_bytes // 8)
        # A gather is one memory-bound stream: granting more VEs does
        # not raise the random-access bandwidth the channel sustains, so
        # the lowered uTOp must not scale with VE count (this is what
        # pins DLRM's average bandwidth near 45% of peak, paper Fig. 7).
        return OpCost(
            me_cycles=0.0,
            ve_cycles=ve_cycles,
            hbm_bytes=hbm_bytes,
            sram_bytes=sram_bytes,
            parallel_tiles=1,
        )


def me_utilization_efficiency(op: Operator, core: NpuCoreConfig) -> float:
    """Fraction of peak MACs an ME op achieves (1.0 = perfectly tiled).

    Used by characterisation experiments to explain why small batch sizes
    under-utilise the systolic array.
    """
    dims = me_equivalent_dims(op)
    if dims is None:
        return 0.0
    m, k, n = dims
    rows, cols = core.me_rows, core.me_cols
    padded = math.ceil(m / rows) * rows * math.ceil(n / cols) * cols
    padded_k = math.ceil(k / rows) * rows
    return (m * n * k) / (padded * padded_k)
