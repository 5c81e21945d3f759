"""Step-cost model for continuous batching, calibrated on the NPU sim.

The fluid-ODE serving literature models one engine step over ``n``
batch tokens as ``d0 + d1 * n`` -- a fixed per-step overhead (weight
streaming, kernel launch) plus a marginal per-token cost.  Instead of
guessing ``d0``/``d1``, :func:`calibrate_llm_cost` *measures* them on
this repo's cycle-accurate core: it builds one-decode-step LLaMA graphs
with the parameterized :func:`repro.workloads.llm.build_llama` at two
batch sizes, runs each through :class:`repro.sim.engine.Simulator`, and
fits the line through the two points.  The calibration is memoised, so
a whole scenario (or benchmark sweep) pays for at most two small
simulations per (core, scheme, context) triple.

Swap preemption pays an explicit KV-reload cost on re-admission:
``swap_cycles_per_token`` defaults to the time the core's HBM needs to
stream one token's K/V tensors back on-device.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.config import DEFAULT_CORE, NpuCoreConfig
from repro.errors import ConfigError
from repro.workloads.llm import LLAMA_HIDDEN, LLAMA_LAYERS

#: fp16 K and V vectors for every layer of the default LLaMA2-13B:
#: 2 tensors x layers x hidden x 2 bytes.
KV_BYTES_PER_TOKEN = 2 * LLAMA_LAYERS * LLAMA_HIDDEN * 2

#: Batch sizes the two calibration probes run at.
CALIBRATION_BATCHES = (1, 8)


@dataclass(frozen=True)
class LlmCostModel:
    """``step = d0 + d1 * tokens`` plus the swap-reload coefficient."""

    step_overhead_cycles: float
    cycles_per_token: float
    swap_cycles_per_token: float

    def __post_init__(self) -> None:
        if self.step_overhead_cycles < 0 or self.cycles_per_token <= 0:
            raise ConfigError("step costs must be positive")
        if self.swap_cycles_per_token < 0:
            raise ConfigError("swap cost cannot be negative")

    def batch_cycles(self, tokens: int) -> float:
        """Execution time of one engine step over ``tokens`` batch tokens."""
        if tokens <= 0:
            raise ConfigError("a step must process at least one token")
        return self.step_overhead_cycles + self.cycles_per_token * tokens

    def token_capacity_per_cycle(self, batch_tokens: int) -> float:
        """Steady-state token throughput at a full ``batch_tokens`` step."""
        return batch_tokens / self.batch_cycles(batch_tokens)


def default_swap_cycles_per_token(core: NpuCoreConfig) -> float:
    """Cycles to stream one token's KV tensors over the core's HBM."""
    return KV_BYTES_PER_TOKEN / core.hbm_bytes_per_cycle


@lru_cache(maxsize=64)
def _decode_step_cycles(
    batch: int, context: int, scheme: str, core: NpuCoreConfig
) -> float:
    from repro.api.registries import make_scheduler, scheme_isa
    from repro.compiler.lowering import lower_graph_neuisa, lower_graph_vliw
    from repro.megabatch import run_simulators
    from repro.sim.engine import Simulator, Tenant
    from repro.workloads.llm import build_llama

    graph = build_llama(batch, context=context, decode_steps=1)
    if scheme_isa(scheme) == "vliw":
        compiled = lower_graph_vliw(
            graph, core, core.num_mes, core.num_ves, batch_hint=batch
        )
    else:
        compiled = lower_graph_neuisa(graph, core, batch_hint=batch)
    tenant = Tenant(
        tenant_id=0,
        name=f"llm-calib-b{batch}",
        graph=compiled,
        alloc_mes=core.num_mes,
        alloc_ves=core.num_ves,
        target_requests=1,
    )
    sim = Simulator(core, make_scheduler(scheme), [tenant], record_ops=False)
    result = run_simulators([sim])[0]
    cycles = result.tenant(0).mean_latency
    if cycles <= 0:
        raise ConfigError(
            f"llm cost calibration produced zero step time (batch {batch})"
        )
    return cycles


def calibrate_llm_cost(
    core: NpuCoreConfig = DEFAULT_CORE,
    scheme: str = "neu10",
    context: int = 512,
    swap_cycles_per_token: Optional[float] = None,
) -> LlmCostModel:
    """Fit ``d0``/``d1`` from two one-decode-step simulator probes."""
    b_lo, b_hi = CALIBRATION_BATCHES
    c_lo = _decode_step_cycles(b_lo, context, scheme, core)
    c_hi = _decode_step_cycles(b_hi, context, scheme, core)
    d1 = (c_hi - c_lo) / (b_hi - b_lo)
    if d1 <= 0:
        # A weight-bound decode can measure flat across batch sizes;
        # keep the marginal cost positive so budgets stay meaningful.
        d1 = max(1.0, 1e-6 * c_lo)
    d0 = max(0.0, c_lo - d1 * b_lo)
    return LlmCostModel(
        step_overhead_cycles=d0,
        cycles_per_token=d1,
        swap_cycles_per_token=(
            swap_cycles_per_token
            if swap_cycles_per_token is not None
            else default_swap_cycles_per_token(core)
        ),
    )
