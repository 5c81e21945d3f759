"""Model -> executable workload trace.

A :class:`WorkloadTrace` bundles everything an experiment needs for one
(model, batch) pair: the operator graph, its compile-time profile (m, v,
intensity ratio, HBM demand) and the compiled forms for both ISAs.
Traces are memoised -- building the large detection graphs repeatedly
would dominate experiment runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.compiler.graph import Graph
from repro.compiler.lowering import (
    CompiledGraph,
    lower_graph_neuisa,
    lower_graph_vliw,
)
from repro.compiler.profiler import WorkloadProfile, profile_graph
from repro.config import DEFAULT_CORE, NpuCoreConfig
from repro.workloads.catalog import model_info


@dataclass
class WorkloadTrace:
    """One model at one batch size, ready to simulate."""

    name: str
    abbrev: str
    batch: int
    graph: Graph
    profile: WorkloadProfile
    neuisa: CompiledGraph
    vliw: CompiledGraph
    core: NpuCoreConfig

    def compiled(self, isa: str) -> CompiledGraph:
        if isa == "neuisa":
            return self.neuisa
        if isa == "vliw":
            return self.vliw
        raise ValueError(f"unknown isa {isa!r}")


@lru_cache(maxsize=128)
def _build_trace_cached(
    name: str, batch: int, core: NpuCoreConfig
) -> WorkloadTrace:
    info = model_info(name)
    graph = info.build(batch)
    profile = profile_graph(graph, core)
    neuisa = lower_graph_neuisa(graph, core, batch_hint=batch)
    vliw = lower_graph_vliw(
        graph, core, core.num_mes, core.num_ves, batch_hint=batch
    )
    return WorkloadTrace(
        name=info.name,
        abbrev=info.abbrev,
        batch=batch,
        graph=graph,
        profile=profile,
        neuisa=neuisa,
        vliw=vliw,
        core=core,
    )


def build_trace(
    name: str,
    batch: int = 32,
    core: Optional[NpuCoreConfig] = None,
) -> WorkloadTrace:
    """Build (or fetch) the trace for ``name`` at ``batch``.

    The VLIW binary is compiled for the whole core, as the
    temporal-sharing baselines assume.
    """
    core = core if core is not None else DEFAULT_CORE
    return _build_trace_cached(model_info(name).name, batch, core)
