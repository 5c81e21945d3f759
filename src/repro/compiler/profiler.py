"""Compile-time workload profiling (paper SectionIII-B).

The vNPU allocator needs two numbers per workload, obtained "via
profiling at the compilation stage":

- ``m`` -- ME active runtime / NPU total runtime, on one ME + one VE;
- ``v`` -- VE active runtime / NPU total runtime, on one ME + one VE.

The profiler runs the cost model over a graph and assumes per-operator
ME/VE pipelining (fused epilogues overlap with the systolic drain), so an
operator's duration on a 1ME+1VE core is ``max(me_cycles, ve_cycles)``
and consequently ``m + v >= 1`` -- matching the paper's assumption that
"at least one of ME/VE is active during the execution of an NPU core".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.compiler.cost_model import CostModel, OpCost
from repro.compiler.graph import Graph
from repro.config import NpuCoreConfig
from repro.errors import CompileError
from repro.sim.stats import ordered_sum


@dataclass(frozen=True)
class OpProfile:
    """Per-operator slice of the profile timeline."""

    name: str
    is_me_op: bool
    me_cycles: float
    ve_cycles: float
    hbm_bytes: float
    duration_cycles: float


@dataclass
class WorkloadProfile:
    """Profile of a whole DNN graph on a 1ME + 1VE core."""

    name: str
    ops: List[OpProfile] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return ordered_sum(op.duration_cycles for op in self.ops)

    @property
    def total_me_cycles(self) -> float:
        return ordered_sum(op.me_cycles for op in self.ops)

    @property
    def total_ve_cycles(self) -> float:
        return ordered_sum(op.ve_cycles for op in self.ops)

    @property
    def total_hbm_bytes(self) -> float:
        return sum(op.hbm_bytes for op in self.ops)

    @property
    def m(self) -> float:
        """ME active-time ratio (paper's ``m``)."""
        total = self.total_cycles
        if total <= 0:
            raise CompileError("cannot profile an empty workload")
        return min(1.0, self.total_me_cycles / total)

    @property
    def v(self) -> float:
        """VE active-time ratio (paper's ``v``)."""
        total = self.total_cycles
        if total <= 0:
            raise CompileError("cannot profile an empty workload")
        return min(1.0, self.total_ve_cycles / total)

    @property
    def me_ve_intensity_ratio(self) -> float:
        """Execution-time ratio of ME vs VE work (paper Fig. 4's metric)."""
        ve = self.total_ve_cycles
        if ve <= 0:
            return float("inf")
        return self.total_me_cycles / ve

    def average_hbm_bandwidth(self, core: NpuCoreConfig) -> float:
        """Average HBM bandwidth demand in bytes/second on a 1ME+1VE run."""
        total_cycles = self.total_cycles
        if total_cycles <= 0:
            return 0.0
        seconds = core.cycles_to_seconds(total_cycles)
        return self.total_hbm_bytes / seconds

    def timeline(self) -> List[Tuple[float, float, OpProfile]]:
        """(start_cycle, end_cycle, profile) tuples in execution order."""
        out: List[Tuple[float, float, OpProfile]] = []
        t = 0.0
        for op in self.ops:
            out.append((t, t + op.duration_cycles, op))
            t += op.duration_cycles
        return out


def profile_graph(graph: Graph, core: NpuCoreConfig) -> WorkloadProfile:
    """Profile ``graph`` on one ME + one VE of ``core``."""
    model = CostModel(core)
    profile = WorkloadProfile(name=graph.name)
    for node in graph.topo_order():
        cost: OpCost = model.cost(node.op)
        duration = max(cost.me_cycles, cost.ve_cycles)
        duration = max(duration, 1.0)
        profile.ops.append(
            OpProfile(
                name=node.name,
                is_me_op=node.op.is_me_op,
                me_cycles=cost.me_cycles,
                ve_cycles=cost.ve_cycles,
                hbm_bytes=cost.hbm_bytes,
                duration_cycles=duration,
            )
        )
    if not profile.ops:
        raise CompileError(f"graph {graph.name!r} has no operators")
    return profile
