"""Multi-chip / multi-core data-parallel inference (paper SectionIV).

"Currently, Neu10 supports multi-chip inference with data parallelism by
using multiple vNPU chips. ... The guest ML framework can handle the
data distribution across multiple vNPU cores in the same way as that on
physical NPUs" (SectionIII-A: TensorFlow-style data parallelism).

A :class:`DataParallelVnpu` shards a request's batch across several
vNPU cores.  Each shard executes the per-shard compiled graph on its
own core (cores have private SRAM/HBM channels, so shard simulations are
independent); the request completes when the slowest shard finishes plus
an all-gather step over the board interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.registries import scheme_isa
from repro.config import NpuCoreConfig
from repro.errors import ConfigError
from repro.megabatch import run_simulators
from repro.serving.server import SCHEME_NEU10, make_scheduler
from repro.sim.engine import Simulator, Tenant
from repro.sim.stats import ordered_mean
from repro.workloads.catalog import model_info
from repro.workloads.traces import build_trace

#: Board interconnect (ICI-like) bandwidth between cores, bytes/second.
INTERCONNECT_BYTES_PER_S = 100e9


@dataclass
class ShardResult:
    core_index: int
    shard_batch: int
    latencies_cycles: List[float]

    @property
    def mean_latency(self) -> float:
        return ordered_mean(self.latencies_cycles)


@dataclass
class DataParallelResult:
    model: str
    batch: int
    num_cores: int
    shards: List[ShardResult] = field(default_factory=list)
    allgather_cycles: float = 0.0

    @property
    def request_latency_cycles(self) -> float:
        """One data-parallel request: slowest shard + all-gather."""
        if not self.shards:
            return 0.0
        per_request = []
        rounds = min(len(s.latencies_cycles) for s in self.shards)
        for r in range(rounds):
            per_request.append(
                max(s.latencies_cycles[r] for s in self.shards)
                + self.allgather_cycles
            )
        return ordered_mean(per_request)

    def throughput_rps(self, core: NpuCoreConfig) -> float:
        latency = self.request_latency_cycles
        if latency <= 0:
            return 0.0
        return 1.0 / core.cycles_to_seconds(latency)


class DataParallelVnpu:
    """A vNPU spanning several cores with synchronous data parallelism."""

    def __init__(
        self,
        model: str,
        batch: int,
        num_cores: int,
        core: NpuCoreConfig,
        scheme: str = SCHEME_NEU10,
        alloc_mes: Optional[int] = None,
        alloc_ves: Optional[int] = None,
    ) -> None:
        if num_cores < 1:
            raise ConfigError("need at least one core")
        if batch < num_cores:
            raise ConfigError(
                f"cannot shard batch {batch} across {num_cores} cores"
            )
        self.model = model_info(model).name
        self.batch = batch
        self.num_cores = num_cores
        self.core = core
        self.scheme = scheme
        self.alloc_mes = alloc_mes if alloc_mes is not None else core.num_mes
        self.alloc_ves = alloc_ves if alloc_ves is not None else core.num_ves

    def shard_batches(self) -> List[int]:
        """Even batch split; early shards absorb the remainder."""
        base = self.batch // self.num_cores
        rem = self.batch % self.num_cores
        return [base + (1 if i < rem else 0) for i in range(self.num_cores)]

    def _allgather_cycles(self) -> float:
        """Synchronisation cost: each core broadcasts its shard's output
        activations over the board interconnect (ring all-gather)."""
        graph = model_info(self.model).build(max(1, self.batch // self.num_cores))
        # Use the final operator's output as the exchanged tensor.
        last = graph.topo_order()[-1]
        bytes_exchanged = last.op.output_bytes * (self.num_cores - 1)
        seconds = bytes_exchanged / INTERCONNECT_BYTES_PER_S
        return self.core.seconds_to_cycles(seconds)

    def run(self, target_requests: int = 2) -> DataParallelResult:
        result = DataParallelResult(
            model=self.model,
            batch=self.batch,
            num_cores=self.num_cores,
            allgather_cycles=(
                self._allgather_cycles() if self.num_cores > 1 else 0.0
            ),
        )
        isa = scheme_isa(self.scheme)
        shard_batches = self.shard_batches()
        sims = []
        for core_index, shard_batch in enumerate(shard_batches):
            trace = build_trace(self.model, shard_batch, core=self.core)
            tenant = Tenant(
                tenant_id=0,
                name=f"{trace.abbrev}.shard{core_index}",
                graph=trace.compiled(isa),
                alloc_mes=self.alloc_mes,
                alloc_ves=self.alloc_ves,
                target_requests=target_requests,
            )
            sims.append(Simulator(
                self.core, make_scheduler(self.scheme), [tenant],
                record_ops=False,
            ))
        # Shards run on independent cores: co-step them as one batch.
        for core_index, sim_result in enumerate(run_simulators(sims)):
            result.shards.append(
                ShardResult(
                    core_index=core_index,
                    shard_batch=shard_batches[core_index],
                    latencies_cycles=sim_result.tenant(0).latencies_cycles,
                )
            )
        return result


def scaling_study(
    model: str,
    batch: int,
    core_counts: List[int],
    core: NpuCoreConfig,
    scheme: str = SCHEME_NEU10,
    target_requests: int = 2,
) -> Dict[int, DataParallelResult]:
    """Latency/throughput across data-parallel widths."""
    out: Dict[int, DataParallelResult] = {}
    for n in core_counts:
        if batch < n:
            continue
        vnpu = DataParallelVnpu(model, batch, n, core, scheme=scheme)
        out[n] = vnpu.run(target_requests=target_requests)
    return out


def parallel_efficiency(results: Dict[int, DataParallelResult]) -> Dict[int, float]:
    """Speedup(n) / n relative to the 1-core run."""
    if 1 not in results:
        raise ConfigError("scaling study needs the 1-core baseline")
    base = results[1].request_latency_cycles
    out: Dict[int, float] = {}
    for n, result in results.items():
        latency = result.request_latency_cycles
        if latency > 0:
            out[n] = (base / latency) / n
    return out
