"""Shared fixtures: small cores and toy workloads that keep tests fast."""

from __future__ import annotations

import pytest

import repro.compiler as comp
from repro.compiler.lowering import lower_graph_neuisa, lower_graph_vliw
from repro.config import NpuCoreConfig
from repro.sim.engine import Simulator, Tenant


@pytest.fixture
def spawned_pools(monkeypatch):
    """One pool worker per default-sweep point, and a log of the
    process pools spawned.

    ``CHUNK`` only sizes sweeps that name no backend or width: one pool
    worker per 64 points, so a small test sweep runs in-process.  With
    a chunk of one, such a sweep over two or more points really spans
    processes.  Tests assert the returned list is non-empty to prove
    that a fan-out left this process, or empty to prove it did not.
    """
    import repro.exec.base
    import repro.exec.pool

    monkeypatch.setattr(repro.exec.base, "CHUNK", 1)
    spawned = []
    real = repro.exec.pool.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        spawned.append(kwargs.get("max_workers"))
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.exec.pool, "ProcessPoolExecutor", counting_pool)
    return spawned


@pytest.fixture
def core() -> NpuCoreConfig:
    """The paper's Table II core (4 MEs, 4 VEs)."""
    return NpuCoreConfig()


@pytest.fixture
def small_core() -> NpuCoreConfig:
    """A 2ME/2VE core for scheduler micro-tests."""
    return NpuCoreConfig(num_mes=2, num_ves=2)


def make_me_graph(name: str = "me-toy", layers: int = 3) -> comp.Graph:
    """ME-dominated, compute-bound toy workload: large matmuls with
    SRAM-resident weights so HBM traffic stays negligible."""
    graph = comp.Graph(name)
    for i in range(layers):
        graph.add(
            comp.MatMul(
                f"{name}.mm{i}", m=1024, k=1024, n=1024,
                epilogue=[comp.ElementwiseKind.RELU],
                weights_streamed=False,
            )
        )
        # A small normalisation keeps a VE uTOp in every layer without
        # adding bandwidth-bound work (elementwise ops are HBM-hungry).
        graph.add(comp.LayerNorm(f"{name}.ln{i}", rows=64, cols=1024))
    return graph


def make_ve_graph(name: str = "ve-toy", layers: int = 3) -> comp.Graph:
    """VE/HBM-dominated toy workload: gathers and softmaxes plus a
    small matmul so both engine classes appear."""
    graph = comp.Graph(name)
    for i in range(layers):
        graph.add(
            comp.EmbeddingLookup(
                f"{name}.emb{i}", num_lookups=2048, dim=64,
                table_bytes=10**9,
            )
        )
        graph.add(comp.MatMul(f"{name}.mm{i}", m=64, k=128, n=128))
        graph.add(comp.Softmax(f"{name}.sm{i}", rows=2048, cols=64))
    return graph


@pytest.fixture
def me_graph() -> comp.Graph:
    return make_me_graph()


@pytest.fixture
def ve_graph() -> comp.Graph:
    return make_ve_graph()


def make_tenant(
    graph: comp.Graph,
    core: NpuCoreConfig,
    tenant_id: int = 0,
    isa: str = "neuisa",
    alloc_mes: int = 2,
    alloc_ves: int = 2,
    target_requests: int = 2,
    priority: float = 1.0,
) -> Tenant:
    if isa == "neuisa":
        compiled = lower_graph_neuisa(graph, core)
    else:
        compiled = lower_graph_vliw(graph, core, core.num_mes, core.num_ves)
    return Tenant(
        tenant_id=tenant_id,
        name=f"{graph.name}#{tenant_id}",
        graph=compiled,
        alloc_mes=alloc_mes,
        alloc_ves=alloc_ves,
        target_requests=target_requests,
        priority=priority,
    )


def run_sim(core: NpuCoreConfig, scheduler, tenants, **kwargs):
    sim = Simulator(core, scheduler, tenants, **kwargs)
    return sim.run()
