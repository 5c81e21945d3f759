"""Cross-module integration tests.

Covers the paper's end-to-end flows: profile -> allocate -> place ->
simulate, inter-generational NeuISA compatibility (SectionIV), and
consistency between the analytical allocator and the simulator.
"""

import pytest

from repro.compiler.lowering import lower_graph_neuisa
from repro.compiler.profiler import profile_graph
from repro.config import NpuCoreConfig
from repro.core.allocator import VnpuAllocator, utilization
from repro.core.mapper import MappingMode
from repro.runtime.driver import VnpuDriver
from repro.runtime.hypervisor import Hypervisor
from repro.runtime.vm import GuestVm
from repro.serving.server import ServingConfig, WorkloadSpec, run_collocation
from repro.sim.engine import Simulator, Tenant
from repro.sim.sched_static import StaticPartitionScheduler

from tests.conftest import make_me_graph, make_ve_graph

CORE = NpuCoreConfig()


# ----------------------------------------------------------------------
# Inter-generational compatibility (paper SectionIV)
# ----------------------------------------------------------------------
def test_neuisa_binary_runs_on_any_engine_count():
    """One NeuISA compilation executes unmodified on cores with 1, 2, 4
    and 8 MEs -- 'NeuISA enables a DNN program to run on different
    numbers of MEs/VEs without recompilation'."""
    graph = make_me_graph(layers=2)
    compiled = lower_graph_neuisa(graph, CORE)  # compiled once, nx = 4
    latencies = {}
    for mes in (1, 2, 4, 8):
        core = CORE.with_engines(mes, 4)
        tenant = Tenant(0, "w", compiled, alloc_mes=mes, alloc_ves=4,
                        target_requests=1)
        result = Simulator(core, StaticPartitionScheduler(), [tenant]).run()
        latencies[mes] = result.tenant(0).mean_latency
    # More engines -> monotonically faster, up to the compiled tiling.
    assert latencies[2] < latencies[1]
    assert latencies[4] < latencies[2]
    # Beyond the compiled uTOp count (4) there is nothing more to run.
    assert latencies[8] == pytest.approx(latencies[4])


def test_vliw_binary_is_not_portable():
    """The contrast: a VLIW binary compiled for 4 MEs cannot run on a
    2-ME core at all (the coupled block does not fit)."""
    from repro.compiler.lowering import lower_graph_vliw
    from repro.errors import SimulationError
    from repro.baselines.pmt import PmtScheduler

    graph = make_me_graph(layers=1)
    compiled = lower_graph_vliw(graph, CORE, num_mes=4, num_ves=4)
    core = CORE.with_engines(2, 4)
    tenant = Tenant(0, "w", compiled, alloc_mes=2, alloc_ves=4,
                    target_requests=1)
    sim = Simulator(core, PmtScheduler(), [tenant])
    with pytest.raises(SimulationError):
        sim.run()  # deadlock: the 4-wide op never fits 2 engines


# ----------------------------------------------------------------------
# Allocator vs simulator consistency
# ----------------------------------------------------------------------
def test_allocator_prediction_matches_simulated_ranking():
    """Eq. 2's utilisation ranking must agree with simulated latency
    ranking across ME/VE splits for an ME-heavy workload."""
    graph = make_me_graph()
    profile = profile_graph(graph, CORE)
    compiled = lower_graph_neuisa(graph, CORE)
    sim_latency = {}
    for nm, nv in [(1, 3), (2, 2), (3, 1)]:
        tenant = Tenant(0, "w", compiled, alloc_mes=nm, alloc_ves=nv,
                        target_requests=1)
        result = Simulator(CORE, StaticPartitionScheduler(), [tenant]).run()
        sim_latency[(nm, nv)] = result.tenant(0).mean_latency
    predicted = {
        cfg: utilization(profile.m, profile.v, *cfg) for cfg in sim_latency
    }
    best_predicted = max(predicted, key=lambda c: predicted[c])
    assert best_predicted == (3, 1)
    # The predicted-best config must be simulated (co-)best.  Exact
    # strict ordering can tie because uTOp counts quantise into waves
    # (4 tiles on 3 engines take the same 2 waves as on 2 engines).
    assert sim_latency[best_predicted] == pytest.approx(
        min(sim_latency.values())
    )
    # And the ranking extremes agree strictly.
    assert sim_latency[(3, 1)] < sim_latency[(1, 3)]


# ----------------------------------------------------------------------
# Control plane -> data plane
# ----------------------------------------------------------------------
def test_full_stack_provision_and_serve():
    """Profile two workloads, provision vNPUs through the hypervisor,
    then run the collocation the placement implies."""
    hv = Hypervisor([CORE], mode=MappingMode.SPATIAL)
    profiles = {
        "me": profile_graph(make_me_graph(), CORE),
        "ve": profile_graph(make_ve_graph(), CORE),
    }
    handles = {}
    for name, profile in profiles.items():
        driver = VnpuDriver(GuestVm(name), hv)
        allocator = VnpuAllocator(CORE)
        result = allocator.allocate(profile, total_eus=4)
        handles[name] = driver.open(result.as_vnpu_config())
    me_cfg = handles["me"].config
    ve_cfg = handles["ve"].config
    # Complementary splits on one physical core.
    assert me_cfg.num_mes_per_core + ve_cfg.num_mes_per_core <= CORE.num_mes
    assert me_cfg.num_mes_per_core > ve_cfg.num_mes_per_core

    pair = run_collocation(
        [
            WorkloadSpec("MNIST", 8, alloc_mes=me_cfg.num_mes_per_core,
                         alloc_ves=me_cfg.num_ves_per_core),
            WorkloadSpec("DLRM", 8, alloc_mes=ve_cfg.num_mes_per_core,
                         alloc_ves=ve_cfg.num_ves_per_core),
        ],
        "neu10",
        ServingConfig(target_requests=2),
    )
    assert all(t.completed_requests >= 2 for t in pair.tenants)


def test_cli_lists_experiments(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig19" in out and "hwcost" in out
    assert cli_main(["fig", "no-such-experiment"]) == 2


def test_cli_runs_fast_experiment(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["fig", "hwcost"]) == 0
    out = capsys.readouterr().out
    assert "uTOp scheduler" in out
