"""Tests for cluster hosts, placement policies and the orchestrator."""

import pytest

from repro.cluster import (
    ClusterOrchestrator,
    ContentionAwarePolicy,
    FirstFitPolicy,
    Host,
    LeastLoadedPolicy,
    PlacementRequest,
)
from repro.cluster.orchestrator import complementarity_score
from repro.cluster.virt import REJECT_CAPACITY
from repro.compiler.profiler import profile_graph
from repro.config import NpuCoreConfig
from repro.errors import AllocationError

from tests.conftest import make_me_graph, make_ve_graph

CORE = NpuCoreConfig()


def _hosts(n=2, cores_per_host=1):
    return [Host(f"host{i}", [CORE] * cores_per_host) for i in range(n)]


def _req(owner="t", mes=2, ves=2, m=None, v=None):
    return PlacementRequest(owner=owner, num_mes=mes, num_ves=ves, m=m, v=v)


# ----------------------------------------------------------------------
# Host capacity
# ----------------------------------------------------------------------
def test_host_capacity_accounting():
    host = _hosts(1)[0]
    assert host.total_mes == 4 and host.total_ves == 4
    host.place(_req(mes=2, ves=2).as_vnpu_config(), owner="a")
    assert host.committed_mes == 2
    assert host.load == pytest.approx(0.5)
    assert host.fits(2, 2)
    assert not host.fits(3, 1)


def test_host_release_restores_capacity():
    host = _hosts(1)[0]
    handle = host.place(_req(mes=4, ves=4).as_vnpu_config(), owner="a")
    assert not host.fits(1, 1)
    host.release(handle.vnpu_id)
    assert host.fits(4, 4)
    with pytest.raises(AllocationError):
        host.release(handle.vnpu_id)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def test_first_fit_packs_densely():
    orch = ClusterOrchestrator(_hosts(2), FirstFitPolicy())
    a = orch.submit(_req("a", 2, 2))
    b = orch.submit(_req("b", 2, 2))
    assert a.host.name == b.host.name == "host0"


def test_least_loaded_spreads():
    orch = ClusterOrchestrator(_hosts(2), LeastLoadedPolicy())
    a = orch.submit(_req("a", 2, 2))
    b = orch.submit(_req("b", 2, 2))
    assert {a.host.name, b.host.name} == {"host0", "host1"}


def test_contention_aware_pairs_complementary_profiles():
    """Two ME-heavy and two VE-heavy tenants on two hosts: the policy
    must put one of each on each host."""
    orch = ClusterOrchestrator(_hosts(2), ContentionAwarePolicy())
    orch.submit(_req("me1", 2, 2, m=0.95, v=0.1))
    orch.submit(_req("ve1", 2, 2, m=0.1, v=0.95))
    orch.submit(_req("me2", 2, 2, m=0.95, v=0.1))
    orch.submit(_req("ve2", 2, 2, m=0.1, v=0.95))
    colocation = orch.collocation_map()
    for owners in colocation.values():
        kinds = {o[:2] for o in owners}
        assert kinds == {"me", "ve"}


def test_contention_aware_beats_first_fit_on_complementarity():
    profiles = [(0.95, 0.1), (0.9, 0.15), (0.1, 0.95), (0.15, 0.9)]

    def run(policy):
        orch = ClusterOrchestrator(_hosts(2), policy)
        for i, (m, v) in enumerate(profiles):
            orch.submit(_req(f"w{i}", 2, 2, m=m, v=v))
        pairs = []
        for owners in orch.collocation_map().values():
            ms = [profiles[int(o[1:])][0] for o in owners]
            if len(ms) == 2:
                pairs.append((ms[0], ms[1]))
        return complementarity_score(pairs)

    assert run(ContentionAwarePolicy()) <= run(FirstFitPolicy())


def test_policy_admission_requires_capacity():
    orch = ClusterOrchestrator(_hosts(1), FirstFitPolicy())
    assert orch.submit(_req("a", 4, 4)) is not None
    assert orch.submit(_req("b", 1, 1)) is None
    assert orch.admission_rate() == pytest.approx(0.5)
    assert len(orch.rejected) == 1


# ----------------------------------------------------------------------
# Orchestrator lifecycle
# ----------------------------------------------------------------------
def test_release_then_reuse():
    orch = ClusterOrchestrator(_hosts(1), FirstFitPolicy())
    placement = orch.submit(_req("a", 4, 4))
    orch.release(placement.request.request_id)
    assert orch.submit(_req("b", 4, 4)) is not None
    with pytest.raises(AllocationError):
        orch.release(placement.request.request_id)


def test_each_orchestrator_numbers_its_own_requests_from_one():
    first = ClusterOrchestrator(_hosts(1), FirstFitPolicy())
    second = ClusterOrchestrator(_hosts(1), FirstFitPolicy())
    request = _req("a", 4, 4)
    assert request.request_id is None  # stamped on submit
    a = first.submit(request)
    b = second.submit(_req("b", 4, 4))
    rejected = _req("c", 4, 4)
    assert first.submit(rejected) is None
    assert [a.request.request_id, b.request.request_id] == [1, 1]
    assert first.rejection_causes == {2: REJECT_CAPACITY}
    assert rejected.request_id == 2


def test_each_host_numbers_its_own_vnpus_from_one():
    first, second = _hosts(2)
    config = _req(mes=1, ves=1).as_vnpu_config()
    ids = [
        first.place(config, owner="a").vnpu_id,
        second.place(config, owner="b").vnpu_id,
        first.place(config, owner="c").vnpu_id,
    ]
    assert ids == [1, 1, 2]
    assert sorted(first.resident) == [1, 2]
    assert sorted(second.resident) == [1]


def test_from_profile_uses_allocator():
    me_profile = profile_graph(make_me_graph(), CORE)
    ve_profile = profile_graph(make_ve_graph(), CORE)
    me_req = PlacementRequest.from_profile("me", me_profile, total_eus=4)
    ve_req = PlacementRequest.from_profile("ve", ve_profile, total_eus=4)
    assert me_req.num_mes > me_req.num_ves
    assert ve_req.num_ves >= ve_req.num_mes
    assert me_req.m == pytest.approx(me_profile.m)


def test_duplicate_host_names_rejected():
    with pytest.raises(AllocationError):
        ClusterOrchestrator([Host("h", [CORE]), Host("h", [CORE])])


def test_utilization_snapshot():
    orch = ClusterOrchestrator(_hosts(2), LeastLoadedPolicy())
    orch.submit(_req("a", 4, 4))
    util = orch.utilization()
    assert util["host0"] + util["host1"] == pytest.approx(1.0)
