"""Request conservation across the traffic engines.

The headline regression: an arrival drawn at exactly ``horizon_cycles``
is generated but never issued by the engine, so SLO reports built from
``result.offered_requests`` under-counted offered work -- systematic in
cluster segments, where the hypercall-cost hold clamps arrival times to
the segment end.  ``build_slo_report`` now accepts the generator-side
``offered`` count and takes the max.
"""

import pytest

from repro.api import run_scenario, sweep_scenario_report
from repro.api.scenario import Scenario, ScenarioChurn, ScenarioTenant
from repro.cluster.virt import VirtualizationSpec
from repro.llmserve.engine import LlmTenantSpec


def _open_loop(drain: bool, seed: int = 3) -> Scenario:
    return Scenario(
        name="cons-ol", kind="open_loop", scheme="neu10",
        tenants=(
            ScenarioTenant(model="MNIST", batch=8),
            ScenarioTenant(model="NCF", batch=4, weight=2.0),
        ),
        load=0.8, duration_s=0.001, seed=seed, drain=drain,
    )


def test_open_loop_drain_conserves_every_request():
    result = run_scenario(_open_loop(drain=True))
    for t in result.metrics["tenants"]:
        assert t["completed"] == t["offered"] > 0
        assert 0 <= t["attained"] <= t["completed"]


def test_open_loop_no_drain_never_overcounts():
    result = run_scenario(_open_loop(drain=False))
    for t in result.metrics["tenants"]:
        assert 0 <= t["attained"] <= t["completed"] <= t["offered"]
        if t["offered"]:
            assert abs(
                t["attainment"] - t["attained"] / t["offered"]
            ) < 1e-9


def test_slo_report_offered_override():
    """The report trusts the generator count when the engine issued
    fewer requests (the horizon-arrival leak), and never lowers it."""
    from repro.traffic.slo import build_slo_report

    result = run_scenario(_open_loop(drain=True))

    class _FakeResult:
        def __init__(self, inner):
            self._m = inner.metrics["tenants"][0]

        offered_requests = property(lambda self: self._m["offered"])
        completed_requests = property(lambda self: self._m["completed"])
        latencies_cycles = property(lambda self: [])
        queueing_cycles = property(lambda self: [])

    fake = _FakeResult(result)
    engine_offered = fake.offered_requests
    report = build_slo_report(
        "t", "neu10", 1000.0, fake, 0.001, offered=engine_offered + 1
    )
    assert report.offered == engine_offered + 1
    # The override is a floor, not a cap: a stale generator count can
    # never hide requests the engine demonstrably issued.
    report = build_slo_report(
        "t", "neu10", 1000.0, fake, 0.001, offered=0
    )
    assert report.offered == engine_offered


def test_cluster_hypercall_hold_conserves():
    """Cluster segments clamp held arrivals to the segment end -- the
    shape that leaked offered requests before the fix."""
    sc = Scenario(
        name="cons-cluster", kind="cluster", scheme="neu10",
        load=0.7, duration_s=0.002, seed=17, hosts=2,
        virtualization=VirtualizationSpec(
            num_vfs=4, hypercall_cost_s=0.0002,
        ),
        churn=(
            ScenarioChurn(0.0, "arrive", "a", model="MNIST", batch=4,
                          num_mes=2, num_ves=2),
            # Admitted late in the run: its onboarding hold pushes
            # arrivals right up against the final segment boundary.
            ScenarioChurn(0.0017, "arrive", "late", model="NCF", batch=4,
                          num_mes=2, num_ves=2),
        ),
    )
    result = run_scenario(sc)
    tenants = {t["name"]: t for t in result.metrics["tenants"]}
    assert "late" in tenants
    for t in result.metrics["tenants"]:
        assert 0 <= t["attained"] <= t["completed"] <= t["offered"]


def test_re_arriving_name_is_scored_per_window():
    """A name that departs and re-arrives with another model brings
    another SLO target.  Each window counts its own attained requests,
    so attainment and goodput must follow that count, not a rescan of
    every latency against the first window's target."""
    from repro.fuzz.invariants import check_conservation

    sc = Scenario(
        name="cons-rearrive", kind="cluster", scheme="neu10",
        load=1.2, duration_s=0.006, seed=1, hosts=2,
        churn=(
            ScenarioChurn(0.0, "arrive", "a", model="MNIST",
                          slo_relative=3.0),
            ScenarioChurn(0.0, "arrive", "b", model="NCF"),
            ScenarioChurn(0.002, "depart", "a"),
            ScenarioChurn(0.003, "arrive", "a", model="DLRM",
                          slo_relative=3.0),
        ),
    )
    result = run_scenario(sc)
    assert check_conservation(sc, result) == []
    tenants = {t["name"]: t for t in result.metrics["tenants"]}
    a = tenants["a"]
    assert (a["offered"], a["completed"], a["attained"]) == (242, 202, 27)
    assert a["attainment"] == 27 / 242
    for t in tenants.values():
        assert t["attainment"] == t["attained"] / t["offered"]
        # Goodput and throughput share the tenant's resident duration.
        duration_s = t["completed"] / t["throughput_rps"]
        assert t["goodput_rps"] == pytest.approx(t["attained"] / duration_s)


def test_llm_drain_conserves_per_tenant_and_headline():
    from repro.api.scenario import ScenarioLlm

    sc = Scenario(
        name="cons-llm", kind="llm", scheme="neu10",
        load=0.7, duration_s=0.001, seed=23, drain=True,
        llm=ScenarioLlm(
            tenants=(
                LlmTenantSpec(name="a", prompt_tokens=64,
                              decode_tokens=16),
                LlmTenantSpec(name="b", prompt_tokens=128,
                              decode_tokens=32, weight=2.0),
            ),
            batch_tokens=512, m_total=1024,
            step_overhead_cycles=2000.0, cycles_per_token=20.0,
        ),
    )
    result = run_scenario(sc)
    headline = result.metrics["requests"]
    per_tenant = result.metrics["tenants"]
    assert headline["completed"] == headline["arrived"]
    assert sum(t["arrived"] for t in per_tenant.values()) == (
        headline["arrived"]
    )
    assert sum(t["completed"] for t in per_tenant.values()) == (
        headline["completed"]
    )


def test_keep_going_sweep_accounts_for_every_point():
    """Executor failures must not lose sweep points: results plus
    structured failures always add up to the requested total, and the
    surviving results still conserve requests."""
    report = sweep_scenario_report(
        _open_loop(drain=True),
        param="arrival",
        values=["poisson", "trace", "bursty"],  # "trace" fails in-worker
        executor="serial", keep_going=True,
    )
    assert len(report.results) + len(report.failures) == report.total == 3
    assert len(report.failures) == 1
    for result in report.results:
        for t in result.metrics["tenants"]:
            assert t["completed"] == t["offered"]
