"""run_scenario / sweep_scenario: equivalence with the direct engines."""

from pathlib import Path

import pytest

from repro.api import (
    RunResult,
    Scenario,
    ScenarioChurn,
    ScenarioTenant,
    load_scenario,
    run_scenario,
    sweep_scenario,
    validate_run_result,
)
from repro.api.runner import cluster_inputs
from repro.cluster.autoscale import HostPoolSpec
from repro.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parents[2]

TENANTS = (
    ScenarioTenant(model="MNIST", batch=8),
    ScenarioTenant(model="DLRM", batch=8),
)


def test_open_loop_scenario_matches_direct_run():
    """The scenario layer is a veneer: results are bit-identical to
    calling the traffic engine directly."""
    from repro.traffic.openloop import (
        OpenLoopConfig,
        TrafficTenantSpec,
        run_open_loop,
    )

    scenario = Scenario(
        name="veneer", kind="open_loop", scheme="neu10",
        tenants=TENANTS, arrival="poisson", load=0.8,
        duration_s=0.0005, seed=7,
    )
    result = run_scenario(scenario)
    direct = run_open_loop(
        [TrafficTenantSpec(model="MNIST", batch=8),
         TrafficTenantSpec(model="DLRM", batch=8)],
        "neu10",
        OpenLoopConfig(duration_s=0.0005, load=0.8, arrival="poisson", seed=7),
    )
    assert result.metrics["simulated_cycles"] == direct.total_cycles
    assert result.metrics["min_attainment"] == direct.min_attainment
    by_name = {t["name"]: t for t in result.metrics["tenants"]}
    for rep in direct.reports:
        assert by_name[rep.name]["offered"] == rep.offered
        assert by_name[rep.name]["completed"] == rep.completed
        assert by_name[rep.name]["p95_latency_cycles"] == (
            rep.latency_percentiles(95.0)[0]
        )


def test_serving_scenario_matches_run_collocation():
    from repro.serving.server import ServingConfig, WorkloadSpec, run_collocation

    scenario = Scenario(
        name="pair", kind="serving", scheme="neu10",
        tenants=TENANTS, target_requests=3,
    )
    result = run_scenario(scenario)
    direct = run_collocation(
        [WorkloadSpec(model="MNIST", batch=8),
         WorkloadSpec(model="DLRM", batch=8)],
        "neu10",
        ServingConfig(target_requests=3),
    )
    assert result.metrics["simulated_cycles"] == direct.total_cycles
    assert result.metrics["pair"] == direct.pair
    assert [t["throughput_rps"] for t in result.metrics["tenants"]] == [
        t.throughput_rps for t in direct.tenants
    ]


def test_cluster_scenario_runs_and_validates():
    scenario = Scenario(
        name="mini-cluster", kind="cluster", scheme="neu10",
        load=0.5, duration_s=0.0005, seed=7, hosts=2,
        churn=(
            ScenarioChurn(0.0, "arrive", "a", model="MNIST", batch=8),
            ScenarioChurn(0.0, "arrive", "b", model="DLRM", batch=8),
        ),
    )
    result = run_scenario(scenario)
    validate_run_result(result.to_dict())
    assert result.metrics["segments"] >= 1
    assert result.metrics["simulated_cycles"] > 0
    assert 0.0 <= result.metrics["admission_rate"] <= 1.0


def test_figure_scenario_takes_the_registry_path():
    scenario = Scenario(
        name="figure-probe", kind="figure", figure="hwcost",
    )
    result = run_scenario(scenario)
    validate_run_result(result.to_dict())
    assert result.scenario == "figure-probe"
    assert result.metadata["figure"] == "hwcost"
    assert result.metrics["total_bytes"] > 0
    assert "scenario_digest" in result.provenance


def test_figure_scenario_unknown_figure_is_helpful():
    scenario = Scenario(name="x", kind="figure", figure="fig99")
    with pytest.raises(ConfigError, match="unknown figure experiment"):
        run_scenario(scenario)


def test_provenance_records_seed_version_and_digest():
    scenario = Scenario(
        name="prov", kind="open_loop", tenants=TENANTS[:1],
        duration_s=0.0002, seed=13,
    )
    result = run_scenario(scenario)
    assert result.provenance["seed"] == 13
    assert result.provenance["scenario_digest"] == scenario.digest()
    assert result.provenance["repro_version"]
    validate_run_result(result.to_dict())


def test_run_result_json_round_trip():
    scenario = Scenario(
        name="rt", kind="open_loop", tenants=TENANTS[:1],
        duration_s=0.0002,
    )
    result = run_scenario(scenario)
    clone = RunResult.from_dict(result.to_dict())
    assert clone == result


def test_sweep_matches_individual_runs(spawned_pools):
    """A sweep is exactly one run per variant, regardless of pool."""
    scenario = Scenario(
        name="sweepy", kind="open_loop", tenants=TENANTS,
        duration_s=0.0003, seed=7,
    )
    swept = sweep_scenario(scenario, param="load", values=[0.5, 1.0],
                           max_workers=2)
    assert spawned_pools, "the pooled sweep never left this process"
    for value, result in zip([0.5, 1.0], swept):
        solo = run_scenario(scenario.replaced(
            name=f"sweepy@load={value}", load=value
        ))
        assert result.metrics == solo.metrics
        assert result.metadata["load"] == value


def test_sweep_over_scheme_names():
    scenario = Scenario(
        name="schemes", kind="open_loop", tenants=TENANTS[:1],
        duration_s=0.0002, seed=7,
    )
    results = sweep_scenario(
        scenario, param="scheme", values=["pmt", "neu10"], max_workers=1
    )
    assert [r.scheme for r in results] == ["pmt", "neu10"]


def test_sweep_rejects_unknown_values_before_spawning():
    scenario = Scenario(
        name="bad", kind="open_loop", tenants=TENANTS[:1],
        duration_s=0.0002,
    )
    with pytest.raises(ConfigError, match="unknown scheduler scheme"):
        sweep_scenario(scenario, param="scheme", values=["neu11"])


# ----------------------------------------------------------------------
# cluster_inputs: the one place the ``hosts:`` spelling becomes a pool
# ----------------------------------------------------------------------
def test_cluster_inputs_pins_a_hosts_fleet():
    arrive = ScenarioChurn(time_s=0.0, action="arrive", name="a",
                           model="MNIST")
    _, cfg = cluster_inputs(
        Scenario(name="fixed", kind="cluster", hosts=3, churn=(arrive,))
    )
    assert cfg.pools == (
        HostPoolSpec("host", min_hosts=3, max_hosts=3, initial_hosts=3),
    )


def test_cluster_inputs_gives_an_autoscaled_hosts_fleet_headroom():
    scenario = load_scenario(
        REPO_ROOT / "examples/scenarios/adversarial/crash_mid_segment.yaml"
    )
    assert scenario.hosts == 3 and scenario.autoscaler is not None
    _, cfg = cluster_inputs(scenario)
    assert cfg.pools == (
        HostPoolSpec("host", min_hosts=1, max_hosts=6, initial_hosts=3),
    )


# ----------------------------------------------------------------------
# RunResult schema validation
# ----------------------------------------------------------------------
def _valid_payload():
    return {
        "scenario": "s", "kind": "open_loop", "scheme": "neu10",
        "metrics": {}, "metadata": {},
        "provenance": {"repro_version": "1.0.0"},
        "schema_version": 1,
    }


def test_validate_run_result_accepts_minimal_payload():
    validate_run_result(_valid_payload())


@pytest.mark.parametrize("mutate, match", [
    (lambda p: p.pop("metrics"), "metrics"),
    (lambda p: p.pop("scenario"), "scenario"),
    (lambda p: p.update(schema_version=99), "unsupported"),
    (lambda p: p.update(extra_key=1), "unexpected"),
    (lambda p: p["provenance"].pop("repro_version"), "repro_version"),
    (lambda p: p.update(scheme=3), "scheme"),
])
def test_validate_run_result_rejects_malformed(mutate, match):
    payload = _valid_payload()
    mutate(payload)
    with pytest.raises(ConfigError, match=match):
        validate_run_result(payload)
