"""Scenario `autoscaler:`/`pools:` blocks: round-trip, runner, results."""

import json

import pytest

from repro.api import (
    Scenario,
    ScenarioAutoscaler,
    ScenarioChurn,
    ScenarioTenant,
    run_scenario,
    sweep_scenario,
    validate_run_result,
)
from repro.cluster.autoscale import HostPoolSpec
from repro.errors import ConfigError

pytest.importorskip("yaml")


def _cluster_scenario(**overrides):
    fields = dict(
        name="autoscale-rt",
        kind="cluster",
        scheme="neu10",
        arrival="poisson",
        load=0.5,
        duration_s=0.001,
        seed=13,
        churn=(
            ScenarioChurn(0.0, "arrive", "a", model="MNIST",
                          num_mes=1, num_ves=1),
            ScenarioChurn(0.0, "arrive", "b", model="MNIST",
                          num_mes=1, num_ves=1),
        ),
        pools=(HostPoolSpec(name="default", min_hosts=1, max_hosts=3,
                            initial_hosts=1),),
        autoscaler=ScenarioAutoscaler(
            policy="slo-burn-rate",
            interval_s=0.00025,
            params={"slo_target": 0.75},
        ),
    )
    fields.update(overrides)
    return Scenario(**fields)


def test_yaml_and_json_round_trip_preserve_autoscaler_block():
    scenario = _cluster_scenario()
    assert Scenario.from_yaml(scenario.to_yaml()) == scenario
    assert Scenario.from_json(scenario.to_json()) == scenario
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    # The digest is stable across a round trip (provenance anchor).
    assert Scenario.from_yaml(scenario.to_yaml()).digest() == \
        scenario.digest()


def test_autoscaler_absent_keeps_legacy_serialisation():
    scenario = _cluster_scenario(autoscaler=None, pools=())
    payload = scenario.to_dict()
    assert "autoscaler" not in payload
    assert "pools" not in payload


def test_autoscaler_only_on_cluster_kind():
    with pytest.raises(ConfigError, match="cluster"):
        Scenario(
            name="x", kind="open_loop",
            tenants=(ScenarioTenant(model="MNIST"),),
            autoscaler=ScenarioAutoscaler(policy="static"),
        )


def test_unknown_policy_fails_validation_with_suggestion():
    scenario = _cluster_scenario(
        autoscaler=ScenarioAutoscaler(policy="slo-burn")
    )
    with pytest.raises(ConfigError, match="slo-burn-rate"):
        scenario.validate()


def test_bad_autoscaler_blocks_rejected():
    with pytest.raises(ConfigError):
        ScenarioAutoscaler(policy="")
    with pytest.raises(ConfigError):
        ScenarioAutoscaler(policy="static", interval_s=0.0)
    with pytest.raises(ConfigError, match="unique"):
        _cluster_scenario(
            pools=(HostPoolSpec(name="p"), HostPoolSpec(name="p"))
        )


def test_run_scenario_emits_autoscale_metrics_and_validates():
    result = run_scenario(_cluster_scenario())
    payload = json.loads(result.to_json())
    validate_run_result(payload)
    metrics = payload["metrics"]
    for key in ("cluster_attainment", "mean_active_hosts",
                "host_count_timeline", "autoscale_events"):
        assert key in metrics, key
    assert payload["metadata"]["autoscaler"]["policy"] == "slo-burn-rate"
    assert payload["metadata"]["autoscaler"]["slo_target"] == 0.75
    assert payload["metadata"]["pools"][0]["max_hosts"] == 3


def test_run_scenario_without_autoscaler_omits_autoscale_metrics():
    result = run_scenario(_cluster_scenario(autoscaler=None, pools=()))
    for key in ("cluster_attainment", "mean_active_hosts",
                "host_count_timeline", "autoscale_events"):
        assert key not in result.metrics, key
    assert "autoscaler" not in result.metadata


def test_sweep_preserves_autoscaler_block_per_variant():
    results = sweep_scenario(
        _cluster_scenario(), param="load", values=[0.4, 0.6], max_workers=1
    )
    assert len(results) == 2
    for result in results:
        assert result.metadata["autoscaler"]["policy"] == "slo-burn-rate"
        validate_run_result(result.to_dict())
