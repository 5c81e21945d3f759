"""The ``virtualization:`` scenario block: round-trip, validation,
runner metric gating, and the CLI surface."""

import json

import pytest

from repro.api import (
    Scenario,
    ScenarioChurn,
    ScenarioTenant,
    run_scenario,
)
from repro.cli import main as cli_main
from repro.cluster.autoscale import HostPoolSpec
from repro.cluster.virt import VirtualizationSpec
from repro.errors import ConfigError


def _cluster_scenario(virtualization=None, **overrides):
    params = dict(
        name="virt",
        kind="cluster",
        scheme="neu10",
        load=0.5,
        duration_s=0.0005,
        seed=3,
        pools=(HostPoolSpec(name="pool", min_hosts=2, max_hosts=2,
                            initial_hosts=2),),
        churn=tuple(
            ScenarioChurn(0.0, "arrive", f"t{i}", model="MNIST",
                          num_mes=1, num_ves=1)
            for i in range(6)
        ),
        virtualization=virtualization,
    )
    params.update(overrides)
    return Scenario(**params)


# ----------------------------------------------------------------------
# Round-trip + validation
# ----------------------------------------------------------------------
def test_virtualization_block_round_trips():
    sc = _cluster_scenario(VirtualizationSpec(
        num_vfs=2, pool_num_vfs={"pool": 2}, hypercall_cost_s=1e-5,
    ))
    assert Scenario.from_yaml(sc.to_yaml()) == sc
    assert Scenario.from_json(sc.to_json()) == sc
    assert sc.to_dict()["virtualization"] == {
        "num_vfs": 2, "pool_num_vfs": {"pool": 2}, "hypercall_cost_s": 1e-5,
    }


def test_default_block_round_trips_and_stays_distinct_from_absent():
    enabled = _cluster_scenario(VirtualizationSpec())
    disabled = _cluster_scenario(None)
    assert Scenario.from_yaml(enabled.to_yaml()) == enabled
    assert enabled != disabled
    assert enabled.digest() != disabled.digest()
    assert "virtualization" not in disabled.to_dict()


def test_virtualization_only_for_cluster_kind():
    with pytest.raises(ConfigError, match="kind: cluster"):
        Scenario(
            name="x", kind="open_loop",
            tenants=(ScenarioTenant(model="MNIST"),),
            virtualization=VirtualizationSpec(),
        )


def test_pool_overrides_validated_against_declared_pools():
    with pytest.raises(ConfigError, match="unknown pool"):
        _cluster_scenario(VirtualizationSpec(pool_num_vfs={"ghost": 2}))
    with pytest.raises(ConfigError, match="needs explicit 'pools'"):
        _cluster_scenario(
            VirtualizationSpec(pool_num_vfs={"pool": 2}), pools=(),
        )


def test_block_value_validation_matches_cluster_layer():
    with pytest.raises(ConfigError):
        VirtualizationSpec(num_vfs=0)
    with pytest.raises(ConfigError):
        VirtualizationSpec(hypercall_cost_s=-1.0)
    with pytest.raises(ConfigError, match="unknown virtualization key"):
        Scenario.from_dict({
            "name": "x", "kind": "cluster",
            "churn": [{"time_s": 0.0, "action": "arrive", "name": "t",
                       "model": "MNIST"}],
            "virtualization": {"vfs": 4},
        })


# ----------------------------------------------------------------------
# Runner gating
# ----------------------------------------------------------------------
def test_runner_reports_virtualization_only_when_configured():
    plain = run_scenario(_cluster_scenario(None))
    assert "virtualization" not in plain.metrics
    assert "virtualization" not in plain.metadata
    assert "cluster_attainment" not in plain.metrics

    virt = run_scenario(_cluster_scenario(
        VirtualizationSpec(num_vfs=2, hypercall_cost_s=5e-5)
    ))
    block = virt.metrics["virtualization"]
    assert block["hypercalls"]["create"] == 4
    assert block["vf_exhaustion_rejections"] == 2
    assert block["peak_vf_in_use"] == 4
    assert block["onboarding_delay_s"] == pytest.approx(4 * 5e-5)
    assert virt.metrics["cluster_attainment"] >= 0.0
    assert virt.metadata["virtualization"] == {
        "num_vfs": 2, "pool_num_vfs": {}, "hypercall_cost_s": 5e-5,
    }
    # The spec digest distinguishes the two runs.
    assert (
        virt.provenance["scenario_digest"]
        != plain.provenance["scenario_digest"]
    )


def test_runner_result_json_round_trips(tmp_path):
    result = run_scenario(_cluster_scenario(
        VirtualizationSpec(num_vfs=2)
    ))
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["metrics"]["virtualization"]["vf_exhaustion_rejections"] == 2


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_list_shows_virtualization(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "virtualization:" in out
    assert "num_vfs" in out and "hypercall_cost_s" in out


def test_cli_list_json_describes_the_block(capsys):
    assert cli_main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["virtualization"]) == {
        "num_vfs", "pool_num_vfs", "hypercall_cost_s",
    }


def test_field_doc_table_matches_the_dataclass():
    """`repro list` and gen_docs render VIRTUALIZATION_FIELD_DOCS; a
    new VirtualizationSpec field must land there too."""
    import dataclasses

    from repro.api import VIRTUALIZATION_FIELD_DOCS

    assert set(VIRTUALIZATION_FIELD_DOCS) == {
        f.name for f in dataclasses.fields(VirtualizationSpec)
    }


def test_cli_run_json_reports_virtualization(tmp_path, capsys):
    sc = _cluster_scenario(VirtualizationSpec(num_vfs=2))
    path = tmp_path / "virt.json"
    path.write_text(sc.to_json(), encoding="utf-8")
    assert cli_main(["run", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    virt = payload["metrics"]["virtualization"]
    assert virt["hypercall_total"] == 4
    assert virt["vf_exhaustion_rejections"] == 2
    assert virt["vf_occupancy_timeline"] == [[0.0, 4, 4]]
