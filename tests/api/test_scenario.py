"""Scenario spec: round-trips, validation errors, sweep variants."""

import pytest

from repro.api import (
    Scenario,
    ScenarioChurn,
    ScenarioTenant,
    SweepSpec,
    load_scenario,
    load_scenarios,
    parse_scenarios,
    save_scenario,
    sweep_variants,
)
from repro.errors import ConfigError


def _open_loop_scenario() -> Scenario:
    return Scenario(
        name="rt-open-loop",
        kind="open_loop",
        description="round-trip probe",
        scheme="neu10",
        tenants=(
            ScenarioTenant(model="MNIST", batch=8),
            ScenarioTenant(model="DLRM", batch=4, weight=2.0,
                           slo_relative=8.0, arrival="bursty"),
        ),
        arrival="poisson",
        load=0.9,
        duration_s=0.001,
        seed=11,
        hardware={"num_mes": 8, "num_ves": 8},
        sweep=SweepSpec(param="load", values=(0.5, 0.9)),
    )


def _cluster_scenario() -> Scenario:
    return Scenario(
        name="rt-cluster",
        kind="cluster",
        scheme="neu10-nh",
        load=0.5,
        duration_s=0.002,
        hosts=3,
        churn=(
            ScenarioChurn(0.0, "arrive", "a", model="MNIST", batch=8),
            ScenarioChurn(0.001, "depart", "a"),
        ),
    )


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [_open_loop_scenario, _cluster_scenario])
def test_dict_round_trip(make):
    scenario = make()
    assert Scenario.from_dict(scenario.to_dict()) == scenario


@pytest.mark.parametrize("make", [_open_loop_scenario, _cluster_scenario])
def test_json_round_trip(make):
    scenario = make()
    assert Scenario.from_json(scenario.to_json()) == scenario


@pytest.mark.parametrize("make", [_open_loop_scenario, _cluster_scenario])
def test_yaml_round_trip(make):
    pytest.importorskip("yaml")
    scenario = make()
    assert Scenario.from_yaml(scenario.to_yaml()) == scenario


def test_digest_is_stable_and_content_sensitive():
    a, b = _open_loop_scenario(), _open_loop_scenario()
    assert a.digest() == b.digest()
    assert a.digest() != a.replaced(load=1.1).digest()


def test_save_and_load_files(tmp_path):
    pytest.importorskip("yaml")
    scenario = _open_loop_scenario()
    ypath = tmp_path / "one.yaml"
    save_scenario(scenario, ypath)
    assert load_scenario(ypath) == scenario
    jpath = tmp_path / "one.json"
    save_scenario(scenario, jpath)
    assert load_scenario(jpath) == scenario


def test_multi_document_yaml_file(tmp_path):
    pytest.importorskip("yaml")
    a, b = _open_loop_scenario(), _cluster_scenario()
    path = tmp_path / "many.yaml"
    path.write_text(a.to_yaml() + "---\n" + b.to_yaml(), encoding="utf-8")
    assert load_scenarios(path) == [a, b]
    assert load_scenario(path, name="rt-cluster") == b
    with pytest.raises(ConfigError, match="pick one by name"):
        load_scenario(path)
    with pytest.raises(ConfigError, match="no scenario named"):
        load_scenario(path, name="missing")


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_scenarios(tmp_path / "nope.yaml")


# ----------------------------------------------------------------------
# Validation errors
# ----------------------------------------------------------------------
def test_unknown_scenario_key_lists_known_keys():
    with pytest.raises(ConfigError, match="unknown scenario key.*known"):
        Scenario.from_dict(
            {"name": "x", "kind": "open_loop", "tenant_list": []}
        )


def test_unknown_tenant_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown tenant key"):
        Scenario.from_dict({
            "name": "x", "kind": "open_loop",
            "tenants": [{"model": "MNIST", "batchsize": 8}],
        })


_CLUSTER = (
    "name: c\nkind: cluster\nchurn:\n"
    "  - {time_s: 0.0, action: arrive, name: a, model: MNIST}\n"
)

#: Scenario files that used to escape as a ``TypeError`` or
#: ``ValueError`` traceback, each with the message that now names what
#: is wrong.
MALFORMED = {
    "churn-without-name": (
        "name: c\nkind: cluster\nchurn:\n"
        "  - {time_s: 0.0, action: arrive, model: MNIST}\n",
        r"churn event missing required key\(s\) \['name'\]",
    ),
    "tenant-without-model": (
        "name: t\nkind: open_loop\ntenants:\n  - {batch: 8}\n",
        r"tenant missing required key\(s\) \['model'\]",
    ),
    "fault-without-kind": (
        _CLUSTER + "faults:\n  - {time_s: 0.0005}\n",
        r"fault missing required key\(s\) \['kind'\]",
    ),
    "load-not-a-number": (
        "name: l\nkind: open_loop\nload: high\n"
        "tenants:\n  - {model: MNIST}\n",
        "scenario 'l' is malformed",
    ),
    "tenants-not-a-list": (
        "name: n\nkind: open_loop\ntenants: 5\n",
        "scenario key 'tenants' must be a list of mappings, got int",
    ),
    "pools-not-a-list": (
        _CLUSTER + "pools: 3\n",
        "scenario key 'pools' must be a list of mappings, got int",
    ),
    "virtualization-not-a-mapping": (
        _CLUSTER + "virtualization: on\n",
        "scenario key 'virtualization' must be a mapping, got bool",
    ),
    "executor-not-a-mapping": (
        _CLUSTER + "executor: pool\n",
        "scenario key 'executor' must be a mapping, got str",
    ),
    "checkpoint-not-a-mapping": (
        _CLUSTER + "checkpoint: /tmp/x\n",
        "scenario key 'checkpoint' must be a mapping, got str",
    ),
    "autoscaler-not-a-mapping": (
        _CLUSTER + "autoscaler: threshold\n",
        "scenario key 'autoscaler' must be a mapping, got str",
    ),
    "sweep-not-a-mapping": (
        _CLUSTER + "sweep: seed\n",
        "scenario key 'sweep' must be a mapping, got str",
    ),
    "hardware-not-a-mapping": (
        _CLUSTER + "hardware: fast\n",
        "scenario key 'hardware' must be a mapping, got str",
    ),
    "params-not-a-mapping": (
        _CLUSTER + "params: x\n",
        "scenario key 'params' must be a mapping, got str",
    ),
    "autoscaler-params-not-a-mapping": (
        _CLUSTER + "autoscaler: {policy: threshold, params: x}\n",
        "autoscaler key 'params' must be a mapping, got str",
    ),
    "llm-tenants-not-a-list": (
        "name: m\nkind: llm\nllm: {tenants: 3}\n",
        "llm key 'tenants' must be a list of mappings, got int",
    ),
}


@pytest.mark.parametrize(
    "text, message", MALFORMED.values(), ids=MALFORMED.keys()
)
def test_malformed_scenario_is_a_config_error(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_scenarios(text)


@pytest.mark.parametrize(
    "text, message", MALFORMED.values(), ids=MALFORMED.keys()
)
def test_run_reports_a_malformed_scenario_without_a_traceback(
    text, message, tmp_path, capsys
):
    from repro.cli import main as cli_main

    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["run", str(path), "--json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_unknown_kind_lists_choices():
    with pytest.raises(ConfigError, match="unknown scenario kind.*figure"):
        Scenario(name="x", kind="closed_loop")


def test_unknown_hardware_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown hardware key"):
        Scenario(
            name="x", kind="open_loop",
            tenants=(ScenarioTenant(model="MNIST"),),
            hardware={"num_engines": 4},
        )


def test_validate_rejects_unknown_scheme_and_model():
    sc = Scenario(
        name="x", kind="open_loop", scheme="neu11",
        tenants=(ScenarioTenant(model="MNIST"),),
    )
    with pytest.raises(ConfigError, match="did you mean 'neu10'"):
        sc.validate()
    sc = Scenario(
        name="x", kind="open_loop",
        tenants=(ScenarioTenant(model="MNISTY"),),
    )
    with pytest.raises(ConfigError, match="unknown model"):
        sc.validate()


def test_kind_shape_requirements():
    with pytest.raises(ConfigError, match="at least one tenant"):
        Scenario(name="x", kind="serving")
    with pytest.raises(ConfigError, match="churn"):
        Scenario(name="x", kind="cluster")
    with pytest.raises(ConfigError, match="'figure' name"):
        Scenario(name="x", kind="figure")


def test_hardware_override_builds_core():
    sc = _open_loop_scenario()
    core = sc.core()
    assert (core.num_mes, core.num_ves) == (8, 8)


# ----------------------------------------------------------------------
# Sweep variants
# ----------------------------------------------------------------------
def test_sweep_variants_from_embedded_block():
    variants = sweep_variants(_open_loop_scenario())
    assert [v.load for v in variants] == [0.5, 0.9]
    assert [v.name for v in variants] == [
        "rt-open-loop@load=0.5", "rt-open-loop@load=0.9",
    ]
    assert all(v.sweep is None for v in variants)


def test_sweep_variants_override_and_dotted_hardware():
    variants = sweep_variants(
        _open_loop_scenario(), param="hardware.num_mes", values=[2, 4]
    )
    assert [v.core().num_mes for v in variants] == [2, 4]
    # Untouched hardware keys survive the dotted override.
    assert all(v.core().num_ves == 8 for v in variants)


def test_sweep_values_override_block_values():
    # --values without --param reuses the block's param.
    variants = sweep_variants(_open_loop_scenario(), values=[0.7])
    assert [v.load for v in variants] == [0.7]


def test_sweep_param_matching_block_reuses_block_values():
    variants = sweep_variants(_open_loop_scenario(), param="load")
    assert [v.load for v in variants] == [0.5, 0.9]


def test_sweep_param_mismatching_block_needs_values():
    with pytest.raises(ConfigError, match="needs explicit values"):
        sweep_variants(_open_loop_scenario(), param="seed")


def test_sweep_without_block_or_param_is_an_error():
    sc = _cluster_scenario()
    with pytest.raises(ConfigError, match="no sweep block"):
        sweep_variants(sc)


def test_sweep_unknown_param_is_an_error():
    with pytest.raises(ConfigError, match="unknown scenario field"):
        sweep_variants(_open_loop_scenario(), param="laod", values=[1])


# ----------------------------------------------------------------------
# Checkpoint block
# ----------------------------------------------------------------------
def test_checkpoint_block_round_trips():
    from repro.api import ScenarioCheckpoint

    scenario = _cluster_scenario().replaced(
        checkpoint=ScenarioCheckpoint(directory="/tmp/ck", every=3)
    )
    back = Scenario.from_dict(scenario.to_dict())
    assert back == scenario
    assert back.checkpoint.directory == "/tmp/ck"
    assert back.checkpoint.every == 3
    assert back.digest() == scenario.digest()


def test_checkpoint_block_rejected_on_non_cluster_kinds():
    from repro.api import ScenarioCheckpoint

    with pytest.raises(ConfigError, match="checkpoint"):
        _open_loop_scenario().replaced(
            checkpoint=ScenarioCheckpoint(directory="/tmp/ck")
        )


def test_checkpoint_block_validates_fields():
    from repro.api import ScenarioCheckpoint

    with pytest.raises(ConfigError):
        ScenarioCheckpoint(directory="")
    with pytest.raises(ConfigError):
        ScenarioCheckpoint(directory="/tmp/ck", every=0)


def test_checkpoint_block_is_stripped_from_sweep_variants():
    from repro.api import ScenarioCheckpoint

    scenario = _cluster_scenario().replaced(
        checkpoint=ScenarioCheckpoint(directory="/tmp/ck"),
        sweep=SweepSpec(param="load", values=(0.4, 0.6)),
    )
    for variant in sweep_variants(scenario):
        assert variant.checkpoint is None
