"""The ``faults:`` scenario block: round-trip, validation, kind gating,
runner stamping, docs pinning, and the CLI surface."""

import json

import pytest

from repro.api import (
    FAULT_FIELD_DOCS,
    Scenario,
    ScenarioChurn,
    run_scenario,
)
from repro.cli import main as cli_main
from repro.cluster.virt import FaultSpec
from repro.errors import ConfigError
from repro.llmserve.engine import LlmTenantSpec


def _cluster_scenario(faults=(), **overrides):
    params = dict(
        name="faulty",
        kind="cluster",
        scheme="neu10",
        load=0.5,
        duration_s=0.002,
        seed=3,
        hosts=2,
        churn=(
            ScenarioChurn(0.0, "arrive", "a", model="MNIST", batch=4,
                          num_mes=2, num_ves=2),
            ScenarioChurn(0.0, "arrive", "b", model="NCF", batch=4,
                          num_mes=2, num_ves=2),
        ),
        faults=faults,
    )
    params.update(overrides)
    return Scenario(**params)


# ----------------------------------------------------------------------
# Round-trip + validation
# ----------------------------------------------------------------------
def test_faults_round_trip_yaml_json_digest():
    sc = _cluster_scenario((
        FaultSpec(kind="host-crash", time_s=0.001),
        FaultSpec(kind="burst-storm", time_s=0.0005,
                  duration_s=0.0008, factor=3.0),
        FaultSpec(kind="vf-loss", time_s=0.0012, count=2,
                  host="host0"),
    ))
    assert Scenario.from_yaml(sc.to_yaml()) == sc
    assert Scenario.from_json(sc.to_json()) == sc
    assert Scenario.from_yaml(sc.to_yaml()).digest() == sc.digest()


def test_fault_defaults_omitted_from_dict():
    sc = _cluster_scenario((FaultSpec(kind="host-crash",
                                      time_s=0.001),))
    payload = sc.to_dict()["faults"]
    assert payload == [{"kind": "host-crash", "time_s": 0.001}]


def test_empty_faults_absent_from_dict():
    assert "faults" not in _cluster_scenario(()).to_dict()


@pytest.mark.parametrize("bad", [
    dict(kind="nope", time_s=0.0),
    dict(kind="host-crash", time_s=-1.0),
    dict(kind="host-crash", time_s=0.0, duration_s=0.1),  # point fault
    dict(kind="burst-storm", time_s=0.0),  # window needs duration
    dict(kind="burst-storm", time_s=0.0, duration_s=0.1, factor=0.0),
    dict(kind="vf-loss", time_s=0.0, count=0),
])
def test_invalid_fault_specs_rejected(bad):
    with pytest.raises(ConfigError):
        _cluster_scenario((FaultSpec(**bad),))


def test_unknown_fault_key_rejected():
    payload = _cluster_scenario(
        (FaultSpec(kind="host-crash", time_s=0.001),)
    ).to_dict()
    payload["faults"][0]["surprise"] = 1
    with pytest.raises(ConfigError):
        Scenario.from_dict(payload)


@pytest.mark.parametrize("kind", ["open_loop", "serving", "llm"])
def test_faults_gated_to_cluster_kind(kind):
    from repro.api.scenario import ScenarioLlm, ScenarioTenant

    params = dict(
        name="x", kind=kind, scheme="neu10",
        faults=(FaultSpec(kind="host-crash", time_s=0.0001),),
    )
    if kind == "llm":
        params.update(load=0.5, duration_s=0.001, llm=ScenarioLlm(
            tenants=(LlmTenantSpec(name="t", prompt_tokens=64,
                                   decode_tokens=16),),
        ))
    else:
        params["tenants"] = (ScenarioTenant(model="MNIST", batch=8),)
        if kind == "open_loop":
            params.update(load=0.5, duration_s=0.001)
    with pytest.raises(ConfigError):
        Scenario(**params)


# ----------------------------------------------------------------------
# Runner stamping
# ----------------------------------------------------------------------
def test_runner_stamps_fault_events_only_when_faults_present():
    clean = run_scenario(_cluster_scenario(()))
    assert "fault_events" not in clean.metrics
    assert "faults" not in clean.metadata

    faulty = run_scenario(_cluster_scenario(
        (FaultSpec(kind="host-crash", time_s=0.001),)
    ))
    assert faulty.metadata["faults"] == [
        {"kind": "host-crash", "time_s": 0.001}
    ]
    events = faulty.metrics["fault_events"]
    assert any(e["kind"] == "host-crash" for e in events)


def test_fault_free_scenario_digest_unchanged_by_feature():
    """A spec without faults must produce the exact same result digest
    whether or not the faults field exists in the codebase -- here:
    explicit empty tuple vs default."""
    from repro.api.result import canonical_digest

    a = run_scenario(_cluster_scenario(()))
    b = run_scenario(_cluster_scenario())
    assert canonical_digest(a.to_dict()) == canonical_digest(b.to_dict())


# ----------------------------------------------------------------------
# Docs surface
# ----------------------------------------------------------------------
def test_fault_field_docs_match_dataclass():
    """`repro list` and gen_docs render FAULT_FIELD_DOCS; a new
    FaultSpec field must document itself."""
    import dataclasses

    assert set(FAULT_FIELD_DOCS) == {
        f.name for f in dataclasses.fields(FaultSpec)
    }


def test_cli_list_mentions_faults(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Fault injection" in out
    assert "host-crash" in out

    assert cli_main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["faults"] == FAULT_FIELD_DOCS
