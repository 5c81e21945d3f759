"""The ``llm:`` scenario block: round-trip, validation, the runner
path, and the CLI surface."""

import json

import pytest

from repro.api import (
    LLM_FIELD_DOCS,
    PREEMPTION,
    Scenario,
    ScenarioLlm,
    ScenarioTenant,
    run_scenario,
    victim_policy_names,
)
from repro.cli import main as cli_main
from repro.errors import ConfigError
from repro.llmserve.engine import LlmTenantSpec


def _block(**overrides):
    params = dict(
        tenants=(
            LlmTenantSpec(name="chat", prompt_tokens=64,
                          decode_tokens=64),
            LlmTenantSpec(name="code", prompt_tokens=128,
                          decode_tokens=128, weight=0.5),
        ),
        batch_tokens=256,
        m_total=384,
        # Pinned costs: the runner tests exercise scheduling logic, not
        # the simulator calibration (tests/llmserve/test_cost.py does).
        step_overhead_cycles=1000.0,
        cycles_per_token=10.0,
        swap_cycles_per_token=2.0,
    )
    params.update(overrides)
    return ScenarioLlm(**params)


def _llm_scenario(llm=None, **overrides):
    params = dict(
        name="llm-t", kind="llm", scheme="neu10", arrival="poisson",
        load=0.9, duration_s=1e-4, seed=11, drain=True,
        llm=llm if llm is not None else _block(),
    )
    params.update(overrides)
    return Scenario(**params)


# ----------------------------------------------------------------------
# Round-trip + validation
# ----------------------------------------------------------------------
def test_llm_block_round_trips():
    sc = _llm_scenario()
    assert Scenario.from_yaml(sc.to_yaml()) == sc
    assert Scenario.from_json(sc.to_json()) == sc
    block = sc.to_dict()["llm"]
    assert block["batch_tokens"] == 256
    assert block["m_total"] == 384
    # decode_tokens=64 is the dataclass default, so it is elided.
    assert block["tenants"][0] == {"name": "chat", "prompt_tokens": 64}
    assert block["tenants"][1]["weight"] == 0.5


def test_default_fields_stay_out_of_the_serialized_form():
    sc = _llm_scenario(_block(preemption_mode="swap", victim_policy="lifo"))
    block = sc.to_dict()["llm"]
    assert "preemption_mode" not in block  # defaults are elided
    assert "victim_policy" not in block
    assert Scenario.from_dict(sc.to_dict()) == sc


def test_llm_block_only_for_llm_kind():
    with pytest.raises(ConfigError, match="kind: llm"):
        Scenario(
            name="x", kind="open_loop",
            tenants=(ScenarioTenant(model="MNIST"),),
            llm=_block(),
        )
    with pytest.raises(ConfigError, match="needs an 'llm' block"):
        Scenario(name="x", kind="llm")
    with pytest.raises(ConfigError, match="inside the\n?.*'llm' block"):
        Scenario(
            name="x", kind="llm", llm=_block(),
            tenants=(ScenarioTenant(model="MNIST"),),
        )


def test_block_validation():
    with pytest.raises(ConfigError, match="unknown preemption mode"):
        _block(preemption_mode="drop")
    with pytest.raises(ConfigError, match="exceeds"):
        _block(batch_tokens=32)  # prompts no longer fit a step
    with pytest.raises(ConfigError, match="exceeds"):
        _block(m_total=128)  # peak KV no longer fits the device
    with pytest.raises(ConfigError):
        LlmTenantSpec(name="", prompt_tokens=64)
    with pytest.raises(ConfigError, match="unknown llm key"):
        Scenario.from_dict({
            "name": "x", "kind": "llm",
            "llm": {"tenants": [{"name": "a"}], "kv_budget": 9},
        })
    # An unknown victim policy fails validation with the registry list.
    sc = _llm_scenario(_block(victim_policy="ghost"))
    with pytest.raises(ConfigError, match="lifo"):
        sc.validate()


def test_digest_distinguishes_llm_configs():
    base = _llm_scenario()
    tighter = _llm_scenario(_block(m_total=320))
    assert base.digest() != tighter.digest()


# ----------------------------------------------------------------------
# Runner path
# ----------------------------------------------------------------------
def test_run_scenario_reports_llm_metrics():
    result = run_scenario(_llm_scenario())
    assert result.kind == "llm"
    assert result.metrics["preemption"]["count"] > 0
    assert result.metrics["goodput_tokens_per_s"] > 0
    assert result.metrics["simulated_cycles"] > 0
    assert result.metrics["kv"]["peak_tokens"] <= 384
    assert set(result.metrics["tenants"]) == {"chat", "code"}
    assert result.metadata["tenants"] == ["chat", "code"]
    assert result.metadata["calibrated"] is False  # costs were pinned
    # The whole envelope is JSON-serializable and schema-valid.
    from repro.api.result import validate_run_result

    validate_run_result(json.loads(json.dumps(result.to_dict())))


def test_run_result_matches_direct_engine_call():
    sc = _llm_scenario()
    via_api = run_scenario(sc).metrics

    from repro.llmserve import LlmServeConfig, run_llm_serving

    direct = run_llm_serving(
        sc.llm.tenants,
        LlmServeConfig(
            core=sc.core(), scheme=sc.scheme, seed=sc.seed,
            duration_s=sc.duration_s, load=sc.load, arrival=sc.arrival,
            drain=sc.drain, batch_tokens=256, m_total=384,
            step_overhead_cycles=1000.0, cycles_per_token=10.0,
            swap_cycles_per_token=2.0,
        ),
    ).metrics()
    assert via_api["preemption"] == direct["preemption"]
    assert via_api["goodput_tokens_per_s"] == direct["goodput_tokens_per_s"]
    assert via_api["tenants"] == direct["tenants"]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_list_shows_llm_sections(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Preemption victim policies" in out
    assert "lifo" in out and "fifo" in out and "random" in out
    assert "llm:" in out
    assert "m_total" in out and "batch_tokens" in out


def test_cli_list_json_describes_the_block(capsys):
    assert cli_main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["llm"]) == set(LLM_FIELD_DOCS)
    assert set(payload["preemption_policies"]) >= {"lifo", "fifo", "random"}


def test_field_doc_table_matches_the_dataclass():
    """`repro list` and gen_docs render LLM_FIELD_DOCS; a new
    ScenarioLlm field must land there too."""
    import dataclasses

    assert set(LLM_FIELD_DOCS) == {
        f.name for f in dataclasses.fields(ScenarioLlm)
    }


def test_registry_exposes_builtin_policies():
    assert set(victim_policy_names()) >= {"lifo", "fifo", "random"}
    for name, info in PREEMPTION.items():
        assert info.description


def test_cli_run_json_reports_preemption(tmp_path, capsys):
    path = tmp_path / "llm.json"
    path.write_text(_llm_scenario().to_json(), encoding="utf-8")
    assert cli_main(["run", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "llm"
    assert payload["metrics"]["preemption"]["count"] > 0
    assert payload["metrics"]["preemption"]["policy"] == "lifo"
    events = payload["metrics"]["preemption"]["events"]
    assert events and all(e["mode"] == "swap" for e in events)


def test_cli_run_text_tabulates_llm_tenants(capsys, tmp_path):
    path = tmp_path / "llm.json"
    path.write_text(_llm_scenario().to_json(), encoding="utf-8")
    assert cli_main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "chat" in out and "code" in out
    assert "ttft" in out
