"""Unit tests of the invariant catalog: each check passes on a healthy
engine and trips on a deliberately corrupted result (mutation-style)."""

import copy

import pytest

from repro.api import run_scenario
from repro.api.scenario import (
    Scenario,
    ScenarioLlm,
    ScenarioTenant,
)
from repro.config import spawn_rng
from repro.fuzz.invariants import (
    INV_CONSERVATION,
    INV_DETERMINISM,
    INV_LOAD_MONOTONE,
    INV_ROUNDTRIP,
    check_conservation,
    check_determinism,
    check_fast_path,
    check_load_monotonicity,
    check_megabatch,
    check_resume,
    check_roundtrip,
    check_scenario,
)
from repro.llmserve.engine import LlmTenantSpec


def _open_loop(drain: bool = True) -> Scenario:
    return Scenario(
        name="inv-ol", kind="open_loop", scheme="neu10",
        tenants=(ScenarioTenant(model="MNIST", batch=8),),
        load=0.6, duration_s=0.0008, seed=3, drain=drain,
    )


def _llm() -> Scenario:
    return Scenario(
        name="inv-llm", kind="llm", scheme="neu10",
        load=0.5, duration_s=0.001, seed=5, drain=True,
        llm=ScenarioLlm(
            tenants=(LlmTenantSpec(
                name="t0", prompt_tokens=64, decode_tokens=16),),
            batch_tokens=256, m_total=1024,
            step_overhead_cycles=2000.0, cycles_per_token=20.0,
        ),
    )


@pytest.fixture(scope="module")
def ol_result():
    return run_scenario(_open_loop())


@pytest.fixture(scope="module")
def llm_result():
    return run_scenario(_llm())


def test_roundtrip_clean(ol_result):
    assert check_roundtrip(_open_loop()) == []


def test_conservation_clean_open_loop(ol_result):
    assert check_conservation(_open_loop(), ol_result) == []


def test_conservation_clean_llm(llm_result):
    assert check_conservation(_llm(), llm_result) == []


def test_conservation_catches_inflated_completed(ol_result):
    bad = copy.deepcopy(ol_result)
    bad.metrics["tenants"][0]["completed"] = (
        bad.metrics["tenants"][0]["offered"] + 1
    )
    violations = check_conservation(_open_loop(), bad)
    assert violations and violations[0].invariant == INV_CONSERVATION


def test_conservation_catches_drain_leak(ol_result):
    bad = copy.deepcopy(ol_result)
    t = bad.metrics["tenants"][0]
    t["offered"] = t["completed"] + 2  # a request vanished at drain
    t["attainment"] = t["attained"] / t["offered"]
    violations = check_conservation(_open_loop(drain=True), bad)
    assert any("drain leak" in v.detail for v in violations)


def test_conservation_catches_llm_tenant_sum_mismatch(llm_result):
    bad = copy.deepcopy(llm_result)
    name = next(iter(bad.metrics["tenants"]))
    bad.metrics["tenants"][name]["completed"] += 1
    violations = check_conservation(_llm(), bad)
    assert violations and violations[0].invariant == INV_CONSERVATION


def test_determinism_clean(ol_result):
    assert check_determinism(_open_loop(), ol_result) == []


def test_determinism_catches_result_drift(ol_result):
    bad = copy.deepcopy(ol_result)
    bad.metrics["tenants"][0]["attained"] += 0  # no-op; now poison digest
    bad.metadata["poisoned"] = True
    violations = check_determinism(_open_loop(), bad)
    assert violations and violations[0].invariant == INV_DETERMINISM


def test_engine_toggle_differentials_clean(ol_result, llm_result):
    assert check_megabatch(_open_loop(), ol_result) == []
    assert check_fast_path(_open_loop(), ol_result) == []
    assert check_fast_path(_llm(), llm_result) == []


def _with_attainment(result, offered, attained):
    out = copy.deepcopy(result)
    (tenant,) = out.metrics["tenants"]
    tenant["offered"] = offered
    tenant["attained"] = attained
    return out


@pytest.mark.parametrize("offered,fires", [(9, False), (10, True)])
def test_load_monotonicity_fires_from_ceil_inverse_tolerance_requests(
    ol_result, offered, fires
):
    """A planted doubled-load run that attains 0.95 against a base of
    0.5: the check fires once the base offers ceil(1 / 0.1) = 10
    requests, and skips a base that offers fewer."""
    base = _with_attainment(ol_result, offered, offered / 2)
    doubled = _with_attainment(ol_result, 2 * offered, 1.9 * offered)
    loads = []

    def planted_run(sc):
        loads.append(sc.load)
        return doubled

    violations = check_load_monotonicity(
        _open_loop(), base, 0.1, run=planted_run
    )
    if fires:
        assert loads == [round(_open_loop().load * 2, 6)]
        assert [v.invariant for v in violations] == [INV_LOAD_MONOTONE]
        assert "rose from 0.5000 to 0.9500" in violations[0].detail
    else:
        assert loads == [] and violations == []


def test_resume_after_torn_journal(tmp_path):
    rng = spawn_rng(0, "inv", "resume")
    assert check_resume(_open_loop(), rng, workdir=tmp_path) == []


def test_check_scenario_counts_checks(tmp_path):
    rng = spawn_rng(0, "inv", "drive")
    outcome = check_scenario(
        _open_loop(), rng, deep=False, workdir=tmp_path
    )
    assert outcome.violations == []
    assert outcome.checks_run == 3  # roundtrip, conservation, determinism


def test_check_scenario_reports_engine_crash(tmp_path):
    rng = spawn_rng(0, "inv", "crash")

    def exploding_run(_sc):
        raise RuntimeError("planted engine crash")

    outcome = check_scenario(
        _open_loop(), rng, deep=False, workdir=tmp_path, run=exploding_run
    )
    assert len(outcome.violations) == 1
    v = outcome.violations[0]
    assert v.invariant == INV_CONSERVATION
    assert "planted engine crash" in v.detail
    assert v.scenario == _open_loop()


def test_violation_to_dict_embeds_spec():
    from repro.fuzz.invariants import Violation

    v = Violation(INV_ROUNDTRIP, "x", "detail", _open_loop())
    payload = v.to_dict()
    assert payload["invariant"] == INV_ROUNDTRIP
    assert payload["spec"]["name"] == "inv-ol"
