"""Differential matrix: REPRO_SIM_MEGABATCH=0/1 and REPRO_SIM_FAST_PATH
=0/1 must be bit-identical on the computed metrics, for every scenario
kind the toggles can touch (satellite of the fuzz harness -- these are
the pinned, always-run members of the family the fuzzer samples)."""

import pytest

from repro.api import run_scenario, sweep_scenario
from repro.api.result import canonical_digest
from repro.api.scenario import (
    Scenario,
    ScenarioChurn,
    ScenarioLlm,
    ScenarioTenant,
)
from repro.fuzz.invariants import _env, _metrics_digest
from repro.llmserve.engine import LlmTenantSpec


def _open_loop() -> Scenario:
    return Scenario(
        name="diff-ol", kind="open_loop", scheme="neu10",
        tenants=(
            ScenarioTenant(model="MNIST", batch=8),
            ScenarioTenant(model="NCF", batch=4),
        ),
        load=0.7, duration_s=0.0008, seed=13, drain=True,
    )


def _serving() -> Scenario:
    return Scenario(
        name="diff-serving", kind="serving", scheme="pmt",
        tenants=(
            ScenarioTenant(model="MNIST", batch=4),
            ScenarioTenant(model="NCF", batch=4, priority=2.0),
            ScenarioTenant(model="MNIST", batch=1),
        ),
        target_requests=2, seed=3,
    )


def _cluster() -> Scenario:
    return Scenario(
        name="diff-cluster", kind="cluster", scheme="neu10",
        load=0.6, duration_s=0.0015, seed=21, hosts=2,
        churn=(
            ScenarioChurn(0.0, "arrive", "a", model="MNIST", batch=4,
                          num_mes=2, num_ves=2),
            ScenarioChurn(0.0004, "arrive", "b", model="NCF", batch=4,
                          num_mes=2, num_ves=2),
        ),
    )


def _llm() -> Scenario:
    return Scenario(
        name="diff-llm", kind="llm", scheme="neu10",
        load=0.6, duration_s=0.001, seed=9, drain=True,
        llm=ScenarioLlm(
            tenants=(
                LlmTenantSpec(name="chat", prompt_tokens=128,
                              decode_tokens=32),
                LlmTenantSpec(name="code", prompt_tokens=64,
                              decode_tokens=16),
            ),
            batch_tokens=512, m_total=512,
            preemption_mode="sacrifice", victim_policy="fifo",
            step_overhead_cycles=2000.0, cycles_per_token=20.0,
        ),
    )


_ALL = [_open_loop, _serving, _cluster, _llm]


@pytest.mark.parametrize("make", _ALL, ids=lambda f: f.__name__)
def test_fast_path_matrix_bit_identical(make):
    sc = make()
    digests = []
    for flag in ("0", "1"):
        with _env("REPRO_SIM_FAST_PATH", flag):
            digests.append(_metrics_digest(run_scenario(sc)))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("make", _ALL, ids=lambda f: f.__name__)
def test_megabatch_matrix_bit_identical_single_run(make):
    sc = make()
    digests = []
    for flag in ("0", "1"):
        with _env("REPRO_SIM_MEGABATCH", flag):
            digests.append(canonical_digest(run_scenario(sc).to_dict()))
    assert digests[0] == digests[1]


def test_megabatch_matrix_bit_identical_sweep():
    sc = _open_loop()
    digests = []
    for flag in ("0", "1"):
        with _env("REPRO_SIM_MEGABATCH", flag):
            results = sweep_scenario(
                sc, param="load", values=[0.5, 0.9], max_workers=1
            )
            digests.append(
                [canonical_digest(r.to_dict()) for r in results]
            )
    assert digests[0] == digests[1]


def test_both_toggles_stacked():
    sc = _open_loop()
    with _env("REPRO_SIM_FAST_PATH", "0"), \
            _env("REPRO_SIM_MEGABATCH", "0"):
        plain = _metrics_digest(run_scenario(sc))
    with _env("REPRO_SIM_FAST_PATH", "1"), \
            _env("REPRO_SIM_MEGABATCH", "1"):
        fast = _metrics_digest(run_scenario(sc))
    assert plain == fast
