"""Regression pins for engine bugs the fuzz harness caught.

Each test is a minimized replay of a real fuzzer finding (campaign
seed/index noted inline).  They must stay fast: every one previously
either crashed or livelocked until the max-epoch/max-step guard fired.
"""

import pytest

from repro.api import run_scenario
from repro.api.scenario import (
    Scenario,
    ScenarioLlm,
    ScenarioTenant,
)
from repro.llmserve.engine import LlmTenantSpec


def test_v10_does_not_preempt_and_run_same_unit():
    """seed=1 idx=45 / seed=2 idx=40: V10's fairness preemption fired,
    then ``_pick_me_unit`` re-picked the unit it had just preempted
    (still RUNNING in active_units), tripping the engine's "scheduler
    both preempted and ran a unit" consistency check."""
    sc = Scenario(
        name="regress-v10", kind="open_loop", scheme="v10",
        tenants=(
            ScenarioTenant(model="MNIST", batch=1, weight=1.39,
                           slo_relative=3.0),
            ScenarioTenant(model="MNIST", batch=8, weight=0.98,
                           priority=2.0, slo_relative=3.0),
            ScenarioTenant(model="NCF", batch=1, weight=0.68,
                           priority=2.0),
        ),
        load=0.572, duration_s=0.002268, seed=29452, drain=True,
    )
    result = run_scenario(sc)  # raised SimulationError before the fix
    for t in result.metrics["tenants"]:
        assert t["completed"] == t["offered"]


def test_pmt_three_tenants_no_starvation():
    """seed=1 idx=37: PMT ranked tenants by ``active_service_cycles``,
    which counts *time with a request in flight* -- a permanent three-way
    tie under closed-loop serving.  The rotation degenerated to pool
    order and ping-ponged between two tenants while the third starved
    (0 completions after 9 billion simulated cycles)."""
    sc = Scenario(
        name="regress-pmt", kind="serving", scheme="pmt",
        tenants=(
            ScenarioTenant(model="MNIST", batch=4),
            ScenarioTenant(model="NCF", batch=32),
            ScenarioTenant(model="NCF", batch=32, priority=2.0),
        ),
        target_requests=2, seed=29,
    )
    result = run_scenario(sc)  # hit the 5M-epoch livelock guard before
    for t in result.metrics["tenants"]:
        assert t["completed_requests"] >= 2


def test_llm_sacrifice_fifo_terminates():
    """seed=1 idx=41: sacrifice mode + fifo victim policy livelocked --
    the evicted head re-entered the wait heap under its original arrival
    key, re-prefilled into the space its own eviction freed, and was
    sacrificed again at the next pressure event, forever.  The engine
    now protects the FCFS head of the batch and skips admission on
    sacrifice steps."""
    sc = Scenario(
        name="regress-llm-fifo", kind="llm", scheme="neu10",
        arrival="bursty", load=0.462, duration_s=0.002238,
        seed=49238, drain=True,
        llm=ScenarioLlm(
            tenants=(
                LlmTenantSpec(name="llm0", prompt_tokens=64,
                              decode_tokens=32, weight=1.35),
                LlmTenantSpec(name="llm1", prompt_tokens=256,
                              decode_tokens=32, weight=0.72),
            ),
            batch_tokens=512, m_total=576,
            preemption_mode="sacrifice", victim_policy="fifo",
            step_overhead_cycles=5000.0, cycles_per_token=20.0,
        ),
    )
    result = run_scenario(sc)  # hit max_steps=500000 before the fix
    req = result.metrics["requests"]
    assert req["completed"] == req["arrived"] > 0
    assert result.metrics["preemption"]["count"] > 0  # pressure did fire


@pytest.mark.parametrize("policy", ["lifo", "fifo", "random"])
def test_llm_sacrifice_terminates_under_every_policy(policy):
    """The head-protection guarantee is policy-independent."""
    sc = Scenario(
        name=f"regress-llm-{policy}", kind="llm", scheme="neu10",
        load=0.8, duration_s=0.0012, seed=7, drain=True,
        llm=ScenarioLlm(
            tenants=(LlmTenantSpec(
                name="t", prompt_tokens=128, decode_tokens=32),),
            batch_tokens=256, m_total=320,
            preemption_mode="sacrifice", victim_policy=policy,
            step_overhead_cycles=2000.0, cycles_per_token=20.0,
        ),
    )
    req = run_scenario(sc).metrics["requests"]
    assert req["completed"] == req["arrived"]


#: ``repro fuzz --seed 1 --budget 12 --deep-every 1 --shrink`` output for
#: fuzz-0006, as written (comments dropped).
FUZZ_0006_YAML = """\
name: fuzz-0006
kind: open_loop
description: 'fuzz grammar sample #6'
scheme: v10
tenants:
- model: NCF
  weight: 0.51
  priority: 2.0
arrival: bursty
load: 1.103
duration_s: 0.002402
seed: 49699
"""


def test_load_monotonicity_skips_runs_too_small_to_resolve_it():
    """seed=1 idx=6: attainment rose from 0.75 to 0.875 when load
    doubled.  The base run offers 4 requests and completes 3; the
    doubled run offers 8 and completes 7; in both, exactly one request
    is still in flight when the window ends and counts as a miss.  One
    request is worth 0.25 of attainment at 4 offered, more than the 0.1
    tolerance, so the check needs ceil(1 / 0.1) = 10 offered requests
    and skips this run."""
    from repro.api.scenario import Scenario
    from repro.fuzz.invariants import check_load_monotonicity

    sc = Scenario.from_yaml(FUZZ_0006_YAML)
    result = run_scenario(sc)
    (tenant,) = result.metrics["tenants"]
    assert (tenant["offered"], tenant["completed"]) == (4, 3)
    assert tenant["attained"] / tenant["offered"] == 0.75
    assert check_load_monotonicity(sc, result, 0.1) == []
