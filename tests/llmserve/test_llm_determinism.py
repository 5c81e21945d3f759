"""Seeded determinism: one seed, one history -- anywhere it runs.

The preemption event log is the most fragile artifact of a serving run
(one mis-ordered tie-break changes every downstream metric), so these
tests compare runs event-by-event: in-process repeats, across pool
workers, and across victim policies sharing one seed.
"""

from repro.api import Scenario, run_scenario
from repro.exec import ExecSpec, ExecTask, PoolExecutor
from repro.llmserve import LlmServeConfig, LlmTenantSpec, run_llm_serving

SPECS = (
    LlmTenantSpec(name="chat", prompt_tokens=64, decode_tokens=64),
    LlmTenantSpec(name="code", prompt_tokens=128, decode_tokens=128,
                  weight=0.5),
)

CHEAP = dict(
    step_overhead_cycles=1000.0,
    cycles_per_token=10.0,
    swap_cycles_per_token=2.0,
)


def _cfg(**overrides):
    params = dict(
        seed=11, duration_s=1e-4, load=0.9, arrival="poisson",
        batch_tokens=256, m_total=384, **CHEAP,
    )
    params.update(overrides)
    return LlmServeConfig(**params)


SCENARIO_PAYLOAD = {
    "name": "llm-det",
    "kind": "llm",
    "scheme": "neu10",
    "arrival": "poisson",
    "load": 0.9,
    "duration_s": 1e-4,
    "seed": 11,
    "llm": {
        "batch_tokens": 256,
        "m_total": 384,
        "step_overhead_cycles": 1000.0,
        "cycles_per_token": 10.0,
        "swap_cycles_per_token": 2.0,
        "tenants": [
            {"name": "chat", "prompt_tokens": 64, "decode_tokens": 64},
            {"name": "code", "prompt_tokens": 128, "decode_tokens": 128,
             "weight": 0.5},
        ],
    },
}


def _run_payload(payload):
    return run_scenario(Scenario.from_dict(payload)).metrics


def test_same_seed_same_event_log():
    a = run_llm_serving(SPECS, _cfg())
    b = run_llm_serving(SPECS, _cfg())
    assert a.preemption_count > 0  # the comparison is not vacuous
    assert a.events == b.events
    assert a.metrics() == b.metrics()


def test_different_seeds_differ():
    a = run_llm_serving(SPECS, _cfg())
    b = run_llm_serving(SPECS, _cfg(seed=12))
    assert a.metrics() != b.metrics()


def test_pool_workers_match_in_process():
    """Worker processes replay the exact in-process history, including
    the preemption event log -- the property sweeps rely on."""
    reference = _run_payload(SCENARIO_PAYLOAD)
    assert reference["preemption"]["count"] > 0
    fanned = PoolExecutor(ExecSpec(max_workers=2)).map_tasks(
        _run_payload,
        [ExecTask(key, SCENARIO_PAYLOAD) for key in ("a", "b")],
    )
    assert [outcome.value for outcome in fanned] == [reference, reference]


def test_victim_policies_share_one_arrival_history():
    """The victim RNG stream is keyed off the policy name, the arrival
    streams are not -- so changing who gets evicted never perturbs what
    arrives, and each policy is individually reproducible."""
    results = {
        policy: run_llm_serving(SPECS, _cfg(victim_policy=policy))
        for policy in ("lifo", "fifo", "random")
    }
    arrived = {r.arrived for r in results.values()}
    assert len(arrived) == 1  # identical arrivals
    for policy, result in results.items():
        assert result.preemption_count > 0
        assert all(e.policy == policy for e in result.events)
        again = run_llm_serving(SPECS, _cfg(victim_policy=policy))
        assert again.events == result.events
    # lifo and fifo pick from opposite ends of the batch; with real
    # pressure they must not produce the same victim sequence.
    assert (
        [e.rid for e in results["lifo"].events]
        != [e.rid for e in results["fifo"].events]
    )
