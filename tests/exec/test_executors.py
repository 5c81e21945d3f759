"""Executor backends: ordering, retries, timeouts, crash isolation."""

from __future__ import annotations

import warnings

import pytest

import repro.exec.pool
from repro.errors import ConfigError, ExecError
from repro.exec import (
    ExecSpec,
    ExecTask,
    LocalQueueExecutor,
    PoolExecutor,
    SerialExecutor,
    TaskOutcome,
)
from repro.exec.testing import (
    crashing_task,
    echo_task,
    flaky_task,
    sleepy_task,
)

BACKENDS = {
    "serial": SerialExecutor,
    "pool": PoolExecutor,
    "local-queue": LocalQueueExecutor,
}


def make(backend: str, **kwargs) -> object:
    spec = ExecSpec(backend=backend, **kwargs)
    return BACKENDS[backend](spec)


def tasks_for(payloads):
    return [ExecTask(key=f"t{i}", payload=p) for i, p in enumerate(payloads)]


# ----------------------------------------------------------------------
# Contract: outcomes in task order, on every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_echo_outcomes_in_task_order(backend):
    executor = make(backend, max_workers=2)
    outcomes = executor.map_tasks(echo_task, tasks_for(range(7)))
    assert [o.value for o in outcomes] == list(range(7))
    assert [o.key for o in outcomes] == [f"t{i}" for i in range(7)]
    assert all(o.ok and o.attempts == 1 for o in outcomes)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_empty_task_list(backend):
    assert make(backend).map_tasks(echo_task, []) == []


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_completion_hook_fires_once_per_task(backend):
    seen = []
    executor = make(backend, max_workers=2)
    executor.map_tasks(
        echo_task, tasks_for(range(5)), on_complete=seen.append
    )
    assert sorted(o.key for o in seen) == [f"t{i}" for i in range(5)]
    assert all(isinstance(o, TaskOutcome) for o in seen)


# ----------------------------------------------------------------------
# Retries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_flaky_task_retried_to_success(backend, tmp_path):
    executor = make(backend, max_workers=2, retries=2, retry_backoff_s=0.0)
    payloads = [
        {"scratch": str(tmp_path / backend), "key": f"k{i}",
         "fail_times": i % 3, "value": i * 10}
        for i in range(6)
    ]
    outcomes = executor.map_tasks(flaky_task, tasks_for(payloads))
    assert [o.value for o in outcomes] == [0, 10, 20, 30, 40, 50]
    assert [o.attempts for o in outcomes] == [1, 2, 3, 1, 2, 3]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_retries_exhausted_aborts_with_exec_error(backend, tmp_path):
    executor = make(backend, max_workers=2, retries=1, retry_backoff_s=0.0)
    payloads = [{"scratch": str(tmp_path), "key": "dead",
                 "fail_times": 99, "value": 1}]
    with pytest.raises(ExecError, match="dead|t0"):
        executor.map_tasks(flaky_task, tasks_for(payloads))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_keep_going_records_structured_failure(backend, tmp_path):
    executor = make(
        backend, max_workers=2, retries=1, retry_backoff_s=0.0,
        keep_going=True,
    )
    payloads = [
        {"scratch": str(tmp_path), "key": "bad", "fail_times": 99,
         "value": None},
        {"scratch": str(tmp_path), "key": "good", "fail_times": 0,
         "value": "fine"},
    ]
    outcomes = executor.map_tasks(flaky_task, tasks_for(payloads))
    assert not outcomes[0].ok
    failure = outcomes[0].failure
    assert failure.error_type == "RuntimeError"
    assert failure.attempts == 2
    assert not failure.timed_out
    assert "deterministic flake" in failure.message
    assert outcomes[1].ok and outcomes[1].value == "fine"


def test_backoff_schedule():
    spec = ExecSpec(retries=3, retry_backoff_s=0.1)
    assert spec.max_attempts == 4
    assert spec.backoff_before(1) == 0.0
    assert spec.backoff_before(2) == pytest.approx(0.1)
    assert spec.backoff_before(3) == pytest.approx(0.2)
    assert spec.backoff_before(4) == pytest.approx(0.4)


# ----------------------------------------------------------------------
# Timeouts
# ----------------------------------------------------------------------
def test_local_queue_timeout_kills_and_retries(tmp_path):
    executor = make(
        "local-queue", max_workers=2, task_timeout_s=0.4, retries=2,
        retry_backoff_s=0.0,
    )
    payloads = [
        # Stuck on attempt 1, returns on attempt 2.
        {"scratch": str(tmp_path), "key": "slow", "sleep_s": 30.0,
         "slow_times": 1, "value": "woke"},
        {"scratch": str(tmp_path), "key": "fast", "sleep_s": 0.0,
         "slow_times": 0, "value": "quick"},
    ]
    outcomes = executor.map_tasks(sleepy_task, tasks_for(payloads))
    assert outcomes[0].value == "woke" and outcomes[0].attempts == 2
    assert outcomes[1].value == "quick" and outcomes[1].attempts == 1


def test_local_queue_timeout_exhausted_is_structured(tmp_path):
    executor = make(
        "local-queue", max_workers=1, task_timeout_s=0.3, retries=1,
        retry_backoff_s=0.0, keep_going=True,
    )
    payloads = [{"scratch": str(tmp_path), "key": "stuck",
                 "sleep_s": 30.0, "value": None}]
    outcomes = executor.map_tasks(sleepy_task, tasks_for(payloads))
    failure = outcomes[0].failure
    assert failure is not None
    assert failure.timed_out
    assert failure.error_type == "TimeoutError"
    assert failure.attempts == 2


@pytest.mark.parametrize("backend", ["serial", "pool"])
def test_timeout_unenforceable_backends_warn(backend):
    executor = make(backend, max_workers=1, task_timeout_s=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes = executor.map_tasks(echo_task, tasks_for([1]))
    assert [o.value for o in outcomes] == [1]
    assert any(
        "task_timeout_s" in str(w.message)
        and issubclass(w.category, RuntimeWarning)
        for w in caught
    )


# ----------------------------------------------------------------------
# Crash isolation (the local-queue reason for existing)
# ----------------------------------------------------------------------
def test_local_queue_survives_worker_death(tmp_path):
    executor = make(
        "local-queue", max_workers=2, retries=2, retry_backoff_s=0.0,
    )
    payloads = [
        {"scratch": str(tmp_path), "key": "boom", "crash_times": 1,
         "value": "ok-after-crash"},
        {"scratch": str(tmp_path), "key": "calm", "crash_times": 0,
         "value": "calm"},
    ]
    outcomes = executor.map_tasks(crashing_task, tasks_for(payloads))
    assert outcomes[0].value == "ok-after-crash"
    assert outcomes[0].attempts == 2
    assert outcomes[1].value == "calm" and outcomes[1].attempts == 1


def test_local_queue_permanent_crash_keep_going(tmp_path):
    executor = make(
        "local-queue", max_workers=1, retries=1, retry_backoff_s=0.0,
        keep_going=True,
    )
    payloads = [{"scratch": str(tmp_path), "key": "always", "crash_times": 99,
                 "value": None}]
    outcomes = executor.map_tasks(crashing_task, tasks_for(payloads))
    failure = outcomes[0].failure
    assert failure is not None
    assert failure.error_type == "WorkerDied"
    assert "19" in failure.message


def test_pool_worker_death_raises_exec_error(tmp_path):
    executor = make("pool", max_workers=2, retries=0)
    payloads = [
        {"scratch": str(tmp_path), "key": f"c{i}", "crash_times": 99,
         "value": None}
        for i in range(2)
    ]
    with pytest.raises(ExecError, match="local-queue"):
        executor.map_tasks(crashing_task, tasks_for(payloads))


def test_pool_fallback_warns_once_and_runs_serially(monkeypatch):
    def no_pool(*args, **kwargs):
        raise OSError("no semaphores here")

    monkeypatch.setattr(repro.exec.pool, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(repro.exec.pool, "_pool_fallback_warned", False)
    executor = make("pool", max_workers=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = executor.map_tasks(echo_task, tasks_for([1, 2, 3]))
        second = executor.map_tasks(echo_task, tasks_for(["a", "b"]))
    assert [o.value for o in first] == [1, 2, 3]
    assert [o.value for o in second] == ["a", "b"]
    fallbacks = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(fallbacks) == 1
    assert "no semaphores here" in str(fallbacks[0].message)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(ConfigError):
        ExecSpec(backend="")
    with pytest.raises(ConfigError):
        ExecSpec(max_workers=0)
    with pytest.raises(ConfigError):
        ExecSpec(task_timeout_s=0)
    with pytest.raises(ConfigError):
        ExecSpec(retries=-1)
    with pytest.raises(ConfigError):
        ExecSpec(retry_backoff_s=-0.1)
    with pytest.raises(ConfigError):
        ExecTask(key="", payload=None)
