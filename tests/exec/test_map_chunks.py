"""map_chunks: the one fan-out every simulation layer goes through.

The contract: for any backend, worker count and chunk size, the
flattened results equal a serial map over the items, in item order.
"""

from __future__ import annotations

import os
import warnings

import pytest

import repro.exec.pool
from repro.config import spawn_rng
from repro.errors import ConfigError, ExecError
from repro.exec import ExecSpec, map_chunks


def _squares(chunk):
    return [x * x for x in chunk]


def _seeded_draws(chunk):
    # Exercises the seeded-substream pattern workers rely on.
    return [spawn_rng(99, key).random() for key in chunk]


def _pids(chunk):
    return [os.getpid() for _ in chunk]


def _boom(chunk):
    raise ValueError(f"boom {chunk}")


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_map_chunks_matches_serial(workers):
    items = list(range(13))
    spec = ExecSpec(max_workers=workers)
    for size in (1, 4, 64):
        assert map_chunks(_squares, items, spec, size=size) == [
            x * x for x in items
        ]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_map_chunks_preserves_order_with_seeded_streams(workers):
    keys = [f"tenant-{i}" for i in range(9)]
    spec = ExecSpec(max_workers=workers)
    assert map_chunks(_seeded_draws, keys, spec, size=2) == _seeded_draws(keys)


def test_map_chunks_empty_and_single():
    spec = ExecSpec(max_workers=4)
    assert map_chunks(_squares, [], spec) == []
    assert map_chunks(_squares, [3], spec) == [9]


def test_map_chunks_spans_processes_only_across_chunks():
    spec = ExecSpec(max_workers=2)
    # Four items fit one default chunk: one task, run in this process.
    assert set(map_chunks(_pids, range(4), spec)) == {os.getpid()}
    # One item per task: the pool runs them in its workers.
    assert os.getpid() not in map_chunks(_pids, list(range(4)), spec, size=1)


@pytest.mark.parametrize("backend", ["serial", "pool"])
def test_map_chunks_failure_aborts_even_with_keep_going(backend):
    spec = ExecSpec(
        backend=backend, max_workers=2, retries=0, keep_going=True
    )
    with pytest.raises(ExecError, match="boom"):
        map_chunks(_boom, [1, 2], spec, size=1)


def test_map_chunks_rejects_bad_width_and_size():
    with pytest.raises(ConfigError):
        map_chunks(_squares, [1, 2], ExecSpec(max_workers=0))
    with pytest.raises(ConfigError, match="chunk size"):
        map_chunks(_squares, [1, 2], size=0)


def test_pool_fallback_warns_once_and_runs_serially(monkeypatch):
    def no_pool(*args, **kwargs):
        raise OSError("no semaphores here")

    monkeypatch.setattr(repro.exec.pool, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(repro.exec.pool, "_pool_fallback_warned", False)
    spec = ExecSpec(backend="pool", max_workers=2)
    serial = ExecSpec(backend="serial")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = map_chunks(_squares, [1, 2, 3], spec, size=1)
        second = map_chunks(_seeded_draws, ["a", "b"], spec, size=1)
    assert first == map_chunks(_squares, [1, 2, 3], serial, size=1)
    assert second == map_chunks(_seeded_draws, ["a", "b"], serial, size=1)
    fallbacks = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(fallbacks) == 1
    assert "no semaphores here" in str(fallbacks[0].message)
