"""``run_all_pairs``: one pool task per (pair, scheme), whole pairs cached.

The fan-out sends every (pair, scheme) simulation as its own task and
reassembles each :class:`PairRun` in the parent, so the result must
equal serial :func:`run_pair` at any worker count, keep the caller's
scheme order, and leave whole pairs in the cache that Figs. 19-23 (and
the benchmark's read-back) draw from.
"""

import pytest

from repro.exec import PoolExecutor
from repro.experiments import common
from repro.parallel import WORKERS_ENV

PAIRS = [("MNIST", "NCF"), ("NCF", "DLRM")]
#: Deliberately not sorted: the cache key sorts schemes, results must not.
SCHEMES = ("v10", "pmt", "neu10")
TARGET = 1


@pytest.mark.parametrize("workers", [1, 2])
def test_one_task_per_pair_scheme_equal_to_serial(
    workers, monkeypatch, spawned_pools
):
    monkeypatch.setattr(common, "_pair_cache", {})
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    calls = []
    real_map_tasks = PoolExecutor.map_tasks

    def spy(self, fn, tasks, *args, **kwargs):
        calls.append([task.payload for task in tasks])
        return real_map_tasks(self, fn, tasks, *args, **kwargs)

    monkeypatch.setattr(PoolExecutor, "map_tasks", spy)
    runs = common.run_all_pairs(SCHEMES, TARGET, PAIRS)

    assert calls == [
        [(w1, w2, s, TARGET) for w1, w2 in PAIRS for s in SCHEMES]
    ]
    assert bool(spawned_pools) == (workers > 1)
    serial = [common.run_pair(w1, w2, SCHEMES, TARGET) for w1, w2 in PAIRS]
    assert runs == serial
    for run in runs:
        assert list(run.results) == list(SCHEMES)

    def no_simulation(*args, **kwargs):
        raise AssertionError("run_pair_cached simulated a cached pair")

    monkeypatch.setattr(common, "run_pair", no_simulation)
    for run, (w1, w2) in zip(runs, PAIRS):
        assert common.run_pair_cached(w1, w2, SCHEMES, TARGET) is run
