"""Tests for the hardware config (Table II) and stats accounting."""

import math
import random
import sys
from functools import reduce
from operator import add

import pytest

from repro.config import (
    DEFAULT_BOARD,
    DEFAULT_CORE,
    ME_PREEMPTION_CYCLES,
    NpuBoardConfig,
    NpuChipConfig,
    NpuCoreConfig,
)
from repro.errors import ConfigError
from repro.sim.engine import Simulator, Tenant
from repro.sim.hw_cost import scheduler_cost
from repro.sim.sched_static import StaticPartitionScheduler
from repro.sim.stats import SimStats, ordered_mean, ordered_sum
from repro.workloads.traces import build_trace


# ----------------------------------------------------------------------
# Table II values
# ----------------------------------------------------------------------
def test_default_core_matches_table2():
    core = DEFAULT_CORE
    assert core.num_mes == 4 and core.num_ves == 4
    assert core.me_rows == 128 and core.me_cols == 128
    assert core.ve_flops_per_cycle == 128 * 8
    assert core.frequency_hz == 1_050e6
    assert core.sram_bytes == 128 * 2**20
    assert core.hbm_bytes == 64 * 10**9
    assert core.hbm_bandwidth_bytes_per_s == 1_200e9


def test_preemption_penalty_is_256_cycles():
    """128 cycles to pop partial sums + 128 to pop weights (SectionIII-G)."""
    assert ME_PREEMPTION_CYCLES == 256
    assert DEFAULT_CORE.me_preemption_cycles == 256


def test_unit_conversions():
    core = DEFAULT_CORE
    assert core.cycles_to_us(1_050.0) == pytest.approx(1.0)
    assert core.seconds_to_cycles(1.0) == core.frequency_hz
    assert core.hbm_bytes_per_cycle == pytest.approx(1_200e9 / 1_050e6)


def test_with_engines_and_bandwidth():
    core = DEFAULT_CORE.with_engines(8, 2)
    assert core.num_mes == 8 and core.num_ves == 2
    assert core.sram_bytes == DEFAULT_CORE.sram_bytes
    fat = DEFAULT_CORE.with_bandwidth(3e12)
    assert fat.hbm_bandwidth_bytes_per_s == 3e12


def test_config_validation():
    with pytest.raises(ConfigError):
        NpuCoreConfig(num_mes=0)
    with pytest.raises(ConfigError):
        NpuCoreConfig(frequency_hz=0)
    with pytest.raises(ConfigError):
        NpuChipConfig(num_cores=0)
    with pytest.raises(ConfigError):
        NpuBoardConfig(num_chips=0)


def test_board_aggregates():
    assert DEFAULT_BOARD.total_cores == 8
    assert DEFAULT_BOARD.total_mes == 32


def test_segment_counts():
    assert DEFAULT_CORE.num_sram_segments == 64   # 128 MB / 2 MB
    assert DEFAULT_CORE.num_hbm_segments == 59    # 64 GB / 1 GiB


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
def test_stats_utilization_math():
    stats = SimStats(num_mes=4, num_ves=4)
    stats.record_epoch(0.0, 100.0, {0: 2.0}, {0: 1.0})
    stats.record_epoch(100.0, 100.0, {0: 4.0}, {0: 2.0})
    assert stats.me_utilization() == pytest.approx((200 + 400) / (200 * 4))
    assert stats.tenant_me_utilization(0) == stats.me_utilization()


def test_stats_assignment_trace_coalesces():
    stats = SimStats(num_mes=4, num_ves=4, record_assignment=True)
    for i in range(5):
        stats.record_epoch(i * 10.0, 10.0, {0: 2.0}, {0: 2.0})
    assert len(stats.assignment_trace) == 1
    stats.record_epoch(50.0, 10.0, {0: 3.0}, {0: 2.0})
    assert len(stats.assignment_trace) == 2


def test_stats_op_lifecycle():
    """Each finished operator appends one (tenant_id, op_name, op_index,
    request_id, start_cycle, end_cycle) tuple, in finish order, and the
    next operator starts where the previous one ended -- an operator of
    several uTOp groups starts at its first group."""
    graph = build_trace("MNIST", 8).compiled("neuisa")
    assert any(len(op.groups) > 1 for op in graph.ops)
    tenant = Tenant(3, "mnist", graph, alloc_mes=4, alloc_ves=4,
                    target_requests=2)
    sim = Simulator(DEFAULT_CORE, StaticPartitionScheduler(), [tenant])
    records = sim.run().stats.op_records
    assert [r[:4] for r in records] == [
        (3, op.name, op.op_index, rid) for rid in range(2) for op in graph.ops
    ]
    assert [r[4] for r in records] == [0.0] + [r[5] for r in records[:-1]]
    assert all(end > start for *_, start, end in records)


def test_stats_op_durations_grouping():
    stats = SimStats(num_mes=4, num_ves=4)
    for req in range(3):
        t = req * 100.0
        stats.op_records.append((0, "mm", 1, req, t, t + 50.0))
        stats.op_records.append((1, "mm", 1, req, t, t + 7.0))
        stats.op_records.append((0, "ln", 2, req, t + 50.0, t + 60.0))
    durations = stats.op_durations(0)
    assert durations == {"mm": [50.0, 50.0, 50.0], "ln": [10.0, 10.0, 10.0]}
    assert stats.op_durations(2) == {}
    assert stats.op_durations(2)["mm"] == []  # a defaultdict(list)


def test_stats_op_duration_of_end_before_start_is_zero():
    stats = SimStats(num_mes=4, num_ves=4)
    stats.op_records.append((0, "mm", 1, 0, 300.0, 100.0))
    stats.op_records.append((0, "mm", 1, 1, 300.0, 300.0))
    assert stats.op_durations(0)["mm"] == [0.0, 0.0]


def test_stats_op_durations_keep_finish_order():
    """Durations follow the order operators finished in, not their
    start cycles or request ids."""
    stats = SimStats(num_mes=4, num_ves=4)
    stats.op_records.append((0, "mm", 1, 2, 40.0, 70.0))
    stats.op_records.append((0, "mm", 1, 0, 0.0, 80.0))
    stats.op_records.append((0, "mm", 1, 1, 20.0, 90.0))
    assert stats.op_durations(0)["mm"] == [30.0, 80.0, 70.0]


def test_stats_bandwidth_average():
    stats = SimStats(num_mes=4, num_ves=4, record_bandwidth=True)
    stats.record_epoch(0.0, 10.0, {}, {}, hbm_bytes_per_cycle=100.0)
    stats.record_epoch(10.0, 10.0, {}, {}, hbm_bytes_per_cycle=300.0)
    assert stats.average_bandwidth() == pytest.approx(200.0)


def test_ordered_sum_adds_left_to_right_on_every_python():
    """Result means add in order.  From Python 3.12 the builtin sum()
    compensates float rounding, so on this input it returns the exact
    1.0 where a left-to-right sum returns 0.0."""
    values = [1e16, 1.0, -1e16]
    assert ordered_sum(values) == 0.0
    assert math.fsum(values) == 1.0
    assert sum(values) == (1.0 if sys.version_info >= (3, 12) else 0.0)
    assert ordered_mean(values) == 0.0
    assert ordered_mean([]) == 0.0


def test_ordered_sum_matches_the_sequential_reference():
    """Whichever implementation this interpreter gets, it adds exactly
    as ``reduce(add, values, 0.0)`` does."""
    rng = random.Random(5)
    for _ in range(200):
        values = [
            rng.choice([rng.uniform(-1e16, 1e16), rng.random(),
                        rng.randrange(-9, 9), -0.0])
            for _ in range(rng.randrange(0, 40))
        ]
        expected = reduce(add, values, 0.0)
        got = ordered_sum(values)
        assert type(got) is float
        assert repr(got) == repr(expected)
        assert repr(ordered_sum(iter(values))) == repr(expected)


def test_result_means_use_the_ordered_sum():
    from array import array

    from repro.sim.engine import TenantResult
    from repro.traffic.slo import SloReport

    values = [1e16, 1.0, -1e16]
    tenant = TenantResult(
        tenant_id=0, name="t", latencies_cycles=values,
        throughput_rps=0.0, me_utilization=0.0, ve_utilization=0.0,
        blocked_fraction=0.0, completed_requests=3,
        queueing_cycles=values,
    )
    report = SloReport(
        name="t", scheme="neu10", target_cycles=1.0, offered=3,
        completed=3, attained=0, duration_s=1.0,
        latencies_cycles=values, queueing_cycles=values,
    )
    # The packed logs a report builds and checkpoints.
    packed = SloReport(
        name="t", scheme="neu10", target_cycles=1.0, offered=3,
        completed=3, attained=0, duration_s=1.0,
        latencies_cycles=array("d", values),
        queueing_cycles=array("d", values),
    )
    for holder in (tenant, report, packed):
        assert holder.mean_latency == 0.0
        assert holder.mean_queueing_delay == 0.0


# ----------------------------------------------------------------------
# Scheduler hardware cost (SectionIII-G)
# ----------------------------------------------------------------------
def test_scheduler_cost_negligible():
    cost = scheduler_cost(DEFAULT_CORE)
    assert cost.total_bytes < 64 * 1024
    assert cost.die_fraction < 0.0004  # paper: 0.04 %


def test_scheduler_cost_scales_with_engines():
    small = scheduler_cost(DEFAULT_CORE)
    big = scheduler_cost(DEFAULT_CORE.with_engines(8, 8))
    assert big.total_bytes > small.total_bytes
