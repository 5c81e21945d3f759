"""Properties of the segment timeline (`repro.traffic.stepper`).

The boundary merge is the one piece of arithmetic every checkpoint,
resume, and live injection depends on: if two paths ever disagree on
where segment cuts fall, "bit-identical resume" silently dies.  These
are randomized property tests (seeded, so deterministic) over the
merge invariants, plus unit coverage of the checkpoint container.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.virt import (
    FAULT_BURST_STORM,
    FAULT_HOST_CRASH,
    FaultSpec,
)
from repro.errors import CheckpointError
from repro.traffic.cluster_sim import ChurnEvent
from repro.traffic.openloop import TrafficTenantSpec
from repro.traffic.stepper import (
    EVENT_CHURN,
    EVENT_FAULT,
    ClusterCheckpoint,
    build_timeline,
    merge_boundaries,
)

MNIST = TrafficTenantSpec(model="MNIST", batch=8)


def _random_events(rng: random.Random, end_s: float):
    """A random churn script plus random point/window faults."""
    churn = []
    for i in range(rng.randrange(0, 6)):
        t = round(rng.uniform(0.0, end_s * 1.2), 9)
        if rng.random() < 0.5:
            churn.append(ChurnEvent(t, "arrive", f"t{i}", spec=MNIST))
        else:
            churn.append(ChurnEvent(t, "depart", f"t{i}"))
    churn.sort(key=lambda e: e.time_s)
    faults = []
    for _ in range(rng.randrange(0, 4)):
        t = round(rng.uniform(0.0, end_s * 1.2), 9)
        if rng.random() < 0.5:
            faults.append(FaultSpec(kind=FAULT_HOST_CRASH, time_s=t))
        else:
            faults.append(FaultSpec(
                kind=FAULT_BURST_STORM, time_s=t,
                duration_s=rng.uniform(0.0001, end_s), factor=2.0,
            ))
    faults.sort(key=lambda f: f.time_s)
    return churn, faults


# ----------------------------------------------------------------------
# merge_boundaries properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(50))
def test_boundaries_sorted_unique_and_cover_interval(seed):
    rng = random.Random(seed)
    end_s = rng.choice([0.001, 0.004, 1.0, 37.5])
    churn, _ = _random_events(rng, end_s)
    interval = rng.choice([None, end_s / 3, end_s / 7, end_s * 2])
    extra = tuple(
        round(rng.uniform(-end_s, end_s * 1.5), 9)
        for _ in range(rng.randrange(0, 4))
    )
    bounds = merge_boundaries(churn, end_s, interval, extra_cuts=extra)
    # Coverage: starts at 0, ends at end_s.
    assert bounds[0] == 0.0
    assert bounds[-1] == end_s
    # Strictly increasing -- which is dedupe and ordering in one.
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    # Every in-horizon churn time is a cut.
    for event in churn:
        if event.time_s < end_s:
            assert event.time_s in bounds
    # Every in-horizon (0, end_s) extra cut is present.
    for cut in extra:
        if 0.0 < cut < end_s:
            assert cut in bounds
    # Segments tile [0, end_s] exactly (no gaps, no overlap).
    assert sum(b - a for a, b in zip(bounds, bounds[1:])) == pytest.approx(
        end_s
    )


@pytest.mark.parametrize("seed", range(30))
def test_merge_is_insensitive_to_event_interleaving(seed):
    """Shuffling the churn list never changes the merged boundaries."""
    rng = random.Random(1000 + seed)
    end_s = 0.01
    churn, _ = _random_events(rng, end_s)
    reference = merge_boundaries(churn, end_s, end_s / 4)
    for _ in range(5):
        shuffled = churn[:]
        rng.shuffle(shuffled)
        assert merge_boundaries(shuffled, end_s, end_s / 4) == reference


def test_autoscale_ticks_dedupe_against_churn_cuts():
    """A tick landing (within eps) on a churn time must not double-cut."""
    end_s = 0.004
    churn = [ChurnEvent(0.002, "arrive", "a", spec=MNIST)]
    bounds = merge_boundaries(churn, end_s, 0.001)
    assert bounds == [0.0, 0.001, 0.002, 0.003, 0.004]


def test_boundaries_without_events_is_single_segment():
    assert merge_boundaries([], 0.5, None) == [0.0, 0.5]


def _quadratic_boundaries(events, end_s, interval_s, extra_cuts=()):
    """The reference merge: every autoscale tick tested against every
    non-tick cut."""
    cuts = {0.0, end_s}
    cuts.update(ev.time_s for ev in events if ev.time_s < end_s)
    cuts.update(t for t in extra_cuts if 0.0 < t < end_s)
    eps = end_s * 1e-9
    exact = sorted(cuts)
    i = 1
    while i * interval_s < end_s - eps:
        t = i * interval_s
        if all(abs(t - c) > eps for c in exact):
            cuts.add(t)
        i += 1
    return sorted(cuts)


@pytest.mark.parametrize("seed", range(40))
def test_tick_filter_matches_the_quadratic_reference(seed):
    """The bisected tick filter keeps exactly the ticks the all-cuts
    scan keeps, including cuts placed at, inside and just outside the
    float-jitter window around a tick."""
    rng = random.Random(3000 + seed)
    end_s = rng.choice([0.001, 0.004, 1.0, 37.5])
    interval = end_s / rng.randrange(2, 60)
    eps = end_s * 1e-9
    churn, faults = _random_events(rng, end_s)
    extra = [f.time_s for f in faults]
    for _ in range(rng.randrange(0, 30)):
        tick = rng.randrange(1, int(end_s / interval) + 1) * interval
        offset = rng.choice([0.0, 0.5, 1.0, 1.5, 3.0, -0.5, -1.0, -2.0])
        extra.append(tick + offset * eps)
    extra += [rng.uniform(-end_s, end_s * 1.5) for _ in range(5)]
    assert merge_boundaries(churn, end_s, interval, extra) == (
        _quadratic_boundaries(churn, end_s, interval, extra)
    )


# ----------------------------------------------------------------------
# build_timeline properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(50))
def test_timeline_events_land_on_boundaries(seed):
    rng = random.Random(2000 + seed)
    end_s = rng.choice([0.002, 0.02, 3.0])
    churn, faults = _random_events(rng, end_s)
    interval = rng.choice([None, end_s / 5])
    timeline = build_timeline(churn, faults, end_s, interval)
    bounds = set(timeline.boundaries)
    for t, entries in timeline.events_at.items():
        assert t in bounds
        assert entries  # no empty groups
    # Every in-horizon point fault cuts a boundary and is scheduled.
    scheduled = [
        ev for entries in timeline.events_at.values() for ev in entries
    ]
    for fault in faults:
        if fault.duration_s is None and 0.0 <= fault.time_s < end_s:
            assert fault.time_s in bounds
            assert any(
                ev.kind == EVENT_FAULT and ev.payload is fault
                for ev in scheduled
            )
    # Every in-horizon churn event is scheduled exactly once.
    for event in churn:
        if event.time_s < end_s:
            assert [
                ev for ev in scheduled
                if ev.kind == EVENT_CHURN and ev.payload is event
            ] == [next(
                ev for ev in scheduled
                if ev.kind == EVENT_CHURN and ev.payload is event
            )]


@pytest.mark.parametrize("seed", range(30))
def test_timeline_groups_churn_before_faults_in_input_order(seed):
    """At a shared boundary, churn applies before point faults, and
    each class preserves its (deterministic) input order."""
    rng = random.Random(3000 + seed)
    end_s = 0.01
    t = round(rng.uniform(0.0, end_s * 0.9), 9)
    churn = [
        ChurnEvent(t, "arrive", "a", spec=MNIST),
        ChurnEvent(t, "depart", "b"),
    ]
    faults = [
        FaultSpec(kind=FAULT_HOST_CRASH, time_s=t),
        FaultSpec(kind=FAULT_HOST_CRASH, time_s=t, host="h1"),
    ]
    timeline = build_timeline(churn, faults, end_s, None)
    entries = timeline.events_at[t]
    kinds = [ev.kind for ev in entries]
    assert kinds == [EVENT_CHURN, EVENT_CHURN, EVENT_FAULT, EVENT_FAULT]
    assert [ev.payload for ev in entries] == churn + faults


def test_total_segments_counts_boundary_gaps():
    timeline = build_timeline([], [], 1.0, 0.25)
    assert timeline.total_segments == 4
    assert list(timeline.boundaries) == [0.0, 0.25, 0.5, 0.75, 1.0]


# ----------------------------------------------------------------------
# ClusterCheckpoint container
# ----------------------------------------------------------------------
def _checkpoint() -> ClusterCheckpoint:
    return ClusterCheckpoint.create(
        config_digest="abc123", segment_index=2, time_s=0.5,
        state={"x": 1, "y": [2, 3]},
    )


def test_checkpoint_roundtrips_via_dict():
    cp = _checkpoint()
    back = ClusterCheckpoint.from_dict(cp.to_dict())
    assert back == cp
    assert back.state() == {"x": 1, "y": [2, 3]}


def test_checkpoint_verify_rejects_corrupt_payload():
    cp = _checkpoint()
    raw = cp.to_dict()
    raw["payload"] = raw["payload"][:-4] + "AAA="
    with pytest.raises(CheckpointError):
        ClusterCheckpoint.from_dict(raw).verify()


def test_checkpoint_rejects_unknown_version():
    # Version 1 checkpoints predate the fleet-owned id counters, and
    # version 2 ones pickle their latency logs as lists of floats.
    for version in (1, 2, 99):
        raw = _checkpoint().to_dict()
        raw["version"] = version
        with pytest.raises(
            CheckpointError, match=f"version {version} is not supported"
        ):
            ClusterCheckpoint.from_dict(raw)


def test_checkpoint_rejects_missing_fields():
    raw = _checkpoint().to_dict()
    del raw["payload"]
    with pytest.raises(CheckpointError):
        ClusterCheckpoint.from_dict(raw)
