"""ServeController: live stepping, checkpointing, and injection."""

from __future__ import annotations

import pytest

from repro.api import run_scenario
from repro.api.scenario import Scenario
from repro.errors import CheckpointError, ConfigError, ValidationError
from repro.serve import INJECT_KINDS, ServeController, sign_checkpoint


def _scenario(**overrides) -> Scenario:
    spec = {
        "name": "serve-under-test",
        "kind": "cluster",
        "scheme": "neu10",
        "duration_s": 0.002,
        "load": 0.6,
        "seed": 7,
        "hosts": 2,
        "cores_per_host": 1,
        "autoscaler": {"policy": "threshold", "interval_s": 0.0005},
        "churn": [
            {"time_s": 0.0, "action": "arrive", "name": "a",
             "model": "MNIST", "batch": 4, "num_mes": 2, "num_ves": 2},
            {"time_s": 0.001, "action": "arrive", "name": "b",
             "model": "NCF", "batch": 4, "num_mes": 2, "num_ves": 2},
        ],
    }
    spec.update(overrides)
    return Scenario.from_dict(spec)


def test_controller_rejects_non_cluster_scenarios():
    spec = {
        "name": "not-cluster", "kind": "open_loop", "scheme": "neu10",
        "duration_s": 0.001, "load": 0.5, "seed": 1,
        "tenants": [{"model": "MNIST", "batch": 8}],
    }
    with pytest.raises(ConfigError, match="cluster"):
        ServeController(Scenario.from_dict(spec))


def test_advance_to_completion_matches_repro_run():
    scenario = _scenario()
    controller = ServeController(scenario)
    status = controller.status()
    assert status["done"] is False and status["segments_completed"] == 0
    observations = controller.advance(until_s=scenario.duration_s)
    assert len(observations) == status["total_segments"]
    assert controller.status()["done"] is True
    assert controller.metrics() == run_scenario(scenario).to_dict()


def test_segment_stream_grows_with_steps():
    controller = ServeController(_scenario())
    controller.advance(segments=2)
    assert [o["segment_index"] for o in controller.segments()] == [0, 1]
    assert [o["segment_index"] for o in controller.segments(since=1)] == [1]
    with pytest.raises(ValidationError):
        controller.advance(segments=-1)


def test_snapshot_restore_round_trip_preserves_metrics():
    scenario = _scenario()
    controller = ServeController(scenario)
    controller.advance(segments=2)
    snapshot = controller.snapshot()
    controller.advance(until_s=scenario.duration_s)
    reference = controller.metrics()
    status = controller.restore(snapshot)
    assert status["segments_completed"] == 2 and status["done"] is False
    controller.advance(until_s=scenario.duration_s)
    assert controller.metrics() == reference


def test_restore_refuses_corrupt_snapshot():
    controller = ServeController(_scenario())
    controller.advance(segments=1)
    snapshot = controller.snapshot()
    snapshot["payload"] = snapshot["payload"][:-8] + "AAAAAAA="
    with pytest.raises(CheckpointError):
        controller.restore(snapshot)


def test_restore_authenticates_with_the_shared_key():
    scenario = _scenario()
    first = ServeController(scenario, restore_key="s3cret")
    first.advance(segments=2)
    snapshot = first.snapshot()
    # A replacement controller holding the same key accepts the
    # snapshot; one with a different (random) key refuses it unseen.
    second = ServeController(scenario, restore_key="s3cret")
    assert second.restore(snapshot)["segments_completed"] == 2
    stranger = ServeController(scenario)
    with pytest.raises(CheckpointError, match="auth"):
        stranger.restore(snapshot)
    with pytest.raises(CheckpointError, match="auth"):
        second.restore({k: v for k, v in snapshot.items() if k != "auth"})


def test_restore_refuses_a_non_ascii_auth():
    controller = ServeController(_scenario())
    controller.advance(segments=1)
    snapshot = controller.snapshot()
    with pytest.raises(CheckpointError, match="auth"):
        controller.restore(dict(snapshot, auth="\u00e9" * 64))
    assert controller.restore(snapshot)["segments_completed"] == 1


def _two_snapshots(controller):
    """Signed snapshots taken at segments 1 and 2, which leave the
    controller at segment 2."""
    controller.advance(segments=1)
    first = controller.snapshot()
    controller.advance(segments=1)
    return first, controller.snapshot()


def test_signed_header_binds_the_payload():
    """The HMAC signs the header, not the payload: another snapshot's
    payload under this header fails its digest check before anything is
    unpickled, and the live run stays as it was."""
    controller = ServeController(_scenario())
    first, second = _two_snapshots(controller)
    before = controller.metrics()
    swapped = dict(second, payload=first["payload"])
    with pytest.raises(CheckpointError, match="corrupt"):
        controller.restore(swapped)
    assert controller.status()["segments_completed"] == 2
    assert controller.metrics() == before


def test_signature_covers_the_payload_digest():
    """Swapping ``payload`` and ``payload_digest`` together under the
    old ``auth`` fails the signature."""
    controller = ServeController(_scenario())
    first, second = _two_snapshots(controller)
    swapped = dict(
        second,
        payload=first["payload"],
        payload_digest=first["payload_digest"],
    )
    with pytest.raises(CheckpointError, match="auth"):
        controller.restore(swapped)
    assert controller.status()["segments_completed"] == 2


def test_sign_checkpoint_admits_unsigned_journal_payloads():
    controller = ServeController(_scenario(), restore_key="k")
    controller.advance(segments=1)
    unsigned = {
        k: v for k, v in controller.snapshot().items() if k != "auth"
    }
    signed = sign_checkpoint(unsigned, "k")
    assert controller.restore(signed)["segments_completed"] == 1


def test_failed_restore_leaves_the_live_run_untouched():
    controller = ServeController(_scenario())
    controller.advance(segments=2)
    before = controller.metrics()
    other = ServeController(_scenario(seed=8))
    other.advance(segments=1)
    # Correctly signed for this controller, but from a different
    # scenario: the digest check must refuse it *without* swapping the
    # controller onto fresh inputs.
    foreign = sign_checkpoint(
        {k: v for k, v in other.snapshot().items() if k != "auth"},
        controller.restore_key,
    )
    with pytest.raises(CheckpointError, match="different scenario"):
        controller.restore(foreign)
    assert controller.status()["segments_completed"] == 2
    assert controller.metrics() == before


def test_metrics_compute_the_scenario_digest_once(monkeypatch):
    """The scenario never changes, so the controller hashes it once, and
    each ``metrics()`` dict is byte for byte the one built with the
    digest computed per call."""
    import json

    from repro.api.runner import _cluster_run_result

    scenario = _scenario()
    real = Scenario.digest
    calls = []

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Scenario, "digest", spy)
    controller = ServeController(scenario)
    assert len(calls) == 1
    for _ in range(3):
        controller.advance(segments=1)
        served = json.dumps(controller.metrics(), sort_keys=True)
        assert len(calls) == 1
        rebuilt = _cluster_run_result(
            scenario, controller._cfg, controller.sim.result()
        ).to_dict()
        del calls[1:]  # the rebuild's own digest
        assert served == json.dumps(rebuilt, sort_keys=True)


def test_tick_respects_pause_and_done():
    controller = ServeController(_scenario())
    assert controller.tick() in (True, False)
    controller.pause()
    before = controller.status()["segments_completed"]
    assert controller.tick() is False
    assert controller.status()["segments_completed"] == before
    controller.start()
    while controller.tick():
        pass
    assert controller.status()["done"] is True


def test_inject_traffic_spike_changes_the_outcome():
    scenario = _scenario()
    reference = run_scenario(scenario).to_dict()
    controller = ServeController(scenario)
    controller.advance(segments=1)
    status = controller.inject({
        "kind": "traffic-spike",
        "time_s": 0.0012,
        "duration_s": 0.0006,
        "factor": 6.0,
    })
    assert status["total_segments"] >= controller.status()["total_segments"]
    controller.advance(until_s=scenario.duration_s)
    spiked = controller.metrics()
    assert spiked != reference
    assert any(
        f["kind"] == "burst-storm" for f in spiked["metrics"]["fault_events"]
    )


def test_inject_tenant_arrive_and_depart():
    # No autoscaler: the threshold policy would scale the idle second
    # host in before 0.0011s and the late tenant would be rejected.
    scenario = _scenario(autoscaler=None)
    controller = ServeController(scenario)
    controller.advance(segments=1)
    controller.inject({
        "kind": "tenant-arrive", "time_s": 0.0011, "name": "late",
        "model": "MNIST", "batch": 4, "num_mes": 2, "num_ves": 2,
    })
    controller.inject({
        "kind": "tenant-depart", "time_s": 0.0016, "name": "late",
    })
    controller.advance(until_s=scenario.duration_s)
    tenants = {t["name"] for t in controller.metrics()["metrics"]["tenants"]}
    assert "late" in tenants


@pytest.mark.parametrize("payload, field", [
    ({"kind": "nonsense", "time_s": 0.001}, "kind"),
    ({"kind": "traffic-spike"}, "time_s"),
    ({"kind": "traffic-spike", "time_s": 0.001}, "duration_s"),
    ({"kind": "tenant-arrive", "time_s": 0.001}, "name"),
    ({"kind": "tenant-arrive", "time_s": 0.001, "name": "x"}, "model"),
    ({"kind": "tenant-depart", "time_s": 0.001, "name": "a",
      "bogus": 1}, "payload"),
])
def test_inject_validation_names_the_field(payload, field):
    controller = ServeController(_scenario())
    with pytest.raises(ValidationError) as excinfo:
        controller.inject(payload)
    assert excinfo.value.field == field


def test_inject_refuses_conflicting_tenant_events():
    controller = ServeController(_scenario())
    controller.advance(segments=1)
    # "a" arrived at t=0 with no scheduled depart: a second arrival
    # would raise mid-boundary, so the injection is refused up front.
    with pytest.raises(ValidationError, match="resident"):
        controller.inject({
            "kind": "tenant-arrive", "time_s": 0.0016, "name": "a",
            "model": "MNIST",
        })
    with pytest.raises(ValidationError, match="not"):
        controller.inject({
            "kind": "tenant-depart", "time_s": 0.0016, "name": "ghost",
        })
    # The refusals left the run intact.
    controller.advance(until_s=1.0)
    assert controller.status()["done"] is True


def test_inject_rearrival_after_scheduled_depart_is_allowed():
    scenario = _scenario()
    controller = ServeController(scenario)
    controller.inject({
        "kind": "tenant-depart", "time_s": 0.0011, "name": "a",
    })
    controller.inject({
        "kind": "tenant-arrive", "time_s": 0.0016, "name": "a",
        "model": "MNIST", "batch": 4, "num_mes": 2, "num_ves": 2,
    })
    controller.advance(until_s=scenario.duration_s)
    assert controller.status()["done"] is True


def test_inject_refuses_past_times():
    controller = ServeController(_scenario())
    controller.advance(segments=2)
    now = controller.status()["time_s"]
    with pytest.raises(ValidationError):
        controller.inject({
            "kind": "traffic-spike", "time_s": now / 2, "duration_s": 0.0005,
        })


def test_inject_kinds_catalog_is_exhaustive():
    assert set(INJECT_KINDS) == {
        "tenant-arrive", "tenant-depart", "traffic-spike",
        "hypercall-spike", "host-crash", "vf-loss",
    }
