"""HTTP surface of ``repro serve`` (in-process server, real sockets)."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import run_scenario
from repro.api.scenario import Scenario
from repro.serve import make_server


def _scenario() -> Scenario:
    return Scenario.from_dict({
        "name": "serve-http-under-test",
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
        ],
    })


@pytest.fixture
def server():
    srv = make_server(_scenario())
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def _get(server, path):
    host, port = server.server_address[:2]
    with urllib.request.urlopen(f"http://{host}:{port}{path}") as resp:
        return json.load(resp)


def _post(server, path, body=None):
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(body or {}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as resp:
        return json.load(resp)


def _wait_for(srv, key, deadline_s=10.0):
    """Poll ``/status`` until ``key`` reads true or the deadline passes;
    return the last status."""
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        status = _get(srv, "/status")
        if status[key]:
            return status
        time.sleep(0.02)
    return _get(srv, "/status")


def test_status_advance_metrics_round_trip(server):
    status = _get(server, "/status")
    assert status["scenario"] == "serve-http-under-test"
    assert status["done"] is False
    reply = _post(server, "/advance", {"segments": 2})
    assert len(reply["segments"]) == 2
    assert reply["status"]["segments_completed"] == 2
    streamed = _get(server, "/segments?since=1")
    assert [o["segment_index"] for o in streamed] == [1]
    _post(server, "/advance", {"until_s": 1.0})
    assert _get(server, "/status")["done"] is True
    assert _get(server, "/metrics") == run_scenario(_scenario()).to_dict()


def test_snapshot_restore_over_http(server):
    _post(server, "/advance", {"segments": 1})
    snapshot = _get(server, "/snapshot")
    _post(server, "/advance", {"until_s": 1.0})
    reference = _get(server, "/metrics")
    status = _post(server, "/restore", snapshot)
    assert status["segments_completed"] == 1 and status["done"] is False
    _post(server, "/advance", {"until_s": 1.0})
    assert _get(server, "/metrics") == reference


def test_inject_and_error_statuses(server):
    _post(server, "/inject", {
        "kind": "traffic-spike", "time_s": 0.0012,
        "duration_s": 0.0005, "factor": 5.0,
    })
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server, "/inject", {"kind": "nonsense", "time_s": 0.001})
    assert excinfo.value.code == 400
    assert "error" in json.load(excinfo.value)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/nope")
    assert excinfo.value.code == 404
    _post(server, "/advance", {"segments": 1})
    snapshot = _get(server, "/snapshot")
    snapshot["payload"] = snapshot["payload"][:-8] + "AAAAAAA="
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server, "/restore", snapshot)
    assert excinfo.value.code == 409


def test_malformed_parameters_return_400_not_a_dead_socket(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/segments?since=abc")
    assert excinfo.value.code == 400
    assert "error" in json.load(excinfo.value)
    for path, body in [
        ("/advance", {"until_s": "abc"}),
        ("/advance", {"segments": "abc"}),
        ("/inject", {"kind": "traffic-spike", "time_s": "soon",
                     "duration_s": 0.0005}),
        ("/inject", {"kind": "traffic-spike", "time_s": 0.0015,
                     "duration_s": "long"}),
    ]:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, path, body)
        assert excinfo.value.code == 400, (path, body)
        assert "error" in json.load(excinfo.value)
    # The server survived every one of them.
    assert _get(server, "/status")["scenario"] == "serve-http-under-test"


def test_restore_requires_the_auth_hmac(server):
    _post(server, "/advance", {"segments": 1})
    snapshot = _get(server, "/snapshot")
    assert "auth" in snapshot
    unsigned = {k: v for k, v in snapshot.items() if k != "auth"}
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server, "/restore", unsigned)
    assert excinfo.value.code == 409
    forged = dict(snapshot, auth="0" * 64)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server, "/restore", forged)
    assert excinfo.value.code == 409
    # A non-ASCII auth is refused like any other forgery, not as a
    # malformed parameter.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server, "/restore", dict(snapshot, auth="\u00e9" * 64))
    assert excinfo.value.code == 409
    # The genuine signed snapshot still restores.
    status = _post(server, "/restore", snapshot)
    assert status["segments_completed"] == 1


def test_auto_tick_starts_paused_then_runs():
    srv = make_server(_scenario(), tick_s=0.02)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    srv.start_ticker()
    try:
        time.sleep(0.1)
        assert _get(srv, "/status")["segments_completed"] == 0  # paused
        _post(srv, "/start")
        assert _wait_for(srv, "done")["done"] is True
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def test_failing_tick_pauses_and_restore_resumes_ticking(monkeypatch):
    """A segment that raises under the auto-tick pauses the session (the
    tick thread lives on); restoring a snapshot taken before the failure
    and starting again runs to the uninterrupted run's metrics."""
    from repro.errors import SimulationError
    from repro.traffic import cluster_sim

    reference = run_scenario(_scenario()).to_dict()
    real = cluster_sim.run_simulators
    calls = []

    def fails_once(sims):
        calls.append(len(sims))
        if len(calls) == 3:
            raise SimulationError("injected host failure")
        return real(sims)

    srv = make_server(_scenario(), tick_s=0.01)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    srv.start_ticker()
    try:
        snapshot = _get(srv, "/snapshot")
        monkeypatch.setattr(cluster_sim, "run_simulators", fails_once)
        _post(srv, "/start")
        status = _wait_for(srv, "paused")
        assert status["paused"] is True and status["done"] is False
        assert len(calls) == 3
        _post(srv, "/restore", snapshot)
        _post(srv, "/start")
        assert _wait_for(srv, "done")["done"] is True
        assert _get(srv, "/metrics") == reference
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
