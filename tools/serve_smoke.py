#!/usr/bin/env python
"""End-to-end smoke for ``repro serve``: advance, SIGKILL, restore, diff.

The CI ``serve-smoke`` job's script.  It exercises the live-control
story through the real CLI, across a hard process death:

1. an uninterrupted ``repro run --json`` (the reference);
2. a ``repro serve`` server advanced part-way over HTTP, snapshotted,
   then SIGKILLed -- the snapshot JSON is all that survives;
3. a *fresh* ``repro serve --tick 0.01`` process, which first refuses
   the snapshot with another snapshot's payload swapped in under the
   same signed header (409, and ``/status`` still answers), then
   starts paused, restores the snapshot over HTTP, takes ``POST
   /start`` and finishes on its auto-tick thread while the tool polls
   ``/status``.

The restored run's ``/metrics`` must be **bit-identical** to the
reference.  Exit 0 on success, 1 with a diagnostic on any mismatch.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--keep DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Auto-tick cadence of the restoring server, seconds per segment.
TICK_S = 0.01

SCENARIO = {
    "name": "serve-smoke",
    "kind": "cluster",
    "scheme": "neu10",
    "duration_s": 0.003,
    "load": 0.7,
    "seed": 23,
    "hosts": 2,
    "cores_per_host": 1,
    "autoscaler": {"policy": "threshold", "interval_s": 0.0006},
    "virtualization": {"num_vfs": 4, "hypercall_cost_s": 0.00002},
    "faults": [
        {"kind": "burst-storm", "time_s": 0.001, "duration_s": 0.0008,
         "factor": 2.0},
    ],
    "churn": [
        {"time_s": 0.0, "action": "arrive", "name": "a",
         "model": "MNIST", "batch": 4, "num_mes": 2, "num_ves": 2},
        {"time_s": 0.0012, "action": "arrive", "name": "b",
         "model": "NCF", "batch": 4, "num_mes": 2, "num_ves": 2},
    ],
}


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}:{existing}"
    return env


def _start_server(scenario_file: Path, env: dict, restore_key=None,
                  tick_s=None):
    """Start ``repro serve``; return (proc, base_url, restore_key).

    ``restore_key`` lets a replacement server accept snapshots signed
    by a dead one; without it the server mints (and announces) a fresh
    key.  ``tick_s`` starts the auto-tick thread at that cadence.
    """
    command = [sys.executable, "-m", "repro.cli", "serve",
               str(scenario_file), "--port", "0"]
    if restore_key is not None:
        command += ["--restore-key", restore_key]
    if tick_s is not None:
        command += ["--tick", str(tick_s)]
    proc = subprocess.Popen(
        command,
        env=env, cwd=REPO, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError("serve printed no address line")
    address = json.loads(line)
    base = f"http://{address['host']}:{address['port']}"
    return proc, base, address["restore_key"]


def _kill(proc) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=60) as resp:
        return json.load(resp)


def _post(base: str, path: str, body=None):
    request = urllib.request.Request(
        base + path, data=json.dumps(body or {}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=600) as resp:
        return json.load(resp)


def _post_status(base: str, path: str, body) -> int:
    """The HTTP status ``POST path`` answers with."""
    try:
        _post(base, path, body)
    except urllib.error.HTTPError as exc:
        return exc.code
    return 200


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keep", type=Path, default=None,
                        help="work under DIR and keep it (default: tmp)")
    args = parser.parse_args(argv)

    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
        work = args.keep
    else:
        work = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    scenario_file = work / "scenario.json"
    scenario_file.write_text(json.dumps(SCENARIO), encoding="utf-8")
    env = _env()

    # 1. Uninterrupted reference run.
    ref_out = work / "reference.json"
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", str(scenario_file),
         "--json", "--output", str(ref_out)],
        check=True, env=env, cwd=REPO, timeout=600,
        stdout=subprocess.DEVNULL,
    )
    reference = json.loads(ref_out.read_text(encoding="utf-8"))
    print("reference run complete")

    # 2. Serve, advance part-way, snapshot, SIGKILL.
    proc, base, restore_key = _start_server(scenario_file, env)
    try:
        status = _get(base, "/status")
        total = status["total_segments"]
        # A genuine, signed snapshot of segment 0: its payload is the
        # one step 3 swaps in.
        early = _get(base, "/snapshot")
        cut = max(1, total // 2)
        reply = _post(base, "/advance", {"segments": cut})
        print(f"advanced {len(reply['segments'])} of {total} segment(s) "
              "over HTTP")
        snapshot = _get(base, "/snapshot")
        (work / "snapshot.json").write_text(
            json.dumps(snapshot), encoding="utf-8"
        )
    finally:
        _kill(proc)
    print(f"SIGKILLed the server at segment {snapshot['segment_index']}")

    # 3. Fresh ticking server sharing the dead one's restore key (the
    # snapshot is signed with it): restore while paused, start, let the
    # auto-tick finish, diff.
    proc, base, _ = _start_server(scenario_file, env, restore_key,
                                  tick_s=TICK_S)
    try:
        # The restore key signs the header, payload_digest included, not
        # the payload: another snapshot's payload under this header must
        # fail its digest check before anything is unpickled.
        swapped = dict(snapshot, payload=early["payload"])
        code = _post_status(base, "/restore", swapped)
        if code != 409:
            print(f"FAIL: a swapped payload got HTTP {code}, not 409",
                  file=sys.stderr)
            return 1
        if _get(base, "/status")["segments_completed"] != 0:
            print("FAIL: the refused restore moved the session",
                  file=sys.stderr)
            return 1
        print("refused a swapped payload with 409")
        restored = _post(base, "/restore", snapshot)
        if restored["segments_completed"] != snapshot["segment_index"]:
            print("FAIL: restore did not land on the snapshot segment",
                  file=sys.stderr)
            return 1
        _post(base, "/start")
        deadline = time.monotonic() + 600
        status = _get(base, "/status")
        while not status["done"] and not status["paused"]:
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
            status = _get(base, "/status")
        if not status["done"]:
            print(f"FAIL: the auto-tick did not finish the run: {status}",
                  file=sys.stderr)
            return 1
        print(f"auto-tick finished segment {status['segments_completed']}")
        metrics = _get(base, "/metrics")
    finally:
        _kill(proc)

    if metrics != reference:
        diff_keys = [
            k for k in sorted(set(metrics) | set(reference))
            if metrics.get(k) != reference.get(k)
        ]
        print(f"FAIL: restored metrics differ from the reference "
              f"(keys: {diff_keys})", file=sys.stderr)
        return 1
    print("OK: metrics after cross-process restore are bit-identical "
          "to the uninterrupted run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
