#!/usr/bin/env python
"""End-to-end smoke for checkpointed sweeps: run, SIGKILL, resume, diff.

The CI ``exec-smoke`` job's script.  It exercises the whole
``repro.exec`` story through the real CLI, as three subprocess runs:

1. an uninterrupted ``repro sweep --executor serial`` (the reference);
2. a ``--executor local-queue --checkpoint DIR --progress`` run whose
   process group is SIGKILLed the moment its second progress tick
   reaches stderr -- parent and spawned workers die mid-flight, leaving
   a partial (possibly torn) journal.  A tick is printed only after its
   shard's journal line is written, so the kill always lands with at
   least two shards journalled, however fast the shards finish;
3. a ``--checkpoint DIR --resume`` run that replays the journal and
   finishes the sweep.

The resumed output must be **bit-identical** to the reference.  Exit 0
on success, 1 with a diagnostic on any mismatch.

Usage::

    PYTHONPATH=src python tools/exec_smoke.py [--points N] [--keep DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCENARIO = {
    "name": "exec-smoke",
    "kind": "open_loop",
    "scheme": "neu10",
    "duration_s": 0.0012,
    "load": 0.8,
    "seed": 11,
    "tenants": [{"model": "MNIST", "batch": 8}],
}


def _sweep_cmd(scenario_file: Path, values: str, extra: list) -> list:
    return [
        sys.executable, "-m", "repro.cli", "sweep", str(scenario_file),
        "--param", "load", "--values", values, *extra,
    ]


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}:{existing}"
    return env


def _journal_results(journal: Path) -> int:
    if not journal.exists():
        return 0
    return sum(
        1 for line in journal.read_text(encoding="utf-8").splitlines()
        if '"result"' in line
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=12,
                        help="sweep points (load values)")
    parser.add_argument("--keep", type=Path, default=None,
                        help="work under DIR and keep it (default: tmp)")
    args = parser.parse_args(argv)

    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
        work = args.keep
    else:
        work = Path(tempfile.mkdtemp(prefix="exec-smoke-"))
    values = ",".join(
        str(round(0.4 + 0.05 * i, 2)) for i in range(args.points)
    )
    scenario_file = work / "scenario.json"
    scenario_file.write_text(json.dumps(SCENARIO), encoding="utf-8")
    ck = work / "ck"
    env = _env()

    # 1. Uninterrupted serial reference.
    ref_out = work / "reference.json"
    subprocess.run(
        _sweep_cmd(scenario_file, values,
                   ["--executor", "serial", "--json",
                    "--output", str(ref_out), "--no-progress"]),
        check=True, env=env, cwd=REPO, timeout=600,
    )
    reference = json.loads(ref_out.read_text(encoding="utf-8"))
    if len(reference) != args.points:
        print(f"FAIL: reference has {len(reference)} point(s), expected "
              f"{args.points}", file=sys.stderr)
        return 1
    print(f"reference: {len(reference)} point(s)")

    # 2. Checkpointed local-queue run, killed on its second tick.
    proc = subprocess.Popen(
        _sweep_cmd(scenario_file, values,
                   ["--executor", "local-queue", "--workers", "2",
                    "--checkpoint", str(ck), "--json", "--progress"]),
        env=env, cwd=REPO, start_new_session=True, text=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )

    def _kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the sweep already exited

    # A hung sweep would block the readline loop forever.
    watchdog = threading.Timer(300.0, _kill_group)
    watchdog.start()
    killed = False
    try:
        for line in proc.stderr:
            if "[2/" in line:
                _kill_group()
                killed = True
                break
        proc.wait(timeout=60)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group()
            proc.wait(timeout=60)
        proc.stderr.close()

    if not killed:
        print(f"FAIL: the sweep exited {proc.returncode} without a second "
              "progress tick", file=sys.stderr)
        return 1
    done = _journal_results(ck / "journal.jsonl")
    print(f"SIGKILLed the sweep on its second tick; the journal holds "
          f"{done}/{args.points} shard(s)")
    if done < 2:
        print("FAIL: the second tick came before its journal line",
              file=sys.stderr)
        return 1
    if done >= args.points or proc.returncode != -signal.SIGKILL:
        print(f"FAIL: sweep finished before the kill landed (exit "
              f"{proc.returncode}); raise --points", file=sys.stderr)
        return 1

    # 3. Resume (different backend, same journal) and diff.
    resumed_out = work / "resumed.json"
    resumed = subprocess.run(
        _sweep_cmd(scenario_file, values,
                   ["--executor", "serial", "--checkpoint", str(ck),
                    "--resume", "--json", "--output", str(resumed_out)]),
        env=env, cwd=REPO, timeout=600,
        capture_output=True, text=True,
    )
    if resumed.returncode != 0:
        print(f"FAIL: resume exited {resumed.returncode}:\n"
              f"{resumed.stderr}", file=sys.stderr)
        return 1
    sys.stderr.write(resumed.stderr)
    merged = json.loads(resumed_out.read_text(encoding="utf-8"))

    if merged != reference:
        for i, (a, b) in enumerate(zip(merged, reference)):
            if a != b:
                print(f"FAIL: point {i} differs:\n  resumed:   {a}\n"
                      f"  reference: {b}", file=sys.stderr)
                break
        else:
            print(f"FAIL: length mismatch {len(merged)} vs "
                  f"{len(reference)}", file=sys.stderr)
        return 1

    print(f"OK: resumed output is bit-identical to the uninterrupted "
          f"run ({len(merged)} point(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
