"""Kill a checkpointed sweep mid-flight (SIGKILL), resume, compare.

The acceptance test for the checkpoint/resume design, run through
``tools/exec_smoke.py`` so the test and the CI smoke share one kill
script: a ``repro sweep --executor local-queue --checkpoint DIR``
process is SIGKILLed on its second progress tick, then the sweep is
resumed -- and the merged results must be bit-identical to an
uninterrupted serial run of all 12 points.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_sigkill_mid_sweep_then_resume_matches_serial(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    smoke = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "exec_smoke.py"),
         "--points", "12", "--keep", str(tmp_path)],
        env=env, cwd=REPO_ROOT, timeout=900,
        capture_output=True, text=True,
    )
    assert smoke.returncode == 0, smoke.stdout + smoke.stderr
