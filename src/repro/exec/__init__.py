"""``repro.exec`` -- pluggable fault-tolerant execution for sweeps.

The orchestration layer between "a list of independent simulations" and
"a finished result list": an :class:`Executor` maps a deterministic,
picklable function over keyed tasks and returns outcomes in task order,
whatever ran where, crashed when, or was retried how often.  Three
built-in backends trade robustness for machinery (``serial`` < ``pool``
< ``local-queue``; see :mod:`repro.exec.base`), the
:data:`repro.api.registries.EXECUTORS` registry lets third-party
backends plug in by name, and :class:`SweepJournal` adds append-only
checkpointing so a killed sweep resumes bit-identically instead of
restarting.

Every process fan-out goes through :meth:`Executor.map_tasks`, and
only independent runs fan out: every sweep
(:func:`~repro.api.runner.sweep_scenario_report`, and
:func:`~repro.api.runner.sweep_scenario` over it) maps one journalled
task per sweep point, and
:func:`repro.experiments.common.run_all_pairs` maps one task per
(pair, scheme).  A cluster segment's hosts are parts of one answer and
step in-process (:mod:`repro.traffic.cluster_sim`).  See
``docs/sweeps.md`` for the how-to.
"""

from repro.errors import ExecError
from repro.exec.base import (
    DEFAULT_BACKOFF_S,
    DEFAULT_RETRIES,
    CompletionHook,
    ExecSpec,
    ExecTask,
    Executor,
    TaskFailure,
    TaskOutcome,
    summarize_failures,
)
from repro.exec.journal import JOURNAL_SCHEMA_VERSION, SweepJournal
from repro.exec.localqueue import LocalQueueExecutor
from repro.exec.pool import PoolExecutor
from repro.exec.serial import SerialExecutor

__all__ = [
    "CompletionHook",
    "DEFAULT_BACKOFF_S",
    "DEFAULT_RETRIES",
    "ExecError",
    "ExecSpec",
    "ExecTask",
    "Executor",
    "JOURNAL_SCHEMA_VERSION",
    "LocalQueueExecutor",
    "PoolExecutor",
    "SerialExecutor",
    "SweepJournal",
    "TaskFailure",
    "TaskOutcome",
    "summarize_failures",
]
