"""Executor interface: pluggable fan-out with structured failures.

An :class:`Executor` maps a picklable function over a list of keyed
tasks and returns one :class:`TaskOutcome` per task, **in task order**,
whatever the completion order was.  The interface is deliberately dumb
-- spec in, outcomes out -- so backends can range from an in-process
loop to a crash-tolerant worker crew without the call sites changing:

- ``serial``      (:mod:`repro.exec.serial`)     -- in-process, the
  determinism reference every other backend must reproduce;
- ``pool``        (:mod:`repro.exec.pool`)       -- a
  ``ProcessPoolExecutor`` fan-out with per-item exception isolation and
  in-worker retries (the default);
- ``local-queue`` (:mod:`repro.exec.localqueue`) -- a spawn-based
  worker crew with per-task timeouts, bounded retries with backoff,
  and survival of worker death (crash or kill).

Task functions must be deterministic: retries re-run the same function
on the same payload, and results are merged purely by task index, so an
executor can never change *what* a sweep computes -- only whether it
survives computing it.

Failures are data, not control flow: a task that exhausts its retries
produces a :class:`TaskFailure` inside its outcome.  With
``keep_going`` unset the executor raises :class:`ExecError` on the
first permanent failure (after letting in-flight work settle); with it
set the sweep continues and the caller gets the full failure ledger --
the ``--keep-going`` per-item fault isolation mode.

Third-party backends plug in by name through
:data:`repro.api.registries.EXECUTORS`, exactly like schedulers and
preemption policies.  Only independent runs fan out: sweep points, and
the (pair, scheme) runs of the paper figures.  The parts of one answer
(a cluster segment's hosts) step together in-process.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigError, ExecError

#: Default bounded retries per task (epengine-style ``retries=2``).
DEFAULT_RETRIES = 2
#: Default base backoff between attempts of one task, in seconds;
#: attempt ``k`` waits ``retry_backoff_s * 2**(k-1)``.
DEFAULT_BACKOFF_S = 0.05


@dataclass(frozen=True)
class ExecSpec:
    """Declarative executor configuration (picklable, content-hashable).

    The knobs every backend shares; a backend may ignore ones it cannot
    honour (only ``local-queue`` can enforce ``task_timeout_s``, because
    enforcing a timeout means being able to kill the worker).
    """

    backend: str = "pool"
    #: Worker-crew width (None = :func:`repro.parallel.default_workers`).
    max_workers: Optional[int] = None
    #: Kill-and-retry budget per attempt, in wall seconds
    #: (local-queue only; None = unbounded).
    task_timeout_s: Optional[float] = None
    #: Extra attempts after the first failure (0 = fail fast).
    retries: int = DEFAULT_RETRIES
    #: Base backoff before attempt k: ``retry_backoff_s * 2**(k-1)``.
    retry_backoff_s: float = DEFAULT_BACKOFF_S
    #: Record a TaskFailure and continue instead of aborting the map.
    keep_going: bool = False

    def __post_init__(self) -> None:
        if not self.backend:
            raise ConfigError("executor spec needs a backend name")
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigError("executor max_workers must be >= 1")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigError("executor task_timeout_s must be positive")
        if self.retries < 0:
            raise ConfigError("executor retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ConfigError("executor retry_backoff_s must be >= 0")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def backoff_before(self, attempt: int) -> float:
        """Seconds to wait before dispatching ``attempt`` (1-based)."""
        if attempt <= 1 or self.retry_backoff_s <= 0:
            return 0.0
        return self.retry_backoff_s * (2 ** (attempt - 2))


@dataclass(frozen=True)
class ExecTask:
    """One unit of executor work: a stable key plus a picklable payload.

    ``key`` names the task in failures, journals and progress ticks
    (sweeps use the variant's scenario digest -- the deterministic shard
    id); ``payload`` is the single argument the mapped function gets.
    """

    key: str
    payload: Any

    def __post_init__(self) -> None:
        if not self.key:
            raise ConfigError("executor task needs a non-empty key")


@dataclass
class TaskFailure:
    """Structured record of one task that exhausted its attempts."""

    key: str
    index: int
    error_type: str
    message: str
    attempts: int
    timed_out: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "index": self.index,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TaskFailure":
        return cls(
            key=payload["key"],
            index=payload["index"],
            error_type=payload["error_type"],
            message=payload["message"],
            attempts=payload["attempts"],
            timed_out=bool(payload.get("timed_out", False)),
        )

    def describe(self) -> str:
        cause = "timed out" if self.timed_out else self.error_type
        return (
            f"task {self.key!r} failed after {self.attempts} attempt(s): "
            f"{cause}: {self.message}"
        )


@dataclass
class TaskOutcome:
    """Result of one task: a value, or a permanent failure."""

    key: str
    index: int
    value: Any = None
    failure: Optional[TaskFailure] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.failure is None


#: Parent-side completion hook: called once per task as it settles
#: (success or permanent failure), in completion order.
CompletionHook = Callable[[TaskOutcome], None]


class Executor(ABC):
    """Maps a picklable function over keyed tasks, deterministically.

    Contract every backend honours:

    - outcomes come back **in task order**, so a deterministic task
      function yields bit-identical merged results on every backend and
      worker count;
    - each task gets up to ``spec.max_attempts`` runs, with
      ``spec.backoff_before`` seconds between attempts;
    - a permanently failed task either aborts the map with
      :class:`ExecError` (``keep_going=False``) or lands as a
      :class:`TaskFailure` in its outcome (``keep_going=True``);
    - ``on_complete`` fires in the parent process once per settled task,
      which is where journals and progress ticks hang.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, spec: ExecSpec) -> None:
        self.spec = spec

    @abstractmethod
    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[ExecTask],
        on_complete: Optional[CompletionHook] = None,
    ) -> List[TaskOutcome]:
        """Run ``fn`` over ``tasks``; outcomes in task order."""

    # ------------------------------------------------------------------
    # Shared helpers for backends
    # ------------------------------------------------------------------
    def _settle(
        self,
        outcome: TaskOutcome,
        on_complete: Optional[CompletionHook],
    ) -> None:
        """Deliver a settled outcome to the completion hook, then abort
        the map unless failures are being kept."""
        if on_complete is not None:
            on_complete(outcome)
        if outcome.failure is not None and not self.spec.keep_going:
            raise ExecError(outcome.failure.describe())


def failure_from_exception(
    task: ExecTask, index: int, exc: BaseException, attempts: int
) -> TaskFailure:
    return TaskFailure(
        key=task.key,
        index=index,
        error_type=type(exc).__name__,
        message=str(exc),
        attempts=attempts,
    )


def summarize_failures(failures: Sequence[TaskFailure]) -> str:
    lines = [f.describe() for f in failures]
    return "\n".join(lines)


#: Sweep points per pool worker when a sweep names no backend or
#: width: a short sweep stays in-process, a long one spreads across
#: the pool.
CHUNK = 64


__all__ = [
    "CHUNK",
    "CompletionHook",
    "DEFAULT_BACKOFF_S",
    "DEFAULT_RETRIES",
    "ExecError",
    "ExecSpec",
    "ExecTask",
    "Executor",
    "TaskFailure",
    "TaskOutcome",
    "failure_from_exception",
    "summarize_failures",
]
