"""The process-pool executor, the default backend.

A ``ProcessPoolExecutor`` sized by :func:`repro.parallel.default_workers`
that degenerates to the in-process ``serial`` reference for one worker
or one task, and falls back to it (announced once) when a pool cannot
be spawned.  Each task is isolated: a failing task becomes a
:class:`~repro.exec.base.TaskFailure` instead of poisoning the whole
map, after bounded in-worker retries with backoff.

Limits, by design: a worker *process* death (crash, OOM-kill) breaks a
``concurrent.futures`` pool for every outstanding task, so this backend
raises :class:`~repro.errors.ExecError` on a broken pool rather than
pretending to isolate it; and ``task_timeout_s`` is not enforced (a
pool cannot kill one worker).  The ``local-queue`` backend covers both.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ExecError
from repro.exec.base import (
    CompletionHook,
    ExecSpec,
    ExecTask,
    Executor,
    TaskFailure,
    TaskOutcome,
)
from repro.exec.serial import SerialExecutor, _warn_timeout_unenforced
from repro.parallel import default_workers

_pool_fallback_warned = False


def warn_pool_fallback(cause: BaseException) -> None:
    """One-time warning that a process pool could not be spawned.

    Falling back to serial execution keeps results bit-identical (the
    one-worker path is the reference), but silently losing all
    parallelism turns a 5-minute sweep into an hour-long one with no
    explanation -- so the first degraded map names its cause.
    """
    global _pool_fallback_warned
    if _pool_fallback_warned:
        return
    _pool_fallback_warned = True
    warnings.warn(
        "process pool unavailable "
        f"({type(cause).__name__}: {cause}); falling back to serial "
        "execution (results are unchanged, wall time is not)",
        RuntimeWarning,
        stacklevel=3,
    )


def _pool_entry(item: Tuple[Callable[[Any], Any], Any, int, float]) -> Tuple:
    """Worker-side task runner: retries happen inside the worker, so a
    flaky task costs no extra round-trips.  Returns plain data."""
    fn, payload, max_attempts, backoff_s = item
    last: Optional[Tuple[str, str]] = None
    for attempt in range(1, max_attempts + 1):
        if attempt > 1 and backoff_s > 0:
            time.sleep(backoff_s * (2 ** (attempt - 2)))
        try:
            value = fn(payload)
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            last = (type(exc).__name__, str(exc))
            continue
        return ("ok", value, attempt)
    assert last is not None
    return ("err", last[0], last[1], max_attempts)


class PoolExecutor(Executor):
    """Process-pool fan-out with per-item isolation and retries."""

    name = "pool"

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[ExecTask],
        on_complete: Optional[CompletionHook] = None,
    ) -> List[TaskOutcome]:
        if self.spec.task_timeout_s is not None:
            _warn_timeout_unenforced(self.name)
        workers = (
            default_workers()
            if self.spec.max_workers is None
            else self.spec.max_workers
        )
        if workers == 1 or len(tasks) <= 1:
            return self._serial(fn, tasks, on_complete)
        try:
            pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
        except OSError as exc:  # constrained sandboxes
            warn_pool_fallback(exc)
            return self._serial(fn, tasks, on_complete)
        items = [
            (fn, task.payload, self.spec.max_attempts, self.spec.retry_backoff_s)
            for task in tasks
        ]
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        try:
            futures = {
                pool.submit(_pool_entry, item): index
                for index, item in enumerate(items)
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    outcome = self._to_outcome(tasks[index], index, future)
                    outcomes[index] = outcome
                    try:
                        self._settle(outcome, on_complete)
                    except ExecError:
                        for remaining in pending:
                            remaining.cancel()
                        raise
        finally:
            pool.shutdown(cancel_futures=True)
        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    def _serial(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[ExecTask],
        on_complete: Optional[CompletionHook],
    ) -> List[TaskOutcome]:
        # One worker (or one task) degenerates to the in-process
        # reference; drop the timeout first so SerialExecutor does not
        # warn a second time.
        spec = ExecSpec(
            backend=self.name,
            max_workers=1,
            retries=self.spec.retries,
            retry_backoff_s=self.spec.retry_backoff_s,
            keep_going=self.spec.keep_going,
        )
        return SerialExecutor(spec).map_tasks(fn, tasks, on_complete)

    def _to_outcome(self, task: ExecTask, index: int, future) -> TaskOutcome:
        try:
            result = future.result()
        except BrokenProcessPool as exc:
            raise ExecError(
                f"process pool broke while running task {task.key!r} "
                f"(a worker died: {exc}); the pool backend cannot isolate "
                "worker death -- use the local-queue backend"
            ) from exc
        if result[0] == "ok":
            _tag, value, attempts = result
            return TaskOutcome(
                key=task.key, index=index, value=value, attempts=attempts
            )
        _tag, error_type, message, attempts = result
        return TaskOutcome(
            key=task.key,
            index=index,
            failure=TaskFailure(
                key=task.key,
                index=index,
                error_type=error_type,
                message=message,
                attempts=attempts,
            ),
            attempts=attempts,
        )
