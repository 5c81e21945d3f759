"""The local work-queue executor: a crash-tolerant spawn-based crew.

The robustness backend the ``pool`` executor cannot be: each worker is
a freshly spawned process the parent owns outright, so the parent can

- **enforce per-task timeouts** -- a task over ``task_timeout_s`` gets
  its worker killed, the attempt recorded as timed out, and a
  replacement worker spawned;
- **survive worker death** -- a worker that segfaults, is OOM-killed or
  SIGKILLed mid-task costs one attempt of the task it was running, not
  the sweep;
- **bound retries with backoff** -- a task is re-dispatched up to
  ``retries`` extra times, attempt ``k`` held back
  ``retry_backoff_s * 2**(k-2)`` seconds;
- **isolate per-item failures** -- with ``keep_going`` a permanently
  failed task becomes a structured :class:`~repro.exec.base.TaskFailure`
  and the rest of the queue keeps draining.

Dispatch is single-feeder: every worker has its own task queue, so the
parent always knows exactly which task a dead or stuck worker was
holding.  Replies come back on a per-worker pipe, so no lock is shared
between workers: a worker that dies mid-write cannot leave one held
and stall the rest of the crew.  Results are merged by task index, and
tasks are deterministic functions of their payloads, so scheduling
nondeterminism (who ran what, in which order, after how many crashes)
never reaches the output: the merged result list is bit-identical to
the ``serial`` backend's.

``spawn`` (not ``fork``) keeps workers independent of parent state --
the same start method on every platform, and no inherited locks to
deadlock on after a kill.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import ExecError
from repro.exec.base import (
    CompletionHook,
    ExecTask,
    Executor,
    TaskFailure,
    TaskOutcome,
)
from repro.parallel import default_workers

#: Parent poll tick while waiting on results/deadlines, in seconds.
_POLL_S = 0.02
#: Grace given to a worker to exit after its sentinel, before kill.
_JOIN_S = 2.0
#: How long a dispatched task may sit without its worker announcing
#: pickup before the worker is presumed hung in spawn boot and killed.
#: task_timeout_s itself only starts once the worker reports it began
#: the task, so slow spawns never eat into a task's budget.
_BOOT_TIMEOUT_S = 60.0

_CTX = multiprocessing.get_context("spawn")


def _worker_main(fn: Callable[[Any], Any], task_queue, results) -> None:
    """Worker loop: one task in, one ``(index, attempt, ...)`` reply out.

    Replies carry the dispatch's attempt number so the parent can drop
    stale replies from a worker it already gave up on (e.g. a result
    that squeaked out right as a timeout fired).
    """
    while True:
        item = task_queue.get()
        if item is None:
            return
        index, attempt, payload = item
        # Announce pickup so the parent's task_timeout_s clock measures
        # the task itself, not queueing or this worker's spawn boot.
        results.send((index, attempt, "start", None))
        try:
            value = fn(payload)
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            results.send(
                (index, attempt, False, (type(exc).__name__, str(exc)))
            )
        else:
            results.send((index, attempt, True, value))


@dataclass
class _Worker:
    process: Any
    task_queue: Any
    #: Read end of the worker's reply pipe (EOF once the worker exits).
    results: Any
    #: (task index, attempt, clock start, started?); None when idle.
    #: ``started`` flips True when the worker announces pickup, which
    #: also restarts the clock -- task_timeout_s measures the task
    #: itself, never queueing or the worker's spawn boot (which gets
    #: the separate, generous ``_BOOT_TIMEOUT_S``).
    running: Optional[tuple] = None


class _TaskState:
    """Parent-side bookkeeping for one task."""

    __slots__ = ("task", "index", "attempts", "ready_at", "last_error",
                 "timed_out")

    def __init__(self, task: ExecTask, index: int) -> None:
        self.task = task
        self.index = index
        self.attempts = 0
        self.ready_at = 0.0
        self.last_error = ("ExecError", "never attempted")
        self.timed_out = False


class LocalQueueExecutor(Executor):
    """Spawn-based worker crew with timeouts, retries and isolation."""

    name = "local-queue"

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[ExecTask],
        on_complete: Optional[CompletionHook] = None,
    ) -> List[TaskOutcome]:
        workers = (
            default_workers()
            if self.spec.max_workers is None
            else self.spec.max_workers
        )
        if not tasks:
            return []
        # No in-process degeneration even at one worker: timeouts and
        # crash isolation need a killable process, and that robustness
        # is this backend's contract (the serial backend is the
        # in-process choice).
        crew_size = min(max(1, workers), len(tasks))
        return _CrewRun(self, fn, tasks, crew_size, on_complete).run()


class _CrewRun:
    """One ``map_tasks`` call: dispatch loop, deadlines, respawns."""

    def __init__(
        self,
        executor: LocalQueueExecutor,
        fn: Callable[[Any], Any],
        tasks: Sequence[ExecTask],
        crew_size: int,
        on_complete: Optional[CompletionHook],
    ) -> None:
        self.executor = executor
        self.spec = executor.spec
        self.fn = fn
        self.tasks = list(tasks)
        self.crew_size = crew_size
        self.on_complete = on_complete
        self.states = [_TaskState(t, i) for i, t in enumerate(self.tasks)]
        self.pending: List[_TaskState] = list(self.states)
        self.outcomes: List[Optional[TaskOutcome]] = [None] * len(self.tasks)
        self.workers: List[_Worker] = []

    # ------------------------------------------------------------------
    # Crew lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        task_queue = _CTX.Queue()
        results, writer = _CTX.Pipe(duplex=False)
        process = _CTX.Process(
            target=_worker_main,
            args=(self.fn, task_queue, writer),
            daemon=True,
        )
        process.start()
        writer.close()  # the worker holds the only write end
        return _Worker(process=process, task_queue=task_queue, results=results)

    def _kill_worker(self, worker: _Worker) -> None:
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(_JOIN_S)
        # Release the queue's feeder thread resources.
        worker.task_queue.close()
        worker.results.close()
        worker.running = None

    def _shutdown(self) -> None:
        for worker in self.workers:
            if worker.running is None and worker.process.is_alive():
                try:
                    worker.task_queue.put_nowait(None)
                except Exception:  # pragma: no cover - queue already gone
                    pass
        deadline = time.monotonic() + _JOIN_S
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in self.workers:
            self._kill_worker(worker)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> List[TaskOutcome]:
        self.workers = [self._spawn_worker() for _ in range(self.crew_size)]
        try:
            while any(o is None for o in self.outcomes):
                self._dispatch()
                self._collect()
                self._check_deadlines_and_liveness()
            return self.outcomes  # type: ignore[return-value]
        finally:
            self._shutdown()

    def _dispatch(self) -> None:
        now = time.monotonic()
        idle = [w for w in self.workers if w.running is None]
        if not idle or not self.pending:
            return
        ready = [s for s in self.pending if s.ready_at <= now]
        for worker, state in zip(idle, ready):
            self.pending.remove(state)
            state.attempts += 1
            worker.running = (state.index, state.attempts, now, False)
            worker.task_queue.put(
                (state.index, state.attempts, state.task.payload)
            )

    def _collect(self) -> None:
        ready = multiprocessing.connection.wait(
            [w.results for w in self.workers], timeout=_POLL_S
        )
        for results in ready:
            try:
                while results.poll():
                    self._absorb(results.recv())
            except (EOFError, OSError):
                # The worker exited; the liveness check replaces it.
                continue

    def _absorb(self, reply: tuple) -> None:
        index, attempt, ok, value = reply
        worker = self._worker_running(index, attempt)
        if worker is None:
            # Stale reply from an attempt the parent already wrote off
            # (timeout fired as the worker finished).  The task was
            # either retried or resolved; drop the duplicate.
            return
        if ok == "start":
            # Worker picked the task up: restart its deadline clock so
            # timeouts measure the task, not queueing or spawn boot.
            worker.running = (index, attempt, time.monotonic(), True)
            return
        worker.running = None
        state = self.states[index]
        if ok:
            self._resolve(
                TaskOutcome(
                    key=state.task.key,
                    index=index,
                    value=value,
                    attempts=state.attempts,
                )
            )
        else:
            state.last_error = value
            state.timed_out = False
            self._retry_or_fail(state)

    def _worker_running(self, index: int, attempt: int) -> Optional[_Worker]:
        for worker in self.workers:
            if worker.running is not None and worker.running[:2] == (
                index, attempt,
            ):
                return worker
        return None

    def _check_deadlines_and_liveness(self) -> None:
        now = time.monotonic()
        timeout = self.spec.task_timeout_s
        for worker in list(self.workers):
            if worker.running is None:
                if not worker.process.is_alive():
                    # An idle worker died (e.g. killed externally);
                    # replace it so the crew keeps its width.
                    self._replace_worker(worker)
                continue
            index, _attempt, clock_start, started = worker.running
            state = self.states[index]
            overdue = (
                timeout is not None and now - clock_start > timeout
                if started
                else now - clock_start > _BOOT_TIMEOUT_S
            )
            if overdue:
                state.last_error = (
                    "TimeoutError",
                    f"exceeded task_timeout_s={timeout:g}s"
                    if started
                    else "worker never started the task "
                    f"(spawn boot exceeded {_BOOT_TIMEOUT_S:g}s)",
                )
                state.timed_out = True
                self._replace_worker(worker)
                self._retry_or_fail(state)
            elif not worker.process.is_alive():
                exit_code = worker.process.exitcode
                state.last_error = (
                    "WorkerDied",
                    f"worker exited with code {exit_code} mid-task",
                )
                state.timed_out = False
                self._replace_worker(worker)
                self._retry_or_fail(state)

    def _replace_worker(self, worker: _Worker) -> None:
        self._kill_worker(worker)
        self.workers.remove(worker)
        if any(o is None for o in self.outcomes):
            self.workers.append(self._spawn_worker())

    # ------------------------------------------------------------------
    # Task settlement
    # ------------------------------------------------------------------
    def _retry_or_fail(self, state: _TaskState) -> None:
        if state.attempts < self.spec.max_attempts:
            state.ready_at = time.monotonic() + self.spec.backoff_before(
                state.attempts + 1
            )
            self.pending.append(state)
            return
        error_type, message = state.last_error
        self._resolve(
            TaskOutcome(
                key=state.task.key,
                index=state.index,
                failure=TaskFailure(
                    key=state.task.key,
                    index=state.index,
                    error_type=error_type,
                    message=message,
                    attempts=state.attempts,
                    timed_out=state.timed_out,
                ),
                attempts=state.attempts,
            )
        )

    def _resolve(self, outcome: TaskOutcome) -> None:
        self.outcomes[outcome.index] = outcome
        try:
            self.executor._settle(outcome, self.on_complete)
        except ExecError:
            # Abort: the finally-block shutdown kills the crew.
            raise
