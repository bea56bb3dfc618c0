"""Process-pool worker backend for the serving layer.

Fans CPU-bound work — a store wave's compressions, chunk decodes — out
over worker processes, with the failure semantics a service needs and a
bare ``ProcessPoolExecutor`` doesn't give:

- **windowed batches** — ``map_ordered`` submits a large batch
  ``max_pending`` tasks at a time, so memory stays bounded (``submit``
  leaves the bound to its caller);
- **per-task timeouts** — a stuck worker costs one timeout, not the
  whole batch;
- **graceful fallback** — when a worker dies (``BrokenProcessPool``) or
  a task times out, the task re-runs in-process, the broken executor is
  recycled, and the incident is counted (``PoolStats.fallbacks`` /
  ``.timeouts``) instead of failing the request — in one place,
  :meth:`PoolTask.result`, which collects every pooled task;
- **a decomposable wait** — every task runs through :func:`_timed`, so
  :class:`PoolStats` always knows how long the work itself took
  (``worker_seconds``) and how long callers were blocked on it
  (``wait_seconds``); the difference is what the pool costs.

Tasks must be module-level callables with picklable arguments. A pool
has at least one worker; a caller with nothing to fan out builds none.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import perf_counter


def _timed(fn, *args):
    """``(seconds inside fn, fn(*args))`` — what every pooled task runs,
    so the time is measured where the work happened (a worker process or
    the in-process fallback) and rides back with the result."""
    start = perf_counter()
    result = fn(*args)
    return perf_counter() - start, result


@dataclass(frozen=True)
class PoolStats:
    """Immutable task-accounting snapshot for one :class:`WorkerPool`.

    :attr:`WorkerPool.stats` builds a fresh snapshot per access.

    ``worker_seconds`` is the time spent inside the tasks themselves,
    measured where each ran; ``wait_seconds`` is the time callers were
    blocked in :meth:`PoolTask.result` / :meth:`WorkerPool.map_ordered`.
    ``wait_seconds - worker_seconds / n_workers`` is therefore what the
    pool *costs* (queueing, pickling, wake-ups) on this host — what a
    caller needs to decide whether its tasks are worth sending at all."""

    submitted: int = 0
    completed: int = 0
    fallbacks: int = 0
    timeouts: int = 0
    worker_seconds: float = 0.0
    wait_seconds: float = 0.0


class PoolTask:
    """Handle for one task submitted via :meth:`WorkerPool.submit`.

    :meth:`result` is where the pool's failure semantics live — per-task
    timeout and in-process fallback on worker death — for every pooled
    task: :meth:`WorkerPool.map_ordered` collects its windows through it
    too. Exceptions raised *by the task itself* propagate unchanged. The
    submitter is responsible for bounding how many tasks it holds in
    flight (backpressure lives with the caller, who knows the real cost
    of each pending result).

    Once :meth:`result` has returned, :attr:`seconds` is the time the
    task itself took, measured where it ran (the worker, or the caller
    on a fallback) — never the caller's wait — which is what the store
    catalog charges a pooled decode in its chunk cache.
    """

    __slots__ = ("_pool", "_fn", "_args", "_future", "seconds")

    def __init__(self, pool: "WorkerPool", fn, args, future) -> None:
        self._pool = pool
        self._fn = fn
        self._args = args
        self._future = future  # None: deferred by a submit-time fallback
        self.seconds = 0.0

    def result(self, timeout: float | None = None):
        """The task's result, waiting if needed (``timeout`` overrides
        the pool's per-task default). Timeouts and worker death degrade
        to an in-process run, counted in ``PoolStats.fallbacks`` (and
        ``.timeouts``)."""
        pool = self._pool
        start = perf_counter()
        try:
            if self._future is not None:
                try:
                    seconds, result = self._future.result(
                        pool.timeout if timeout is None else timeout
                    )
                except FutureTimeout:
                    pool._timeouts += 1
                    self._future.cancel()
                except BrokenProcessPool:
                    pool._recycle_executor()
                else:
                    pool._completed += 1
                    pool._clock(worker=seconds)
                    self.seconds = seconds
                    return result
            # deferred at submit, timed out or its worker died: run it here,
            # its time counted once, where it finished
            self.seconds, result = pool._run_inline(self._fn, self._args, fallback=True)
            return result
        finally:
            pool._clock(wait=perf_counter() - start)

    def done(self) -> bool:
        """Whether :meth:`result` would return without blocking.
        A task deferred by a submit-time fallback is always ready — it
        runs in-process at collection time."""
        return self._future is None or self._future.done()

    def cancel(self) -> None:
        """Best-effort cancellation of a task whose result is no longer
        wanted (a closed stream); a task already running just runs."""
        if self._future is not None:
            self._future.cancel()


class WorkerPool:
    """Bounded, timeout-aware process pool with in-process fallback."""

    def __init__(
        self,
        n_workers: int = 2,
        *,
        max_pending: int = 32,
        timeout: float | None = 30.0,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.n_workers = int(n_workers)
        self.max_pending = int(max_pending)
        self.timeout = timeout
        self._submitted = 0
        self._completed = 0
        self._fallbacks = 0
        self._timeouts = 0
        self._worker_seconds = 0.0
        self._wait_seconds = 0.0
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None

    @property
    def stats(self) -> PoolStats:
        """A point-in-time :class:`PoolStats` snapshot (always on)."""
        return PoolStats(
            submitted=self._submitted,
            completed=self._completed,
            fallbacks=self._fallbacks,
            timeouts=self._timeouts,
            worker_seconds=self._worker_seconds,
            wait_seconds=self._wait_seconds,
        )

    # -- executor lifecycle ----------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.n_workers)
            return self._executor

    def _recycle_executor(self) -> None:
        """Drop a broken executor; the next task lazily builds a fresh one."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- execution -------------------------------------------------------------

    def _clock(self, *, worker: float = 0.0, wait: float = 0.0) -> None:
        with self._lock:
            self._worker_seconds += worker
            self._wait_seconds += wait

    def _run_inline(self, fn, args, *, fallback: bool) -> tuple[float, object]:
        """``(seconds, fn(*args))``, run and counted here."""
        if fallback:
            self._fallbacks += 1
        seconds, result = _timed(fn, *args)
        self._completed += 1
        self._clock(worker=seconds)
        return seconds, result

    def map_ordered(self, fn, tasks, *, timeout: float | None = None) -> list:
        """Run ``fn(*task)`` for every task, preserving order.

        A lone task runs in the caller; a batch is :meth:`submit`-ted in
        windows of ``max_pending``, each collected by :meth:`PoolTask.result`
        — the one failure path: worker death and timeouts degrade a task
        to in-process execution, while exceptions raised *by the task
        itself* propagate unchanged (hiding them would turn bugs into
        silent fallbacks). ``timeout`` overrides the pool's per-task
        default for this call. Results come back in task order — the
        guarantee the store's wave scheduler relies on for deterministic
        output.
        """
        tasks = [tuple(args) for args in tasks]
        if len(tasks) > 1:
            results: list = []
            for first in range(0, len(tasks), self.max_pending):
                window = tasks[first : first + self.max_pending]
                pending = [self.submit(fn, *args) for args in window]
                results.extend(task.result(timeout) for task in pending)
            return results
        self._submitted += len(tasks)
        start = perf_counter()
        try:
            return [self._run_inline(fn, args, fallback=False)[1] for args in tasks]
        finally:
            self._clock(wait=perf_counter() - start)

    def submit(self, fn, *args) -> PoolTask:
        """Start one task without waiting; returns a :class:`PoolTask`.

        Every pooled task starts here, ``map_ordered``'s too; a producer
        overlaps later tasks with consumption of earlier results (the
        store's read path). If the executor is broken at submit time the
        task is deferred and runs in-process at :meth:`PoolTask.result`
        time. The caller bounds its own in-flight set.
        """
        self._submitted += 1
        try:
            executor = self._ensure_executor()
            future = executor.submit(_timed, fn, *args)
        except BrokenProcessPool:
            self._recycle_executor()
            return PoolTask(self, fn, args, None)
        return PoolTask(self, fn, args, future)
