"""Async serving gateway: admission control + request coalescing.

:class:`Gateway` is the front door of the serving stack — an asyncio
layer over :class:`~repro.serve.service.PredictionService` that turns a
stream of *single* predict requests into the *batched* calls the
service is fastest at, while refusing to melt under overload:

- **admission control** — at most ``max_pending`` requests may be
  queued or in flight; a request arriving over that cap is rejected
  *immediately* with a typed :class:`Overloaded` error (never queued
  forever), so latency for admitted requests stays bounded and memory
  cannot grow without limit;
- **request coalescing** — admitted requests accumulate in a queue that
  a single batcher task drains into
  :meth:`~repro.serve.service.PredictionService.predict_batch` calls,
  flushing on whichever comes first: ``max_batch`` requests queued, or
  ``max_wait_ms`` elapsed since the oldest queued request;
- **determinism** — ``predict_batch`` is bitwise-identical to
  sequential ``predict`` (the PR-2 contract), so every gateway response
  is bitwise-identical to a direct ``service.predict(data, ratio)``
  call *regardless* of how requests happened to coalesce
  (``tests/test_load.py::TestCoalescingDeterminism`` gates on exactly
  this).

Batches execute on a dedicated single-thread executor, so the event
loop keeps accepting (and rejecting) requests while the service is busy
— which is what makes the queue build up and coalescing actually
happen under load.

The gateway keeps always-on counters (:meth:`Gateway.stats` returns a
frozen :class:`GatewayStats`: requests, rejections, batches, flushes by
reason, the deepest the queue got) and, when tracing is enabled, records
one ``load.gateway.batch`` span per batch, tagged with its size and
flush reason.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.obs import timed_span


class Overloaded(RuntimeError):
    """Request rejected by admission control: the pending queue is full.

    Raised *synchronously* by :meth:`Gateway.submit` — an over-cap
    request is never parked, so the caller can shed load (retry later,
    fail the request upstream) the moment the gateway saturates.
    """

    def __init__(self, pending: int, max_pending: int) -> None:
        super().__init__(
            f"gateway overloaded: {pending} requests pending (cap {max_pending})"
        )
        self.pending = pending
        self.max_pending = max_pending


class GatewayClosed(RuntimeError):
    """submit() after close(): the gateway no longer accepts requests."""


@dataclass(frozen=True, kw_only=True)
class GatewayOptions:
    """Frozen, hashable gateway configuration (counterpart of
    :class:`repro.serve.ServiceOptions` for the admission layer).

    ``max_batch`` / ``max_wait_ms`` tune the coalescing window — a
    queued batch flushes when either trips. ``max_pending`` is the
    admission cap over queued **plus** in-flight requests. ``safety``
    is the prediction bias applied uniformly to every request (one
    batch has one safety, so it is gateway-level configuration).
    """

    max_batch: int = 16
    max_wait_ms: float = 2.0
    max_pending: int = 256
    safety: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")


@dataclass(frozen=True)
class GatewayStats:
    """Typed, immutable gateway counters (always on, like
    :class:`~repro.serve.service.ServiceStats`).

    ``submitted = accepted + rejected``; ``accepted`` eventually becomes
    ``completed + failed`` once the queue drains. ``flushes_full`` /
    ``flushes_timer`` / ``flushes_drain`` split batches by what
    triggered them (cap reached, oldest request timed out, close()
    drain); their sum is ``batches``.
    """

    submitted: int
    accepted: int
    rejected: int
    completed: int
    failed: int
    batches: int
    flushes_full: int
    flushes_timer: int
    flushes_drain: int
    max_queue_depth: int

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.submitted if self.submitted else 0.0

    @property
    def mean_batch_size(self) -> float:
        done = self.completed + self.failed
        return done / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "batches": self.batches,
            "flushes_full": self.flushes_full,
            "flushes_timer": self.flushes_timer,
            "flushes_drain": self.flushes_drain,
            "max_queue_depth": self.max_queue_depth,
            "rejection_rate": self.rejection_rate,
            "mean_batch_size": self.mean_batch_size,
        }


class Gateway:
    """Asyncio front-end over a :class:`PredictionService`.

    Use as an async context manager (or call :meth:`close` explicitly)
    so in-flight requests drain before the executor shuts down::

        async with Gateway(service, options=GatewayOptions(max_batch=8)) as gw:
            pred = await gw.submit(field.data, 16.0)

    All coordination state lives on the event loop (single-threaded),
    so no lock is needed; only the blocking ``predict_batch`` call
    leaves the loop, onto a dedicated one-thread executor that serves
    batches strictly in flush order.
    """

    def __init__(self, service, *, options: GatewayOptions | None = None) -> None:
        self.service = service
        self.options = options or GatewayOptions()
        self._queue: deque = deque()  # (data, ratio, future) awaiting a batch
        self._pending = 0  # queued + in-flight (admission-controlled)
        self._wake: asyncio.Event | None = None
        self._batcher: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-gateway"
        )
        self._closing = False
        self._closed = False
        # always-on counters behind GatewayStats
        self._submitted = 0
        self._accepted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._batches = 0
        self._flushes = {"full": 0, "timer": 0, "drain": 0}
        self._max_queue_depth = 0

    # -- lifecycle ---------------------------------------------------------------

    def _ensure_started(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._wake = asyncio.Event()
            self._batcher = loop.create_task(self._run(), name="repro-gateway-batcher")
        elif self._loop is not loop:
            raise RuntimeError("Gateway is bound to a different event loop")

    async def close(self) -> None:
        """Stop admitting, drain every queued request, stop the batcher.

        Requests already admitted complete normally (their futures
        resolve with real predictions); only *new* submissions are
        refused, with :class:`GatewayClosed`.
        """
        if self._closed:
            return
        self._closing = True
        if self._batcher is not None:
            self._wake.set()
            await self._batcher
        self._closed = True
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "Gateway":
        self._ensure_started()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- submission --------------------------------------------------------------

    async def submit(self, data, target_ratio: float):
        """One request: resolves to the same
        :class:`~repro.core.framework.Prediction` a direct
        ``service.predict(data, target_ratio, safety=options.safety)``
        call would return, bitwise. Raises :class:`Overloaded` at the
        admission cap and :class:`GatewayClosed` after :meth:`close`.
        """
        if self._closing or self._closed:
            raise GatewayClosed("gateway is closed")
        self._ensure_started()
        self._submitted += 1
        if self._pending >= self.options.max_pending:
            self._rejected += 1
            raise Overloaded(self._pending, self.options.max_pending)
        self._accepted += 1
        self._pending += 1
        if self._pending > self._max_queue_depth:
            self._max_queue_depth = self._pending
        future = self._loop.create_future()
        self._queue.append((data, float(target_ratio), future))
        self._wake.set()
        return await future

    # -- batching ----------------------------------------------------------------

    async def _run(self) -> None:
        max_batch = self.options.max_batch
        max_wait = self.options.max_wait_ms / 1000.0
        loop = self._loop
        while True:
            # Idle until a request is queued (or close() starts the drain).
            while not self._queue and not self._closing:
                self._wake.clear()
                await self._wake.wait()
            if not self._queue and self._closing:
                return
            # One request is queued; linger up to max_wait for company,
            # unless the batch fills (or close() starts draining) first.
            deadline = loop.time() + max_wait
            while len(self._queue) < max_batch and not self._closing:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), remaining)
                except asyncio.TimeoutError:
                    break
            batch = [
                self._queue.popleft()
                for _ in range(min(max_batch, len(self._queue)))
            ]
            if self._closing:
                reason = "drain"
            elif len(batch) == max_batch:
                reason = "full"
            else:
                reason = "timer"
            await self._serve_batch(batch, reason)

    async def _serve_batch(self, batch: list, reason: str) -> None:
        requests = [(data, ratio) for data, ratio, _ in batch]
        self._batches += 1
        self._flushes[reason] += 1
        try:
            with timed_span(
                "load.gateway.batch", n_requests=len(batch), reason=reason
            ):
                preds = await self._loop.run_in_executor(
                    self._executor,
                    lambda: self.service.predict_batch(
                        requests, safety=self.options.safety
                    ),
                )
        except Exception as exc:  # noqa: BLE001 - failures belong to the callers
            for _, _, future in batch:
                self._failed += 1
                self._pending -= 1
                if not future.cancelled():
                    future.set_exception(exc)
        else:
            for (_, _, future), pred in zip(batch, preds):
                self._completed += 1
                self._pending -= 1
                if not future.cancelled():
                    future.set_result(pred)

    # -- introspection -----------------------------------------------------------

    def stats(self) -> GatewayStats:
        """A :class:`GatewayStats` snapshot of the always-on counters."""
        return GatewayStats(
            submitted=self._submitted,
            accepted=self._accepted,
            rejected=self._rejected,
            completed=self._completed,
            failed=self._failed,
            batches=self._batches,
            flushes_full=self._flushes["full"],
            flushes_timer=self._flushes["timer"],
            flushes_drain=self._flushes["drain"],
            max_queue_depth=self._max_queue_depth,
        )
