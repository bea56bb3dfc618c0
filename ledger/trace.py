"""Per-layer spans taken from outside the program.

The traced pass wraps each layer's public entry points — class
attributes via ``setattr``, module functions at their *use site* — and
records ``(name, start, end, parent, op_id)`` in memory; nothing under
``src/`` changes and ``repro.obs`` stays off. A layer's self time is its
span's duration minus its child spans' (the spans of one thread nest,
so the children never overlap each other).

Worker processes are not traced: a decode that runs on the pool shows
up only as the caller's wait in ``serve.pool.*``.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the merged span list, -1 for a root
    op_id: int  # the op the caller was running (-1 outside ops / other threads)
    thread: int
    size: int  # requests in a predict_batch, else 1


class Tracer:
    """Span store shared by the wrappers. ``op_id`` is set by the
    workload loop before each op; each thread keeps its own span list
    and stack, so the gateway's batcher thread never races the caller."""

    def __init__(self) -> None:
        self.op_id = -1
        self.calls: Counter = Counter()  # the calls-only entry points
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[list] = []

    def _state(self) -> tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._threads.append(state[0])
        return state

    def spanned(self, fn, name, size=None):
        """``fn`` recorded as a span. ``name`` is the span name or a
        function of the call's positional arguments; a call nested
        directly inside a span of the same name is not recorded (public
        entry points that delegate to one another count once)."""
        dynamic = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self._state()
            span_name = name(*args) if dynamic else name
            if stack and spans[stack[-1]][0] == span_name:
                return fn(*args, **kwargs)
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id,
                   size(*args) if size else 1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def counted(self, fn, name):
        """``fn`` with its calls counted and no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spans(self) -> list[Span]:
        """Every finished span, thread by thread, parents re-indexed."""
        out: list[Span] = []
        with self._lock:
            threads = list(self._threads)
        for tid, spans in enumerate(threads):
            base = len(out)
            for name, start, end, parent, op_id, size in list(spans):
                out.append(
                    Span(name, start, end, parent + base if parent >= 0 else -1,
                         op_id, tid, size)
                )
        return out


def targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper factory) for every wrapped callable."""
    import repro.serve.service as service_mod
    import repro.store.reader as reader_mod
    from repro.compressors.base import LossyCompressor
    from repro.control.controller import Controller
    from repro.core.framework import RatioControlledFramework
    from repro.core.prediction import ErrorBoundModel
    from repro.load.gateway import Gateway
    from repro.serve.cache import LRUCache
    from repro.serve.pool import PoolTask, WorkerPool
    from repro.serve.service import PredictionService
    from repro.store.catalog import StoreCatalog
    from repro.store.prefetch import Prefetcher
    from repro.store.reader import StoreReader, TileStream
    from repro.store.writer import StoreWriter

    def span(name, size=None):
        return lambda fn: tracer.spanned(fn, name, size)

    out = [
        (StoreWriter, "write", span("store.writer.write")),
        (RatioControlledFramework, "extract_features", span("features.extract")),
        (RatioControlledFramework, "extract_features_many", span("features.extract")),
        (LossyCompressor, "compress",
         span(lambda codec, *a: f"compressors.compress.{codec.name}")),
        (LossyCompressor, "decompress",
         span(lambda codec, *a: f"compressors.decompress.{codec.name}")),
        (Controller, "heuristic_prediction", span("control.heuristic")),
        (Controller, "refine", span("control.refine")),
        (StoreCatalog, "read", span("store.catalog.read")),
        (LRUCache, "get", span("serve.cache.get")),
        (LRUCache, "put", span("serve.cache.put")),
        (service_mod, "digest_array", span("serve.cache.digest")),
        (StoreReader, "fetch_payload", span("store.reader.fetch")),
        (reader_mod, "decode_chunk", span("store.reader.decode")),
        (reader_mod, "assemble_region", span("store.reader.assemble")),
        (TileStream, "__next__", span("store.reader.stream_next")),
        (WorkerPool, "map_ordered", span("serve.pool.map_ordered")),
        (WorkerPool, "submit", span("serve.pool.submit")),
        (PoolTask, "result", span("serve.pool.result")),
        (Prefetcher, "predict", span("store.prefetch.predict")),
        (PredictionService, "predict_batch",
         span("serve.service.predict_batch", lambda svc, requests, *a: len(requests))),
        (Gateway, "submit", lambda fn: tracer.counted(fn, "load.gateway.submit")),
    ]
    for attr in ("predict_error_bound", "predict_error_bound_with_std",
                 "predict_error_bound_batch", "predict_error_bound_batch_with_std"):
        out.append((ErrorBoundModel, attr, span("core.prediction.predict")))
    for attr in ("wave_tier", "chunk_tier", "observed_pressure", "record_std",
                 "record_outcome"):
        out.append((Controller, attr, span("control.decide")))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block; on exit every
    wrapped attribute is the original object again."""
    saved = []
    try:
        for owner, attr, wrap in targets(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds): each span's duration minus the
    durations of the spans whose parent it is."""
    child_cover = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_cover[s.parent] += s.end - s.start
    out: dict[str, tuple[int, float]] = {}
    for s, cover in zip(spans, child_cover):
        calls, total = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, total + (s.end - s.start) - cover)
    return out


def dump(spans: list[Span], path) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(list(s)) + "\n")


def load(path) -> list[Span]:
    with open(path) as fh:
        return [Span(*json.loads(line)) for line in fh if line.strip()]
