"""Catalog-driven read-ahead: predicting the next chunks from the
per-key request stream.

A :class:`~repro.store.catalog.StoreCatalog` sees every read for every
key, which makes it the natural place to notice *access patterns*: a
client scanning a store front to back, or striding through it plane by
plane, telegraphs exactly which chunks it will ask for next. The
:class:`Prefetcher` watches that stream and, once a pattern has held for
``min_run`` consecutive requests, predicts up to ``depth`` flat chunk
ids ahead of it. The catalog then decodes those chunks into the shared
LRU *after* serving the current request, so the next request finds its
chunks already decompressed.

Two properties keep this safe to reason about:

- **prediction is a pure function of the request history.** Same
  per-key stream of requests → same hints, independent of cache size,
  worker count, timing, or what other keys are doing
  (:meth:`Prefetcher.predict` touches nothing but its own per-key
  deque). Acting on a hint *is* allowed to consult the cache (a chunk
  already resident is not re-issued), but the hint sequence itself never
  changes — which is what makes prefetch behavior testable.
- **prefetch is advisory, never load-bearing.** A prefetched chunk the
  LRU evicts before use is counted ``wasted`` and simply re-decoded on
  demand; a prefetch that raises is swallowed (the *next request* will
  surface a genuinely corrupt chunk through the normal read path, with
  the normal error). Streaming reads hold their own references to
  in-flight tile data, so prefetch-driven eviction churn can never alter
  the bytes a stream yields.

The catalog accounts outcomes in :class:`PrefetchStats`
(``cat.stats().prefetch``): ``issued``
hints decoded into the cache, ``hits`` issued chunks a later request
actually consumed, ``wasted`` issued chunks evicted unused.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class PrefetchStats:
    """Immutable prefetch-outcome snapshot: hints acted on (``issued``),
    issued chunks a later request consumed (``hits``), issued chunks
    evicted before any request touched them (``wasted``). Issued chunks
    still resident and unclaimed are in none of the buckets yet."""

    issued: int = 0
    hits: int = 0
    wasted: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.issued if self.issued else 0.0

    def as_dict(self) -> dict:
        return {
            "issued": self.issued,
            "hits": self.hits,
            "wasted": self.wasted,
            "hit_rate": self.hit_rate,
        }


class Prefetcher:
    """Sequential-run and stride detection over per-key request streams.

    Each request is summarized by the span of flat chunk ids it touched.
    When the spans' *leading edges* have advanced by one constant,
    nonzero stride for ``min_run`` consecutive requests, future requests
    are predicted at successive strides — the hints are the predicted
    spans' chunk ids (minus any id in the current request), walked
    nearest-first until ``depth`` ids are collected or the grid ends. A
    sequential scan is the stride-``span`` special case, so one detector
    covers both patterns
    named by the catalog's request mix; anything irregular predicts
    nothing rather than guessing.

    :meth:`predict` both records the request and returns the hints; it
    is deterministic in the per-key call sequence alone (see the module
    docstring), and internally locked so concurrent catalog reads keep
    per-key histories consistent.
    """

    #: Most recent request spans remembered per key — enough to confirm
    #: any ``min_run`` up to the window, tiny regardless of stream length.
    HISTORY = 8

    def __init__(self, *, depth: int = 2, min_run: int = 2) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if min_run < 2:
            raise ValueError("min_run must be >= 2 (one delta proves nothing)")
        self.depth = int(depth)
        self.min_run = int(min_run)
        self._lock = threading.Lock()
        self._history: dict[str, deque[tuple[int, int]]] = {}

    def predict(self, key: str, chunk_ids, n_chunks: int) -> list[int]:
        """Record one request for ``key`` and return the predicted next
        flat chunk ids (possibly empty). ``chunk_ids`` are the flat ids
        the request touched; ``n_chunks`` clips hints to the store."""
        ids = sorted({int(c) for c in chunk_ids})
        with self._lock:
            if not ids:
                return []
            lo, hi = ids[0], ids[-1]
            history = self._history.setdefault(key, deque(maxlen=self.HISTORY))
            history.append((lo, hi))
            if len(history) <= self.min_run:
                return []
            deltas = [
                history[i + 1][0] - history[i][0] for i in range(len(history) - 1)
            ][-self.min_run :]
            stride = deltas[-1]
            if stride == 0 or any(d != stride for d in deltas):
                return []
            current = set(ids)
            hints: list[int] = []
            step = 1
            while len(hints) < self.depth:
                window = range(lo + step * stride, hi + step * stride + 1)
                if stride < 0:
                    window = reversed(window)  # nearest-first going backwards
                in_range = False
                for c in window:
                    if 0 <= c < int(n_chunks):
                        in_range = True
                        if c not in current and c not in hints:
                            hints.append(c)
                            if len(hints) >= self.depth:
                                break
                if not in_range:
                    break  # walked off the grid: nothing further exists
                step += 1
            return hints

    def forget(self, key: str) -> None:
        """Drop ``key``'s history (a re-registered key starts cold)."""
        with self._lock:
            self._history.pop(key, None)
