"""Digest-keyed cache for the serving layer: GreedyDual eviction, which
is LRU when every entry costs the same to rebuild.

The expensive part of a serving request is feature extraction, and the
features depend only on the values the extractor reads — its block or
stride *sample* of the field. So the service keys the cache with a
digest (:func:`digest_array`) of that sample: equal samples give
bitwise-equal features, so two requests whose sampled values agree share
one entry no matter where the arrays came from, which is what makes
repeated fixed-ratio requests over the same fields (the FRaZ serving
scenario) cost a hash of the sample after the first hit. The service
computes one such hash per distinct array per batch.

:class:`LRUCache` bounds its contents two ways, independently usable:

- **entry count** (``max_entries``, the original mode) — right for the
  feature cache, whose entries are uniform 5-vectors;
- **total cost** (``max_cost`` plus a ``cost`` function, typically bytes)
  — right for the store catalog's decompressed-chunk cache, whose
  entries vary by orders of magnitude in size. Eviction runs until the
  *cost* fits the budget, and an entry whose own cost exceeds the whole
  budget is never admitted (it would evict everything and still not fit).

**Which entry goes** is GreedyDual (Cao & Irani's GreedyDual-Size):
``put(key, value, penalty)`` gives an entry the priority
``H = clock + penalty``, a hit raises it again to ``clock + penalty``,
and eviction removes the lowest ``H`` (ties: the least recent entry) and
sets ``clock`` to it. So an entry that is dear to rebuild outlives cheap
ones that were used as recently, and an idle one still ages out as the
clock passes it. With equal penalties — the feature cache passes none —
this is exactly least-recently-used. The store catalog charges each
decoded chunk its measured decode seconds per byte, so which chunks stay
resident follows this host's decode times; what a read returns never
does (the cache decides *when* a chunk is decoded, not *what* it decodes
to). A hit is one dict write: the priority heap is touched only by
:meth:`~LRUCache.put` and by eviction, which re-files a heap record that
a later hit left stale when that record reaches the top.

All operations take an internal lock, so one cache can be shared by
concurrent readers. The cache keeps its own always-on
:class:`CacheStats` (hits / misses / evictions — the one place they are
counted; the serving layer and the catalog report hit rates from it);
``len(cache)`` and ``cache.total_cost`` are its current size.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

_MISSING = object()


def digest_array(data: np.ndarray) -> str:
    """Stable content digest of an array (bytes + dtype + shape).

    SHA-256 over the raw buffer: equal arrays hash equal, and a single
    changed element changes the digest. OpenSSL's SHA-256 runs on the
    CPU's SHA extensions where there are any, which makes it 2-3x
    faster than blake2b on a feature sample (and slower where there are
    none). Non-contiguous inputs are compacted first so logically-equal
    views agree; a contiguous input is hashed in place, without a
    ``tobytes()`` copy.
    """
    arr = np.ascontiguousarray(data)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.reshape(-1).view(np.uint8))
    return h.hexdigest()


def default_cost(value) -> float:
    """Cost of one cache entry in bytes: ``nbytes`` for arrays, ``len``
    for byte strings/sequences, 1 for anything unsized."""
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return float(nbytes)
    try:
        return float(len(value))
    except TypeError:
        return 1.0


@dataclass(frozen=True)
class CacheStats:
    """Immutable hit/miss/eviction snapshot for one cache.

    :attr:`LRUCache.stats` builds a fresh snapshot per access, so two
    reads bracket an interval and each is safe to hold, hash, or compare."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return self.hits / total if total else 0.0


class LRUCache:
    """Thread-safe GreedyDual mapping (least-recently-used when every
    penalty is equal), bounded by entry count and/or total cost.

    ``max_entries=None`` lifts the entry-count bound (use with
    ``max_cost``); ``max_entries=0`` or ``max_cost=0`` disables caching
    entirely (every get misses, puts are dropped) so one code path
    serves cached and uncached configurations. ``cost`` maps a value to
    its charge against ``max_cost`` (default: :func:`default_cost`,
    i.e. bytes).
    """

    def __init__(
        self,
        max_entries: int | None = 256,
        *,
        max_cost: float | None = None,
        cost=None,
    ) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be >= 0 (or None for unbounded)")
        if max_cost is not None and max_cost < 0:
            raise ValueError("max_cost must be >= 0 (or None for unbounded)")
        self.max_entries = None if max_entries is None else int(max_entries)
        self.max_cost = None if max_cost is None else float(max_cost)
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self.total_cost = 0.0
        self._cost = cost if cost is not None else default_cost
        self._lock = threading.Lock()
        # key -> (value, cost, penalty, H, seq); cost is 0.0 when no cost
        # bound is set, seq orders accesses (the tie-break). The heap holds
        # (H, seq, key) records, one or more per entry; the one matching
        # the entry's seq is current, any other is stale.
        self._entries: dict = {}
        self._heap: list = []
        self._clock = 0.0
        self._seq = itertools.count()

    @property
    def stats(self) -> CacheStats:
        """A point-in-time :class:`CacheStats` snapshot (always on)."""
        with self._lock:
            return CacheStats(
                hits=self._hits, misses=self._misses, evictions=self._evictions
            )

    @property
    def disabled(self) -> bool:
        """True when either bound is zero — puts are dropped entirely."""
        return self.max_entries == 0 or self.max_cost == 0

    def admits(self, value) -> bool:
        """Whether :meth:`put` would store ``value``: ``False`` when the
        cache is disabled or the value alone exceeds the cost budget.
        Both bounds are fixed at construction, so the answer cannot go
        stale between this check and the put — callers can safely apply
        irreversible pre-insertion effects (e.g. freezing an array) only
        when admission is certain."""
        if self.disabled:
            return False
        if self.max_cost is not None and self._cost(value) > self.max_cost:
            return False
        return True

    def get(self, key, default=None):
        """Return the cached value (raising its priority to
        ``clock + penalty``) or ``default``."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                self._misses += 1
                return default
            value, cost, penalty, _, _ = entry
            self._entries[key] = (value, cost, penalty, self._clock + penalty, next(self._seq))
            self._hits += 1
            return value

    def put(self, key, value, penalty: float = 1.0) -> bool:
        """Insert/refresh an entry at priority ``clock + penalty``, first
        evicting the lowest-priority entries until it fits both bounds.
        ``penalty`` is what the entry costs to rebuild (any non-negative
        unit, the same for every put to one cache). In cost mode an
        entry costing more than the whole budget is not admitted.
        Returns whether the entry was stored — ``False`` when the cache
        is disabled or the entry alone exceeds the budget, and then no
        entry is left under ``key`` — so callers can tie side effects
        (e.g. freezing an array) to actual admission."""
        if not 0.0 <= penalty < math.inf:
            raise ValueError(f"penalty must be finite and >= 0, got {penalty!r}")
        if self.disabled:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.total_cost -= old[1]
            cost = self._cost(value) if self.max_cost is not None else 0.0
            admitted = self.max_cost is None or cost <= self.max_cost
            if admitted:
                self._make_room(cost)
                h, seq = self._clock + penalty, next(self._seq)
                self._entries[key] = (value, cost, penalty, h, seq)
                self.total_cost += cost
                heapq.heappush(self._heap, (h, seq, key))
            self._compact()
            return admitted

    def _make_room(self, cost: float) -> None:
        """Evict lowest ``(H, seq)`` first until one more entry of
        ``cost`` fits both bounds. A stale record (its entry was hit,
        re-put or dropped since) is re-filed under the entry's current
        priority, or discarded if the entry is gone. A hit only raises a
        priority and a put files a record of its own, so every entry has
        a record at or below its current priority, and the first current
        record popped is the true minimum. Caller holds the lock."""
        entries, heap = self._entries, self._heap
        while entries and (
            (self.max_entries is not None and len(entries) >= self.max_entries)
            or (self.max_cost is not None and self.total_cost + cost > self.max_cost)
        ):
            h, seq, key = heapq.heappop(heap)
            entry = entries.get(key)
            if entry is None:
                continue
            if entry[4] != seq:
                heapq.heappush(heap, (entry[3], entry[4], key))
                continue
            del entries[key]
            self.total_cost -= entry[1]
            self._evictions += 1
            self._clock = h

    def _compact(self) -> None:
        """Rebuild the heap from the entries once stale records outnumber
        current ones (re-puts and :meth:`evict_scope` leave them behind),
        so it stays within twice the entry count. Caller holds the lock."""
        if len(self._heap) > 2 * len(self._entries):
            self._heap = [(e[3], e[4], key) for key, e in self._entries.items()]
            heapq.heapify(self._heap)

    def evict_scope(self, scope) -> int:
        """Drop every entry whose key is a tuple starting with ``scope``
        (the ``(scope, ...)`` convention of the store chunk cache).

        This is *invalidation*, not capacity pressure: the removals are
        returned to the caller, not counted in
        :attr:`CacheStats.evictions`."""
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if isinstance(key, tuple) and key and key[0] == scope
            ]
            for key in doomed:
                self.total_cost -= self._entries.pop(key)[1]
            self._compact()
            return len(doomed)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._heap.clear()
            self._clock = 0.0
            self.total_cost = 0.0
