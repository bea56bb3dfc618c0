"""Digest-keyed LRU cache for the serving layer.

The expensive part of a serving request is feature extraction, and the
features depend only on the values the extractor reads — its block or
stride *sample* of the field. So the service keys the cache with a
digest (:func:`digest_array`) of that sample: equal samples give
bitwise-equal features, so two requests whose sampled values agree share
one entry no matter where the arrays came from, which is what makes
repeated fixed-ratio requests over the same fields (the FRaZ serving
scenario) cost a hash of the sample after the first hit.

:class:`LRUCache` bounds its contents two ways, independently usable:

- **entry count** (``max_entries``, the original mode) — right for the
  feature cache, whose entries are uniform 5-vectors;
- **total cost** (``max_cost`` plus a ``cost`` function, typically bytes)
  — right for the store catalog's decompressed-chunk cache, whose
  entries vary by orders of magnitude in size. Eviction is still
  least-recently-used; it just runs until the *cost* fits the budget,
  and an entry whose own cost exceeds the whole budget is never
  admitted (it would evict everything and still not fit).

All operations take an internal lock, so one cache can be shared by
concurrent readers. The cache keeps its own always-on
:class:`CacheStats` (hits / misses / evictions — the one place they are
counted; the serving layer and the catalog report hit rates from it);
``len(cache)`` and ``cache.total_cost`` are its current size.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

_MISSING = object()


def digest_array(data: np.ndarray) -> str:
    """Stable content digest of an array (bytes + dtype + shape).

    blake2b over the raw buffer: equal arrays hash equal, and a single
    changed element changes the digest. Non-contiguous inputs are
    compacted first so logically-equal views agree; a contiguous input
    is hashed in place, without a ``tobytes()`` copy.
    """
    arr = np.ascontiguousarray(data)
    h = hashlib.blake2b(digest_size=16)
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
    reads bracket an interval and each is safe to hold, hash, or compare
    — the typed counterpart of the dict this layer used to hand out
    (:meth:`as_dict` keeps that shape for serialization)."""

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

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Thread-safe least-recently-used mapping, bounded by entry count
    and/or total cost.

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
        # key -> (value, cost); cost is 0.0 when no cost bound is set
        self._entries: OrderedDict = OrderedDict()

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
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key, value) -> bool:
        """Insert/refresh an entry, evicting the least recent past either
        bound. In cost mode an entry costing more than the whole budget
        is not admitted. Returns whether the entry was stored — ``False``
        when the cache is disabled or the entry alone exceeds the budget
        — so callers can tie side effects (e.g. freezing an array) to
        actual admission."""
        if self.disabled:
            return False
        with self._lock:
            cost = self._cost(value) if self.max_cost is not None else 0.0
            if self.max_cost is not None and cost > self.max_cost:
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self.total_cost -= old[1]
            self._entries[key] = (value, cost)
            self.total_cost += cost
            while self._entries and (
                (self.max_entries is not None and len(self._entries) > self.max_entries)
                or (self.max_cost is not None and self.total_cost > self.max_cost)
            ):
                _, (_, evicted_cost) = self._entries.popitem(last=False)
                self.total_cost -= evicted_cost
                self._evictions += 1
            return True

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
                _, cost = self._entries.pop(key)
                self.total_cost -= cost
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
            self.total_cost = 0.0
