"""repro.serve — the serving layer: batched, cached inference.

Turns a fitted framework into a service shaped for the paper's
production use cases (repeated fixed-ratio requests over recurring
fields):

- :class:`PredictionService` / :class:`ServiceOptions` — the front-end:
  ``predict``, ``predict_batch`` (stacked inference, bitwise-identical
  to sequential calls) and ``predict_targets``;
- :class:`LRUCache` (+ :func:`digest_array`) — feature cache addressed
  by a digest of the extractor's sample, with always-on
  hit/miss/eviction stats (:class:`CacheStats`);
- :class:`WorkerPool` — bounded process pool with per-task timeouts
  and graceful in-process fallback, which the store uses to fan out
  compression and decode (features are extracted in the caller);
- :class:`ModelRegistry` — names -> saved ``.npz`` frameworks, lazily
  loaded and hot-reloaded on file change.

The blessed import surface is :mod:`repro.api` (``Service``,
``ServiceOptions``); this package is the implementation.
"""

from repro.serve.cache import CacheStats, LRUCache, default_cost, digest_array
from repro.serve.pool import PoolStats, WorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.service import (
    PredictionService,
    ServiceOptions,
    ServiceStats,
)

__all__ = [
    "PredictionService",
    "ServiceOptions",
    "ServiceStats",
    "LRUCache",
    "CacheStats",
    "default_cost",
    "digest_array",
    "WorkerPool",
    "PoolStats",
    "ModelRegistry",
]
