"""PredictionService: batched, cached serving front-end.

Wraps any fitted :class:`~repro.core.framework.RatioControlledFramework`
and turns the one-shot ``predict_error_bound`` call into a serving path
shaped for repeated traffic:

- **feature cache addressed by the extractor's sample** — the extractors
  are block- or stride-sampled, and a feature vector is a pure function
  of the values its extractor reads
  (:meth:`~repro.core.framework.RatioControlledFramework.feature_sample`).
  So the key is ``(extractor identity, digest of that sample)``: a request
  costs a hash of what the extractor reads (1/4 to 1/64 of a field), not
  of the field, and repeated requests skip extraction entirely. This is
  exact: equal samples give bitwise-equal features, hence bitwise-equal
  predictions, whatever the rest of the field holds;
- **one batched path** — :meth:`PredictionService.predict_batch` hashes
  the sample once per distinct array *object* in the batch (a batch
  that names one field five times pays one key), extracts features
  once per distinct key and runs model inference on one stacked design
  matrix. :meth:`~PredictionService.predict` is a batch of one, and
  the model answers each row independently, so a request gets the same
  bits alone, in any batch, and from the framework directly.

Features are extracted in the caller's process. Extraction reads only
the sample, so shipping the whole field to a worker process costs more
than the extraction it would offload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.carol import CarolFramework
from repro.core.framework import Prediction
from repro.core.fxrz import FxrzFramework
from repro.obs import span
from repro.serve.cache import CacheStats, LRUCache, digest_array
from repro.utils.validation import as_float_array


@dataclass(frozen=True, kw_only=True)
class ServiceOptions:
    """Frozen, hashable serving configuration.

    ``cache_entries=0`` disables the feature cache.
    """

    cache_entries: int = 256

    def __post_init__(self) -> None:
        if self.cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")


@dataclass(frozen=True)
class ServiceStats:
    """Typed, immutable serving counters (always on): consumers read
    ``stats.cache.hit_rate``, and a snapshot taken before a run can be
    compared against one taken after."""

    requests: int
    batches: int
    cache: CacheStats


def _extractor_identity(framework) -> tuple[str, int | None] | None:
    """The extractor part of a cache key: which known extractor (and, for
    FXRZ, which stride) computes ``framework``'s features, or None for an
    unknown subclass, whose features only its own instance can vouch for."""
    if type(framework) is FxrzFramework:
        return ("fxrz", framework.feature_stride)
    if type(framework) is CarolFramework:
        return ("carol", None)
    return None


def _feature_key(framework, arr: np.ndarray) -> tuple:
    """Cache key of ``arr``'s features under ``framework``'s extractor.

    The extractor identity keeps a service whose ``framework`` is swapped
    for one with another extractor from being served the old one's
    vectors. Only the two known extractors are trusted to be pure
    functions of ``feature_sample`` — a subclass may override extraction
    alone — so anything else hashes the whole array.
    """
    identity = _extractor_identity(framework)
    sample = arr if identity is None else framework.feature_sample(arr)
    return (identity or type(framework), digest_array(sample))


class PredictionService:
    """Serve ``(field, target_ratio)`` queries over one fitted framework."""

    def __init__(self, framework, *, options: ServiceOptions | None = None) -> None:
        if framework.model.forest is None:
            raise ValueError("framework is not fitted")
        self.options = options or ServiceOptions()
        self.framework = framework
        self.cache = LRUCache(self.options.cache_entries)
        self.n_requests = 0
        self.n_batches = 0

    # -- request normalization -------------------------------------------------

    @staticmethod
    def _as_array(data) -> np.ndarray:
        if hasattr(data, "data") and isinstance(data.data, np.ndarray):
            data = data.data  # a repro.data.fields.Field
        return as_float_array(data)

    # -- features --------------------------------------------------------------

    def _batch_features(
        self, framework, arrays: list[np.ndarray], keys: list[tuple]
    ) -> dict[tuple, np.ndarray]:
        """Features per distinct key, extracting each missing sample once."""
        by_key: dict[tuple, np.ndarray] = {}
        missing: list[tuple[tuple, np.ndarray]] = []
        for arr, key in zip(arrays, keys):
            if key in by_key:
                continue
            feats = self.cache.get(key)
            if feats is None:
                missing.append((key, arr))
                by_key[key] = None  # placeholder, filled below
            else:
                by_key[key] = feats
        if not missing:
            return by_key
        rows = framework.extract_features_many([arr for _, arr in missing])
        for (key, _), feats in zip(missing, rows):
            feats = np.asarray(feats, dtype=np.float64)
            by_key[key] = feats
            self.cache.put(key, feats)
        return by_key

    # -- serving ---------------------------------------------------------------

    def predict(self, data, target_ratio: float, *, safety: float = 0.0) -> Prediction:
        """One request: a :meth:`predict_batch` of one."""
        return self.predict_batch([(data, target_ratio)], safety=safety)[0]

    def predict_batch(self, requests, *, safety: float = 0.0) -> list[Prediction]:
        """Serve ``[(field, target_ratio), ...]`` as one batch.

        The cache key is computed once per distinct array object, feature
        extraction runs once per distinct sample (cache-aware) and model
        inference runs on one stacked feature matrix.
        """
        framework = self.framework
        pairs = [(self._as_array(d), float(r)) for d, r in requests]
        self.n_requests += len(pairs)
        self.n_batches += 1
        if not pairs:
            return []
        with span("serve.predict_batch", n_requests=len(pairs)):
            # one key per distinct array object: every array stays alive
            # in ``pairs``, so no id() is reused within the call
            keys_by_id: dict[int, tuple] = {}
            keys = []
            for a, _ in pairs:
                key = keys_by_id.get(id(a))
                if key is None:
                    key = keys_by_id[id(a)] = _feature_key(framework, a)
                keys.append(key)
            by_key = self._batch_features(framework, [a for a, _ in pairs], keys)
            F = np.stack([by_key[k] for k in keys])
            ratios = np.array([r for _, r in pairs], dtype=np.float64)
            ebs, stds = framework.model.predict_error_bound_batch_with_std(
                F, ratios, safety=safety
            )
            return [
                Prediction(float(eb), float(r), F[i], 0.0, 0.0, std=float(s))
                for i, (eb, r, s) in enumerate(zip(ebs, ratios, stds))
            ]

    # -- lifecycle / introspection ---------------------------------------------

    def stats(self) -> ServiceStats:
        """A :class:`ServiceStats` snapshot of the cumulative serving
        counters."""
        return ServiceStats(
            requests=self.n_requests,
            batches=self.n_batches,
            cache=self.cache.stats,
        )

    def close(self) -> None:
        """Nothing to release; kept so a service is a context manager."""

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
