"""FXRZ-style serial feature extraction.

Two variants, matching the paper's Figure 6 bars:

- ``Serial-Full`` — the five features on the entire array;
- ``Serial-Sampled`` — FXRZ's mitigation: point-wise sampling with a stride
  of 4 per axis (1.5% of a 3-D dataset), features computed on the sampled
  (non-contiguous, cache-hostile) subgrid.

The sampled variant gathers a strided copy first — the same scattered
memory traffic that makes FXRZ's extraction slow relative to CAROL's
block-contiguous scheme.
"""

from __future__ import annotations

import numpy as np

from repro.features.definitions import feature_vector
from repro.obs import timed_span
from repro.utils.validation import as_float_array


def sample_points(arr: np.ndarray, stride: int | None) -> np.ndarray:
    """Everything the extractor reads of ``arr``: the ``[::stride]``
    subgrid per axis (a view), or ``arr`` itself for Serial-Full.

    The features are a pure function of these values, which is what lets
    the serving layer address its feature cache by them.
    """
    if stride is not None and stride > 1:
        return arr[tuple(slice(0, None, stride) for _ in range(arr.ndim))]
    return arr


def extract_features_serial(
    data: np.ndarray, stride: int | None = 4
) -> tuple[np.ndarray, float]:
    """Extract the five features; returns ``(features, elapsed_seconds)``.

    ``stride=None`` computes on the full array (Serial-Full); an integer
    stride point-samples each axis first (Serial-Sampled, FXRZ's default 4).
    """
    arr = as_float_array(data)
    with timed_span("features.serial", stride=stride or 0,
                    n_elements=int(arr.size)) as sp:
        # The strided gather materializes a copy: scattered reads, the cache
        # behaviour the paper attributes to FXRZ's point-wise sampling.
        feats = feature_vector(
            np.ascontiguousarray(sample_points(arr, stride), dtype=np.float64)
        )
    return feats, sp.elapsed
