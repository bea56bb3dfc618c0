"""CAROL: the paper's contribution — fast, scalable ratio control.

The four core contributions map onto the three pipeline stages:

1. collection uses the SECRE surrogate instead of the full compressor;
2. plus the calibration pass (a few full-compressor points) to remove the
   surrogate's systematic error;
3. training is Bayesian optimization whose observation list checkpoints,
   so the base class's :meth:`~RatioControlledFramework.refine` is
   warm-started, enabling incremental refinement on new data;
4. inference extracts features with the block-parallel (GPU-kernel-style)
   extractor.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import RatioControlledFramework
from repro.features.parallel import (
    extract_features_parallel,
    extract_features_parallel_many,
    sample_blocks,
)


class CarolFramework(RatioControlledFramework):
    """Calibrated-surrogate + Bayesian-optimization framework."""

    name = "carol"
    collection_mode = "calibrated"
    training_method = "bayesopt"

    def _extract_features(self, data: np.ndarray) -> tuple[np.ndarray, float]:
        return extract_features_parallel(data)

    def _extract_features_many(self, arrays: list) -> tuple[np.ndarray, float]:
        return extract_features_parallel_many(arrays)

    def feature_sample(self, data: np.ndarray) -> np.ndarray:
        return sample_blocks(data)
