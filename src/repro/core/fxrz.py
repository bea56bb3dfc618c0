"""FXRZ: the baseline feature-driven fixed-ratio framework (ICDE'23).

Stage choices (paper Sections 2.2, 3.1):

- data collection runs the *full* compressor over the whole error-bound
  grid (65-85% of total setup time);
- model training is a randomized grid search (10 sampled configurations)
  with k-fold cross-validation — not warm-startable, so any new training
  data means searching from scratch;
- inference extracts the five features serially on a stride-4 point sample.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import RatioControlledFramework
from repro.features.serial import (
    extract_features_serial,
    extract_features_serial_many,
    sample_points,
)


class FxrzFramework(RatioControlledFramework):
    """The paper's baseline framework."""

    name = "fxrz"
    collection_mode = "full"
    training_method = "grid"

    def __init__(
        self, compressor: str = "sz3", *, feature_stride: int = 4, **kwargs
    ) -> None:
        super().__init__(compressor, **kwargs)
        self.feature_stride = int(feature_stride)

    def _extract_features(self, data: np.ndarray) -> tuple[np.ndarray, float]:
        return extract_features_serial(data, stride=self.feature_stride)

    def _extract_features_many(self, arrays: list) -> tuple[np.ndarray, float]:
        return extract_features_serial_many(arrays, stride=self.feature_stride)

    def feature_sample(self, data: np.ndarray) -> np.ndarray:
        return sample_points(data, self.feature_stride)
