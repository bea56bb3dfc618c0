"""Sample-and-compress surrogate: the real compressor on window-matched samples.

SECRE's SZx and ZFP estimators (Table 1) run the real coder on a sample of
the blocks it compresses independently, so the per-value cost of the sample
extrapolates to the whole array nearly exactly. The paper's conclusion
names the same recipe as the fallback for any codec without a tailored
surrogate (Compressor Behavior 3): "full compression will be first
performed on sampled data, and then our proposed calibration method will be
used to reduce the estimation error. The key to an accurate estimation is
that the sampling method has to match the target compressor's compression
window."

One class serves all of them; a codec's estimator is that codec plus a
sampler matched to its window (see :mod:`repro.surrogate.registry`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.compressors.base import LossyCompressor
from repro.surrogate.base import SurrogateEstimator


class SampledFullSurrogate(SurrogateEstimator):
    """``compressor`` run on ``sample(data)``, its per-value cost extrapolated.

    ``sample`` maps the float64 array to the values to compress — a sampler
    from :mod:`repro.surrogate.sampling` matched to the codec's window, so
    that the codec partitions the sample into the blocks (or points, or
    chunk) it would see in the whole array.
    """

    def __init__(
        self, compressor: LossyCompressor, sample: Callable[[np.ndarray], np.ndarray]
    ) -> None:
        self.compressor_name = compressor.name
        self._codec = compressor
        self._sample = sample

    def _estimate_curve(self, data: np.ndarray, ebs: np.ndarray, itemsize: int) -> np.ndarray:
        sample = self._sample(data)
        sample = sample.astype(np.float32) if itemsize == 4 else sample
        out = np.empty(ebs.size)
        for i, eb in enumerate(ebs):
            res = self._codec.compress(sample, float(eb))
            # Per-value compressed cost on the sample extrapolates to the
            # full array; exclude the fixed header from the per-value cost.
            per_value = (res.compressed_bytes - res._HEADER_BYTES) / sample.size
            est_bytes = per_value * data.size + res._HEADER_BYTES
            out[i] = (data.size * itemsize) / est_bytes
        return out
