"""Generic fallback surrogate: full compression on sampled data.

The paper's conclusion (Compressor Behavior 3): when no tailored surrogate
exists for a compressor, "full compression will be first performed on
sampled data, and then our proposed calibration method will be used to
reduce the estimation error. The key to an accurate estimation is that the
sampling method has to match the target compressor's compression window."

This estimator implements exactly that: it runs the *real* compressor on a
sample drawn with a window-matched strategy and extrapolates the per-value
cost. Any compressor in :mod:`repro.compressors.registry` gets ratio
estimation for free this way (cuszp's surrogate is built from it).
"""

from __future__ import annotations

import numpy as np

from repro.compressors.registry import get_compressor
from repro.surrogate.base import SurrogateEstimator
from repro.surrogate.sampling import sample_chunk, sample_flat_blocks, sample_points

#: window kind -> sampler producing ``(sample_array, fraction)``
_WINDOWS = ("block", "point", "chunk")


class SampledFullSurrogate(SurrogateEstimator):
    """Window-matched sampling + the real compressor, extrapolated.

    Parameters
    ----------
    compressor:
        Registry name of the target compressor.
    window:
        ``"block"`` (flat block sampling, delta/transform codecs),
        ``"point"`` (strided point sampling, prediction codecs), or
        ``"chunk"`` (one contiguous chunk, wavelet/large-window codecs).
    fraction:
        Approximate fraction of the data to compress (default 10%, the
        upper end of SECRE's 5-10% range).
    """

    def __init__(self, compressor: str, window: str = "chunk", fraction: float = 0.1) -> None:
        if window not in _WINDOWS:
            raise ValueError(f"window must be one of {_WINDOWS}")
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.compressor_name = compressor
        self.window = window
        self.fraction = float(fraction)
        self._codec = get_compressor(compressor)

    def _sample(self, data: np.ndarray) -> np.ndarray:
        if self.window == "block":
            stride = max(int(round(1.0 / self.fraction)), 1)
            sample, _ = sample_flat_blocks(data, 128, stride)
            return sample
        if self.window == "point":
            stride = max(int(round((1.0 / self.fraction) ** (1.0 / data.ndim))), 1)
            sample, _ = sample_points(data, stride)
            return sample
        frac_axis = self.fraction ** (1.0 / data.ndim)
        sample, _ = sample_chunk(data, frac_axis)
        return sample

    def _estimate_curve(self, data: np.ndarray, ebs: np.ndarray, itemsize: int) -> np.ndarray:
        sample = self._sample(data)
        sample = sample.astype(np.float32) if itemsize == 4 else sample
        out = np.empty(ebs.size)
        for i, eb in enumerate(ebs):
            res = self._codec.compress(sample, float(eb))
            per_value = (res.compressed_bytes - res._HEADER_BYTES) / sample.size
            est_bytes = per_value * data.size + res._HEADER_BYTES
            out[i] = (data.size * itemsize) / est_bytes
        return out
