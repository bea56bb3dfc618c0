"""SZ3 surrogate: point-wise sampling + last-level spline interpolation only.

Per Table 1 of the paper, SECRE's SZ3 surrogate samples one point every 5
along each dimension, performs the spline interpolation of the *last*
iteration only (the most compute-intensive one), and skips the Huffman
encoder. The compressed size is estimated from the Shannon entropy of the
resulting quantization codes.

The skipped stages are why this surrogate has the largest estimation error
of the four (paper: up to ~60%): real SZ3 pays Huffman/codebook overhead
above the entropy but then recovers bits in the LZ (zstd) pass, and the
earlier interpolation levels see different residual statistics than the last
one. The bias is systematic for a given dataset — exactly the structure
CAROL's calibration exploits.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.sz3 import _OFFSET, _RADIUS, _pass_subgrid, _predict
from repro.encoding.huffman import stream_entropy_bits
from repro.obs import span
from repro.surrogate.base import SurrogateEstimator
from repro.surrogate.sampling import sample_points


class SZ3Surrogate(SurrogateEstimator):
    """Entropy-based size estimate from the last interpolation level."""

    compressor_name = "sz3"

    def __init__(self, stride: int = 5) -> None:
        if stride < 2:
            raise ValueError("stride must be >= 2")
        self.stride = int(stride)

    def _last_level_codes(self, sampled: np.ndarray, eb: float) -> np.ndarray:
        """Quantization codes of the final (stride-2) interpolation level.

        The sampled grid plays the role of the level's coarse grid; the
        surrogate predicts its odd points from even points, mirroring the
        real compressor's last and largest pass.
        """
        step = 2.0 * eb
        recon = sampled.astype(np.float64, copy=True)
        codes = []
        for axis in range(recon.ndim):
            sub = _pass_subgrid(recon, axis, 2, 1)
            if sub is None:
                continue
            pred = _predict(sub, 1, 2)
            q = np.clip(np.rint((sub[1::2] - pred) / step), -_RADIUS, _RADIUS)
            codes.append(q.astype(np.int64).ravel() + _OFFSET)
        if not codes:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(codes)

    def _estimate_curve(self, data: np.ndarray, ebs: np.ndarray, itemsize: int) -> np.ndarray:
        with span("surrogate.estimate", surrogate=self.compressor_name, n_ebs=int(ebs.size)):
            sampled, _fraction = sample_points(data, self.stride)
            out = np.empty(ebs.size)
            anchor_bits = 64.0 * data.size / (1 << (6 * data.ndim))  # anchor overhead
            for i, eb in enumerate(ebs):
                codes = self._last_level_codes(sampled, float(eb))
                bits_per_point = stream_entropy_bits(codes)
                total_bits = bits_per_point * data.size + anchor_bits + 8 * 64
                out[i] = (data.size * itemsize * 8.0) / max(total_bits, 1.0)
        return out
