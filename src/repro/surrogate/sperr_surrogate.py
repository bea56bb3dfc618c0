"""SPERR surrogate: large-chunk sampling + wavelet/SPECK, no outliers/LZ.

Per Table 1, SECRE's SPERR surrogate selects one large chunk, runs the CDF
9/7 wavelet transform and SPECK encoding on it, but skips the outlier
(CSR) encoding and the zstd lossless pass. Skipping the lossless pass
overestimates the stream size while skipping outliers underestimates it;
the net bias depends on the dataset (paper: ~7-47% error) and is corrected
by CAROL's calibration.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.speck import SpeckCoder
from repro.compressors.sperr import _QUANT_FACTOR
from repro.encoding.bitstream import BitWriter
from repro.obs import span
from repro.surrogate.base import SurrogateEstimator
from repro.surrogate.sampling import sample_chunk
from repro.transforms.wavelet import cdf97_forward, max_levels


class SPERRSurrogate(SurrogateEstimator):
    """SPECK bit count on one wavelet-transformed center chunk (half of
    each axis), extrapolated."""

    compressor_name = "sperr"

    def _estimate_curve(self, data: np.ndarray, ebs: np.ndarray, itemsize: int) -> np.ndarray:
        with span("surrogate.estimate", surrogate=self.compressor_name, n_ebs=int(ebs.size)):
            chunk = sample_chunk(data)
            levels = max_levels(chunk.shape)
            coefs = cdf97_forward(chunk, levels)
            absc = np.abs(coefs)
            negc = coefs < 0
            out = np.empty(ebs.size)
            coder = SpeckCoder()
            for i, eb in enumerate(ebs):
                # the codec's own quantization step, so the two cannot drift apart
                qstep = _QUANT_FACTOR * float(eb)
                mag = np.floor(absc / qstep).astype(np.int64)
                writer = BitWriter()
                coder.encode(mag, negc, writer)
                bits_per_point = writer.bit_length / chunk.size
                total_bits = bits_per_point * data.size + 8 * 64
                out[i] = (data.size * itemsize * 8.0) / max(total_bits, 1.0)
        return out
