"""SPERR: wavelet + SPECK + outlier correction + lossless pass.

Architecture per Li, Lindstrom & Clyne (IPDPS'23):

1. multilevel CDF 9/7 wavelet transform of the whole array;
2. coefficients quantized to integer magnitudes with step ``eb / 2`` and
   coded by the SPECK set-partitioning coder (:mod:`repro.compressors.speck`);
3. *outlier correction*: the encoder reconstructs what the decoder will see,
   finds points whose error still exceeds the bound (wavelet synthesis can
   amplify per-coefficient error), and stores exact corrections in a sparse
   (index, correction-code) list — this is what guarantees the pointwise
   bound;
4. the SPECK stream goes through the LZ77 lossless backend (zstd's role).

Each stage is a whole-array pass, and the array is one chunk: the store's
chunk grid bounds the working set, so fields that do not fit comfortably
go through ``Store.pack``.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import LossyCompressor
from repro.compressors.speck import SpeckCoder
from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.lz77 import lz77_compress, lz77_decompress
from repro.obs import span
from repro.transforms.wavelet import cdf97_forward, cdf97_inverse, max_levels

_CORR_BITS = 8  # signed correction codes in [-127, 127]
_CORR_MAX = 127
# qstep = _QUANT_FACTOR * eb; a smaller factor means fewer outliers but
# more coded planes. 0.5 mirrors SPERR's default headroom.
_QUANT_FACTOR = 0.5


class SPERRCompressor(LossyCompressor):
    """Wavelet-based high-ratio compressor with guaranteed error bound."""

    name = "sperr"

    def _quantize(self, coefs: np.ndarray, qstep: float) -> tuple[np.ndarray, np.ndarray]:
        mag = np.floor(np.abs(coefs) / qstep).astype(np.int64)
        return mag, coefs < 0

    def _dequantize(self, mag: np.ndarray, neg: np.ndarray, qstep: float) -> np.ndarray:
        vals = np.where(mag > 0, (mag.astype(np.float64) + 0.5) * qstep, 0.0)
        return np.where(neg, -vals, vals)

    def _compress(self, data: np.ndarray, error_bound: float) -> tuple[bytes, dict]:
        levels = max_levels(data.shape)
        qstep = _QUANT_FACTOR * error_bound
        with span("compressor.stage.predict", codec=self.name):
            coefs = cdf97_forward(data, levels)
        with span("compressor.stage.quantize", codec=self.name):
            mag, neg = self._quantize(coefs, qstep)

        with span("compressor.stage.encode", codec=self.name):
            speck_writer = BitWriter()
            p_top = SpeckCoder().encode(mag, neg, speck_writer)
            lz = lz77_compress(speck_writer.getvalue())

        # Outlier pass: reconstruct exactly as the decoder will and correct
        # every point still violating the bound.
        with span("compressor.stage.outlier", codec=self.name):
            recon = cdf97_inverse(self._dequantize(mag, neg, qstep), levels)
            err = data - recon
            viol = np.abs(err) > error_bound
            idxs = np.flatnonzero(viol.ravel())
            corr = np.rint(err.ravel()[idxs] / error_bound).astype(np.int64)
            exact_mask = np.abs(corr) > _CORR_MAX
            exact_vals = data.ravel()[idxs[exact_mask]]

        with span("compressor.stage.encode", codec=self.name):
            head = BitWriter()
            nbits_idx = max(int(data.size - 1).bit_length(), 1)
            head.write_elias_gamma(int(idxs.size) + 1)
            head.write_uint_array(idxs.astype(np.uint64), nbits_idx)
            clipped = (corr + _CORR_MAX + 1).clip(0, 2 * _CORR_MAX + 1)
            head.write_uint_array(clipped.astype(np.uint64), _CORR_BITS)
            head.write_bit_array(exact_mask)
            head.write_uint_array(exact_vals.view(np.uint64), 64)
            head_bytes = head.getvalue()
        payload = len(head_bytes).to_bytes(8, "little") + head_bytes + lz
        return payload, {"levels": levels, "p_top": p_top, "qstep": qstep}

    def _decompress(self, payload: bytes, metadata: dict) -> np.ndarray:
        if "mode" in metadata:
            raise ValueError(
                f"sperr stream names mode {metadata['mode']!r}; only whole-array "
                "streams decode"
            )
        shape = tuple(metadata["shape"])
        eb = float(metadata["error_bound"])
        levels = int(metadata["levels"])
        p_top = int(metadata["p_top"])
        qstep = float(metadata["qstep"])
        size = int(np.prod(shape))

        head_len = int.from_bytes(payload[:8], "little")
        reader = BitReader(payload[8 : 8 + head_len])
        lz = payload[8 + head_len :]

        nbits_idx = max(int(size - 1).bit_length(), 1)
        n_out = reader.read_elias_gamma() - 1
        idxs = reader.read_uint_array(n_out, nbits_idx).astype(np.int64)
        corr = reader.read_uint_array(n_out, _CORR_BITS).astype(np.int64) - (_CORR_MAX + 1)
        exact_mask = reader.read_bit_array(n_out)
        exact_vals = reader.read_uint_array(int(exact_mask.sum()), 64).view(np.float64)

        with span("compressor.stage.decode", codec=self.name):
            mag, neg = SpeckCoder().decode(BitReader(lz77_decompress(lz)), shape, p_top)
        coefs = self._dequantize(mag.reshape(shape), neg.reshape(shape), qstep)
        with span("compressor.stage.predict", codec=self.name):
            recon = cdf97_inverse(coefs, levels)

        flat = recon.ravel()
        if n_out:
            flat[idxs] += corr * eb
            flat[idxs[exact_mask]] = exact_vals
        return flat.reshape(shape)
