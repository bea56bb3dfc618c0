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

Each stage is a whole-array pass. With ``chunk_edge`` set, arrays larger
than the edge are cut into independent chunks and each chunk runs the same
single-chunk pipeline (real SPERR's chunked mode) — a format feature, not
a memory policy: the store's chunk grid bounds the working set, so fields
that do not fit comfortably go through ``Store.pack``.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import LossyCompressor
from repro.compressors.speck import SpeckCoder
from repro.encoding.bitstream import BitReader, BitWriter, pack_uint_array
from repro.encoding.lz77 import lz77_compress, lz77_decompress
from repro.obs import StageClock
from repro.transforms.wavelet import cdf97_forward, cdf97_inverse, max_levels

_CORR_BITS = 8  # signed correction codes in [-127, 127]
_CORR_MAX = 127


class SPERRCompressor(LossyCompressor):
    """Wavelet-based high-ratio compressor with guaranteed error bound."""

    name = "sperr"

    def __init__(self, quant_factor: float = 0.5, chunk_edge: int | None = None) -> None:
        # qstep = quant_factor * eb; smaller factor = fewer outliers but more
        # coded planes. 0.5 mirrors SPERR's default headroom.
        if not 0.0 < quant_factor <= 1.0:
            raise ValueError("quant_factor must be in (0, 1]")
        # Real SPERR splits large arrays into independent chunks of up to
        # 128 per dimension (Table 1's "large chunk" window); ``chunk_edge``
        # enables that mode. None compresses the whole array as one chunk.
        if chunk_edge is not None and chunk_edge < 8:
            raise ValueError("chunk_edge must be >= 8")
        self.quant_factor = float(quant_factor)
        self.chunk_edge = chunk_edge

    def _quantize(self, coefs: np.ndarray, qstep: float) -> tuple[np.ndarray, np.ndarray]:
        mag = np.floor(np.abs(coefs) / qstep).astype(np.int64)
        return mag, coefs < 0

    def _dequantize(self, mag: np.ndarray, neg: np.ndarray, qstep: float) -> np.ndarray:
        vals = np.where(mag > 0, (mag.astype(np.float64) + 0.5) * qstep, 0.0)
        return np.where(neg, -vals, vals)

    # -- chunked container --------------------------------------------------

    def _chunk_slices(self, shape: tuple[int, ...]):
        """Slicers of the independent chunks covering ``shape``."""
        edge = self.chunk_edge
        axes = []
        for s in shape:
            starts = list(range(0, s, edge))
            axes.append([slice(a, min(a + edge, s)) for a in starts])
        import itertools

        return [tuple(c) for c in itertools.product(*axes)]

    def _compress(self, data: np.ndarray, error_bound: float) -> tuple[bytes, dict]:
        if self.chunk_edge is None or all(s <= self.chunk_edge for s in data.shape):
            return self._compress_single(data, error_bound)
        parts = []
        chunk_meta = []
        for sl in self._chunk_slices(data.shape):
            payload, meta = self._compress_single(np.ascontiguousarray(data[sl]), error_bound)
            parts.append(payload)
            chunk_meta.append({**meta, "nbytes": len(payload)})
        return b"".join(parts), {
            "mode": "chunked",
            "chunk_edge": self.chunk_edge,
            "chunks": chunk_meta,
            # container-level keys expected downstream
            "levels": 0,
            "p_top": -1,
            "qstep": self.quant_factor * error_bound,
        }

    def _compress_single(self, data: np.ndarray, error_bound: float) -> tuple[bytes, dict]:
        levels = max_levels(data.shape)
        qstep = self.quant_factor * error_bound
        clock = StageClock("compressor.stage", codec=self.name)
        with clock("predict"):
            coefs = cdf97_forward(data, levels)
        with clock("quantize"):
            mag, neg = self._quantize(coefs, qstep)

        with clock("encode"):
            speck_writer = BitWriter()
            p_top = SpeckCoder().encode(mag, neg, speck_writer)
            lz = lz77_compress(speck_writer.getvalue())

        # Outlier pass: reconstruct exactly as the decoder will and correct
        # every point still violating the bound.
        with clock("outlier"):
            recon = cdf97_inverse(self._dequantize(mag, neg, qstep), levels)
            err = data - recon
            viol = np.abs(err) > error_bound
            idxs = np.flatnonzero(viol.ravel())
            corr = np.rint(err.ravel()[idxs] / error_bound).astype(np.int64)
            exact_mask = np.abs(corr) > _CORR_MAX
            exact_vals = data.ravel()[idxs[exact_mask]]

        with clock("encode"):
            head = BitWriter()
            nbits_idx = max(int(data.size - 1).bit_length(), 1)
            head.write_elias_gamma(int(idxs.size) + 1)
            head.write_packed(pack_uint_array(idxs.astype(np.uint64), nbits_idx))
            clipped = (corr + _CORR_MAX + 1).clip(0, 2 * _CORR_MAX + 1)
            head.write_packed(pack_uint_array(clipped.astype(np.uint64), _CORR_BITS))
            head.write_bit_array(exact_mask)
            head.write_packed(pack_uint_array(exact_vals.view(np.uint64), 64))
            head_bytes = head.getvalue()
        clock.emit()
        payload = len(head_bytes).to_bytes(8, "little") + head_bytes + lz
        return payload, {"levels": levels, "p_top": p_top, "qstep": qstep}

    def _decompress(self, payload: bytes, metadata: dict) -> np.ndarray:
        if metadata.get("mode") != "chunked":
            return self._decompress_single(payload, metadata)
        shape = tuple(metadata["shape"])
        out = np.empty(shape, dtype=np.float64)
        slicers = self._chunk_slices(shape)
        chunk_meta = metadata["chunks"]
        if len(slicers) != len(chunk_meta):
            raise ValueError("corrupt chunked stream: chunk count mismatch")
        offset = 0
        for sl, meta in zip(slicers, chunk_meta):
            nbytes = int(meta["nbytes"])
            sub_meta = {
                **meta,
                "shape": tuple(s.stop - s.start for s in sl),
                "error_bound": metadata["error_bound"],
            }
            out[sl] = self._decompress_single(payload[offset : offset + nbytes], sub_meta)
            offset += nbytes
        return out

    def _decompress_single(self, payload: bytes, metadata: dict) -> np.ndarray:
        shape = tuple(metadata["shape"])
        eb = float(metadata["error_bound"])
        levels = int(metadata["levels"])
        p_top = int(metadata["p_top"])
        qstep = float(metadata["qstep"])
        size = int(np.prod(shape))
        clock = StageClock("compressor.stage", codec=self.name)

        head_len = int.from_bytes(payload[:8], "little")
        reader = BitReader(payload[8 : 8 + head_len])
        lz = payload[8 + head_len :]

        nbits_idx = max(int(size - 1).bit_length(), 1)
        n_out = reader.read_elias_gamma() - 1
        idxs = reader.read_uint_array(n_out, nbits_idx).astype(np.int64)
        corr = reader.read_uint_array(n_out, _CORR_BITS).astype(np.int64) - (_CORR_MAX + 1)
        exact_mask = reader.read_bit_array(n_out)
        exact_vals = reader.read_uint_array(int(exact_mask.sum()), 64).view(np.float64)

        with clock("decode"):
            mag, neg = SpeckCoder().decode(BitReader(lz77_decompress(lz)), shape, p_top)
        coefs = self._dequantize(mag.reshape(shape), neg.reshape(shape), qstep)
        with clock("predict"):
            recon = cdf97_inverse(coefs, levels)
        clock.emit()

        flat = recon.ravel()
        if n_out:
            flat[idxs] += corr * eb
            flat[idxs[exact_mask]] = exact_vals
        return flat.reshape(shape)
