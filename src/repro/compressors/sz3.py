"""SZ3: prediction-based compressor (interpolation + Lorenzo modes).

Architecture per Liang et al. (IEEE TBD'23). The default ``interp``
predictor is SZ3's multilevel spline interpolation:

1. *anchors* — every ``2^L``-th point per axis is stored exactly;
2. levels ``s = 2^L .. 2`` — for each level and each axis in turn, the
   points midway between known points are predicted with the 4-point cubic
   spline of Eq. (7) (linear/copy fallback at boundaries), the residual is
   quantized with step ``2*error_bound``, and the *reconstructed* value is
   written back so later predictions see exactly what the decompressor will;
3. the quantization codes go through canonical Huffman and then the LZ77
   lossless backend (zstd's role in real SZ3); codes outside the 16-bit
   window become outliers stored exactly.

The ``lorenzo`` predictor is the cuSZ-style decoupled variant: values are
pre-quantized to the ``2*eb`` grid, then the integer Lorenzo transform
(per-axis first differences) is applied losslessly — fully vectorizable
while preserving the error bound.

Every stage is a whole-array pass — predictor, quantizer, entropy coder
composed in order, a few numpy kernels per (level, axis) pair. Nothing
here bounds the working set: the store's chunk grid does that, so fields
that do not fit comfortably go through ``Store.pack``.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import LossyCompressor, quantization_step
from repro.encoding.bitstream import BitReader, BitWriter, pack_uint_array
from repro.encoding.huffman import HuffmanCodec
from repro.encoding.lz77 import lz77_compress, lz77_decompress
from repro.obs import StageClock

_C0 = -1.0 / 16.0
_C1 = 9.0 / 16.0
_RADIUS = 32767  # quantization codes in [-RADIUS, RADIUS]
_OFFSET = 32768
_OUTLIER = 65536  # sentinel symbol -> value stored exactly
_ALPHABET = 65537
_SYMBOL_BITS = 17
_ENTROPIES = ("huffman", "range")


def _anchor_level(shape: tuple[int, ...]) -> int:
    """Number of interpolation levels (anchor stride = 2^L)."""
    longest = max(shape)
    if longest < 3:
        return 1
    return int(min(6, np.floor(np.log2(longest - 1))))


def _interp_passes(shape: tuple[int, ...], levels: int):
    """Yield (axis, stride, half) pass descriptors in traversal order."""
    for level in range(levels, 0, -1):
        s = 1 << level
        h = s >> 1
        for axis in range(len(shape)):
            yield axis, s, h


def _pass_subgrid(recon: np.ndarray, axis: int, s: int, h: int) -> np.ndarray | None:
    """View of ``recon`` holding the lines this pass predicts along.

    Axes before ``axis`` were refined earlier in this level (stride ``h``);
    axes after are still at stride ``s``; ``axis`` itself stays full and is
    moved to the front. Returns None when the pass is empty.
    """
    slicer = tuple(
        slice(None) if a == axis else slice(0, None, h if a < axis else s)
        for a in range(recon.ndim)
    )
    order = (axis, *range(axis), *range(axis + 1, recon.ndim))
    sub = recon[slicer].transpose(order)
    if sub.shape[0] <= h:
        return None
    return sub


def _predict(sub: np.ndarray, h: int, s: int) -> np.ndarray:
    """Spline prediction for the mid rows ``sub[h::s]`` along axis 0.

    All stencil points lie on the coarse (stride ``s``) rows, hence are
    already reconstructed: mid ``i`` sits between coarse rows ``i`` and
    ``i + 1``. Interior mids (coarse rows ``i - 1 .. i + 2`` all exist)
    get the 4-point cubic, the first mid and the one before the last
    coarse row the 2-point linear average, and a mid past the last coarse
    row a copy of it — each a strided slice of ``sub``, no index arrays.
    """
    coarse = sub[::s]
    nc = coarse.shape[0]
    pred = np.empty(sub[h::s].shape, dtype=sub.dtype)
    if nc >= 4:
        pred[1 : nc - 2] = (
            _C0 * coarse[: nc - 3] + _C1 * coarse[1 : nc - 2]
            + _C1 * coarse[2 : nc - 1] + _C0 * coarse[3:]
        )
    if nc >= 2:  # the same row twice when nc == 2
        pred[0] = 0.5 * (coarse[0] + coarse[1])
        pred[nc - 2] = 0.5 * (coarse[nc - 2] + coarse[nc - 1])
    if pred.shape[0] == nc:
        pred[nc - 1] = coarse[nc - 1]
    return pred


class SZ3Compressor(LossyCompressor):
    """Interpolation/Lorenzo prediction compressor with entropy backend."""

    name = "sz3"

    def __init__(self, predictor: str = "interp", entropy: str = "huffman") -> None:
        if predictor not in ("interp", "lorenzo"):
            raise ValueError("predictor must be 'interp' or 'lorenzo'")
        if entropy not in _ENTROPIES:
            raise ValueError("entropy must be 'huffman' or 'range'")
        self.predictor = predictor
        self.entropy = entropy

    def _clock(self, entropy: str) -> StageClock:
        return StageClock("compressor.stage", codec=self.name, entropy=entropy)

    def _stream_entropy(self, metadata: dict) -> str:
        """The coder the stream names; this instance's when it names none."""
        entropy = metadata.get("entropy", self.entropy)
        if entropy not in _ENTROPIES:
            raise ValueError(f"unknown entropy coder {entropy!r} in sz3 stream metadata")
        return entropy

    # -- pluggable entropy backend -------------------------------------------
    #
    # "huffman": canonical Huffman + LZ77 (real SZ3's Huffman + zstd);
    # "range":  static range coder (the arithmetic/ANS stage of SZ
    #           variants) — already near entropy, so no LZ pass after it.

    def _encode_codes(self, symbols: np.ndarray, writer: BitWriter) -> bytes:
        """Entropy stage; model/codebook goes to ``writer``, returns bytes."""
        if self.entropy == "range":
            from repro.encoding.range_coder import range_encode

            payload, freq = range_encode(symbols, alphabet_size=_ALPHABET)
            present = np.flatnonzero(freq > 0)
            writer.write_elias_gamma(present.size + 1)
            writer.write_packed(pack_uint_array(present.astype(np.uint64), _SYMBOL_BITS))
            for c in freq[present]:
                writer.write_elias_gamma(int(c))
            return payload
        codec = HuffmanCodec.fit(symbols, alphabet_size=_ALPHABET)
        present = np.flatnonzero(codec.lengths > 0)
        writer.write_elias_gamma(present.size + 1)
        writer.write_packed(pack_uint_array(present.astype(np.uint64), _SYMBOL_BITS))
        writer.write_packed(pack_uint_array(codec.lengths[present].astype(np.uint64), 6))
        code_writer = BitWriter()
        codec.encode(symbols, code_writer)
        return lz77_compress(code_writer.getvalue())

    def _decode_codes(self, reader: BitReader, payload: bytes, count: int,
                      entropy: str) -> np.ndarray:
        """Inverse of :meth:`_encode_codes` for the coder the stream names."""
        n_present = reader.read_elias_gamma() - 1
        present = reader.read_uint_array(n_present, _SYMBOL_BITS).astype(np.int64)
        if n_present and present.max() >= _ALPHABET:
            raise ValueError(
                f"damaged sz3 {entropy} codebook: symbol {int(present.max())} "
                f"is outside the {_ALPHABET}-symbol alphabet"
            )
        if entropy == "range":
            from repro.encoding.range_coder import range_decode

            counts = np.array([reader.read_elias_gamma() for _ in range(n_present)],
                              dtype=np.int64)
            freq = np.zeros(_ALPHABET, dtype=np.int64)
            freq[present] = counts
            return range_decode(payload, freq, count)
        lengths = np.zeros(_ALPHABET, dtype=np.int64)
        lengths[present] = reader.read_uint_array(n_present, 6).astype(np.int64)
        codec = HuffmanCodec.from_lengths(lengths)
        return codec.decode(BitReader(lz77_decompress(payload)), count)

    # -- interpolation mode ------------------------------------------------

    def _compress_interp(self, data: np.ndarray, eb: float) -> tuple[bytes, dict]:
        step = quantization_step(eb)
        shape = data.shape
        levels = _anchor_level(shape)
        stride = 1 << levels
        clock = self._clock(self.entropy)
        recon = np.zeros_like(data)
        anchor_slicer = tuple(slice(0, None, stride) for _ in shape)
        anchors = data[anchor_slicer].astype(np.float64)
        recon[anchor_slicer] = anchors

        codes: list[np.ndarray] = []
        outliers: list[np.ndarray] = []
        for axis, s, h in _interp_passes(shape, levels):
            sub = _pass_subgrid(recon, axis, s, h)
            if sub is None:
                continue
            orig = _pass_subgrid(data, axis, s, h)
            with clock("predict"):
                pred = _predict(sub, h, s)
            with clock("quantize"):
                vals = orig[h::s]
                q = np.rint((vals - pred) / step)
                bad = np.abs(q) > _RADIUS
                q = np.clip(q, -_RADIUS, _RADIUS).astype(np.int64)
                rec = pred + q * step
                if bad.any():
                    rec = np.where(bad, vals, rec)
                    outliers.append(vals[bad].ravel())
                sub[h::s] = rec
                sym = q + _OFFSET
                sym[bad] = _OUTLIER
                codes.append(sym.ravel())

        symbols = np.concatenate(codes) if codes else np.zeros(0, dtype=np.int64)
        out_vals = np.concatenate(outliers) if outliers else np.zeros(0, dtype=np.float64)
        with clock("encode"):
            writer = BitWriter()
            writer.write_packed(pack_uint_array(anchors.ravel().view(np.uint64), 64))
            writer.write_packed(pack_uint_array(out_vals.view(np.uint64), 64))
            lz = self._encode_codes(symbols, writer) if symbols.size else b""
            head = writer.getvalue()
        clock.emit(n_symbols=int(symbols.size))
        return len(head).to_bytes(8, "little") + head + lz, {
            "mode": "interp",
            "entropy": self.entropy,
            "levels": levels,
            "n_codes": int(symbols.size),
            "n_outliers": int(out_vals.size),
            "n_anchors": int(anchors.size),
        }

    def _decompress_interp(self, payload: bytes, metadata: dict) -> np.ndarray:
        shape = tuple(metadata["shape"])
        step = quantization_step(float(metadata["error_bound"]))
        levels = int(metadata["levels"])
        n_codes = int(metadata["n_codes"])
        entropy = self._stream_entropy(metadata)
        clock = self._clock(entropy)

        head_len = int.from_bytes(payload[:8], "little")
        reader = BitReader(payload[8 : 8 + head_len])
        lz = payload[8 + head_len :]
        anchors = reader.read_uint_array(int(metadata["n_anchors"]), 64).view(np.float64)
        out_vals = reader.read_uint_array(int(metadata["n_outliers"]), 64).view(np.float64)
        with clock("decode"):
            symbols = (
                self._decode_codes(reader, lz, n_codes, entropy)
                if n_codes
                else np.zeros(0, dtype=np.int64)
            )

        recon = np.zeros(shape, dtype=np.float64)
        anchor_slicer = tuple(slice(0, None, 1 << levels) for _ in shape)
        recon[anchor_slicer] = anchors.reshape(recon[anchor_slicer].shape)

        pos = 0
        out_pos = 0
        for axis, s, h in _interp_passes(shape, levels):
            sub = _pass_subgrid(recon, axis, s, h)
            if sub is None:
                continue
            with clock("predict"):
                pred = _predict(sub, h, s)
            with clock("decode"):
                sym = symbols[pos : pos + pred.size].reshape(pred.shape)
                pos += pred.size
                bad = sym == _OUTLIER
                rec = pred + (sym.astype(np.float64) - _OFFSET) * step
                n_bad = int(bad.sum())
                if n_bad:
                    rec[bad] = out_vals[out_pos : out_pos + n_bad]
                    out_pos += n_bad
                sub[h::s] = rec
        clock.emit()
        return recon

    # -- Lorenzo mode (cuSZ-style decoupled) --------------------------------

    def _compress_lorenzo(self, data: np.ndarray, eb: float) -> tuple[bytes, dict]:
        step = quantization_step(eb)
        clock = self._clock(self.entropy)
        with clock("quantize"):
            qv = np.rint(data / step)
            if (np.abs(qv) >= 2**52).any():  # beyond exact float integer range
                raise ValueError("error bound too small relative to data magnitude")
            res = qv.astype(np.int64)
        with clock("predict"):
            for axis in range(res.ndim):
                res = np.diff(res, axis=axis, prepend=0)
            clipped = np.clip(res, -_RADIUS, _RADIUS)
            outlier_mask = clipped != res
            sym = (clipped + _OFFSET).ravel()
            sym[outlier_mask.ravel()] = _OUTLIER
            out_res = res[outlier_mask]

        with clock("encode"):
            writer = BitWriter()
            # Outlier residuals stored as 64-bit two's complement.
            writer.write_packed(pack_uint_array(out_res.view(np.uint64), 64))
            lz = self._encode_codes(sym, writer)
            head = writer.getvalue()
        clock.emit(n_symbols=int(sym.size))
        return len(head).to_bytes(8, "little") + head + lz, {
            "mode": "lorenzo",
            "entropy": self.entropy,
            "n_codes": int(sym.size),
            "n_outliers": int(out_res.size),
        }

    def _decompress_lorenzo(self, payload: bytes, metadata: dict) -> np.ndarray:
        step = quantization_step(float(metadata["error_bound"]))
        entropy = self._stream_entropy(metadata)
        clock = self._clock(entropy)

        head_len = int.from_bytes(payload[:8], "little")
        reader = BitReader(payload[8 : 8 + head_len])
        lz = payload[8 + head_len :]
        out_res = reader.read_uint_array(int(metadata["n_outliers"]), 64).view(np.int64)
        with clock("decode"):
            symbols = self._decode_codes(reader, lz, int(metadata["n_codes"]), entropy)
            res = symbols - _OFFSET
            res[symbols == _OUTLIER] = out_res
            res = res.reshape(tuple(metadata["shape"]))
            for axis in range(res.ndim - 1, -1, -1):
                res = np.cumsum(res, axis=axis)
            out = res.astype(np.float64) * step
        clock.emit()
        return out

    # -- dispatch -----------------------------------------------------------

    def _compress(self, data: np.ndarray, error_bound: float) -> tuple[bytes, dict]:
        if self.predictor == "interp":
            return self._compress_interp(data, error_bound)
        return self._compress_lorenzo(data, error_bound)

    def _decompress(self, payload: bytes, metadata: dict) -> np.ndarray:
        if metadata["mode"] == "interp":
            return self._decompress_interp(payload, metadata)
        return self._decompress_lorenzo(payload, metadata)
