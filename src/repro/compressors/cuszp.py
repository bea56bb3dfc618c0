"""cuSZp-style compressor: pre-quantization + block delta + fixed-length packing.

cuSZp (Huang et al., SC'23) is the paper's reference for ultra-fast
delta-based GPU compression (Sections 1-2). Its pipeline, reproduced here:

1. *pre-quantization* — every value maps to an integer code on the
   ``2*error_bound`` grid (the whole error budget is spent in this one
   step, so the bound holds by construction);
2. *block-wise delta* — codes are cut into blocks of 32 and
   delta-encoded against the previous code within the block (first code
   kept absolute), shrinking magnitudes on smooth data;
3. *fixed-length encoding* — each block stores its deltas in
   sign-magnitude with the block's minimal uniform bit width; all-zero
   blocks collapse to a single flag bit.

Not part of the paper's evaluated four — included as the extensibility
exercise the paper highlights: a new compressor only needs execution data
(and optionally the generic sampled-full surrogate) to become
ratio-controllable. See ``examples/extend_new_compressor.py``.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import LossyCompressor, quantization_step
from repro.compressors.szx import _as_blocks, _code_widths
from repro.encoding.bitstream import BitReader, BitWriter

BLOCK = 32
_W_BITS = 6


class CuSZpCompressor(LossyCompressor):
    """Pre-quantization delta compressor (cuSZp architecture)."""

    name = "cuszp"

    def _compress(self, data: np.ndarray, error_bound: float) -> tuple[bytes, dict]:
        bs = BLOCK
        step = quantization_step(error_bound)
        q = np.rint(data.ravel() / step)
        if (np.abs(q) >= 2**52).any():
            raise ValueError("error bound too small relative to data magnitude")
        q = q.astype(np.int64)
        n = q.size
        blocks = _as_blocks(q, bs)
        nblocks = blocks.shape[0]

        # Delta within each block; column 0 keeps the absolute code.
        deltas = blocks.copy()
        deltas[:, 1:] = blocks[:, 1:] - blocks[:, :-1]
        first = deltas[:, 0]
        rest = deltas[:, 1:]

        mags = np.abs(rest).astype(np.uint64)
        widths = _code_widths(mags.max(axis=1))
        nz = widths > 0
        zero_block = ~nz

        writer = BitWriter()
        writer.write_bit_array(zero_block)
        # First code of every block: 64-bit two's complement (absolute).
        writer.write_uint_array(first.view(np.uint64), 64)
        if nz.any():
            writer.write_uint_array(widths[nz].astype(np.uint64), _W_BITS)
            # Sign-magnitude payload, grouped by width for bulk packing.
            for width in np.unique(widths[nz]):
                sel = widths == width
                writer.write_bit_array((rest[sel] < 0).ravel())
                writer.write_uint_array(mags[sel].ravel(), int(width))
        return writer.getvalue(), {"n": n, "nblocks": nblocks, "block_size": bs}

    def _decompress(self, payload: bytes, metadata: dict) -> np.ndarray:
        n = int(metadata["n"])
        nblocks = int(metadata["nblocks"])
        if "block_size" not in metadata:
            raise ValueError("cuszp stream metadata has no 'block_size' field")
        bs = int(metadata["block_size"])
        eb = float(metadata["error_bound"])
        step = quantization_step(eb)
        reader = BitReader(payload)

        zero_block = reader.read_bit_array(nblocks)
        first = reader.read_uint_array(nblocks, 64).view(np.int64)
        rest = np.zeros((nblocks, bs - 1), dtype=np.int64)
        nz = ~zero_block
        n_nz = int(nz.sum())
        if n_nz:
            widths = reader.read_uint_array(n_nz, _W_BITS).astype(np.int64)
            wfull = np.zeros(nblocks, dtype=np.int64)
            wfull[nz] = widths
            for width in np.unique(widths):
                sel = (wfull == width) & nz
                count = int(sel.sum())
                if count == 0:
                    continue
                signs = reader.read_bit_array(count * (bs - 1)).reshape(count, bs - 1)
                if width > 0:
                    mags = reader.read_uint_array(count * (bs - 1), int(width))
                    mags = mags.reshape(count, bs - 1).astype(np.int64)
                else:
                    mags = np.zeros((count, bs - 1), dtype=np.int64)
                rest[sel] = np.where(signs, -mags, mags)

        codes = np.concatenate((first[:, None], rest), axis=1)
        codes = np.cumsum(codes, axis=1)  # invert the in-block delta
        shape = tuple(metadata["shape"])
        return (codes.reshape(-1)[:n] * step).reshape(shape)
