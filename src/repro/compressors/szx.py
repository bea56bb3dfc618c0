"""SZx: ultra-fast block-wise delta/truncation compressor.

Faithful to the architecture of SZx (Yu et al., HPDC'22): the input is
flattened and cut into blocks of 128 values; each block is either

- a *constant block* — all values within ``error_bound`` of the block
  midpoint, stored as one float64; or
- a *non-constant block* — values quantized to the ``2*error_bound`` grid
  relative to the block minimum and bit-packed with the per-block minimal
  width, the fixed-point analogue of SZx's IEEE-754 insignificant-bit
  truncation + byte-level delta.

Everything is vectorized over all blocks at once; non-constant payloads
are written grouped by bit width so both encode and decode use bulk
bitstream calls. Nothing here bounds the working set: the store's chunk
grid does that, so fields that do not fit comfortably go through
``Store.pack``. The per-block width jumps with the error bound, which is
what makes SZx's compression function notoriously eb-sensitive (paper
Section 6.2.1).
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import (
    CompressionResult,
    LossyCompressor,
    Sizer,
    quantization_step,
)
from repro.encoding.bitstream import BitReader, BitWriter, pack_uint_array
from repro.obs import StageClock
from repro.utils.validation import as_float_array, check_error_bound, require_finite

BLOCK = 128
_K_BITS = 6  # width field per non-constant block (widths 0..63)


def _as_blocks(flat: np.ndarray, bs: int) -> np.ndarray:
    """``flat`` as rows of ``bs`` values; edge padding repeats the last
    value, so it stays inside the last block's value range."""
    nblocks = -(-flat.size // bs)
    pad = nblocks * bs - flat.size
    if pad:
        flat = np.concatenate((flat, np.full(pad, flat[-1])))
    return flat.reshape(nblocks, bs)


def _code_widths(qmax: np.ndarray) -> np.ndarray:
    """Bit length of each block's largest quantization code (uint64 in,
    int64 out; 0 for a zero code)."""
    w = np.zeros(qmax.size, dtype=np.int64)
    nz = qmax > 0
    w[nz] = np.floor(np.log2(qmax[nz].astype(np.float64))).astype(np.int64) + 1
    # guard against log2 rounding at exact powers of two
    too_small = (np.uint64(1) << w.astype(np.uint64)) <= qmax
    w[too_small] += 1
    return w


class _ClosedFormSizer(Sizer):
    """SZx's size without its bits: the stage that fixes the size (the
    per-block constant test and bit width) needs only each block's
    spread, so one min/max pass serves every error bound.

    Exact, not an estimate: subtracting the block minimum, dividing by
    the step and ``rint`` are all monotone, so a block's largest code is
    the code of its largest value — ``rint(spread / step)``, the very
    float operations ``_compress`` applies to that element.
    """

    def __init__(self, arr: np.ndarray, block_size: int) -> None:
        blocks = _as_blocks(arr.ravel(), block_size)
        # float32 -> float64 is exact and order-preserving, so the
        # min/max pass can run in the input's own dtype.
        self._spread = blocks.max(axis=1).astype(np.float64) - blocks.min(
            axis=1
        ).astype(np.float64)
        self._block_size = block_size

    def __call__(self, error_bound: float) -> int:
        eb = check_error_bound(error_bound)
        spread = self._spread
        nc_spread = spread[spread > 2.0 * eb]
        n_nc = nc_spread.size
        # const flags, then 64-bit midpoints | 64-bit minima + width fields
        bits = spread.size + 64 * (spread.size - n_nc) + (64 + _K_BITS) * n_nc
        if n_nc:
            qmax = np.rint(nc_spread / quantization_step(eb)).astype(np.uint64)
            bits += self._block_size * int(_code_widths(qmax).sum())
        return (bits + 7) // 8 + CompressionResult._HEADER_BYTES


class SZXCompressor(LossyCompressor):
    """Block-wise delta-based error-bounded compressor (SZx)."""

    name = "szx"

    def __init__(self, block_size: int = BLOCK) -> None:
        if block_size < 2:
            raise ValueError("block_size must be >= 2")
        self.block_size = int(block_size)

    def sizer(self, data: np.ndarray) -> Sizer:
        arr = as_float_array(data)
        require_finite(arr)
        return _ClosedFormSizer(arr, self.block_size)

    # -- encoding ---------------------------------------------------------

    def _compress(self, data: np.ndarray, error_bound: float) -> tuple[bytes, dict]:
        bs = self.block_size
        flat = data.ravel()
        n = flat.size
        clock = StageClock("compressor.stage", codec=self.name)

        with clock("quantize"):
            blocks = _as_blocks(flat, bs)
            nblocks = blocks.shape[0]
            bmin = blocks.min(axis=1)
            bmax = blocks.max(axis=1)
            const = (bmax - bmin) <= 2.0 * error_bound
            means = 0.5 * (bmin + bmax)
            nc = ~const
            any_nc = bool(nc.any())
            if any_nc:
                step = quantization_step(error_bound)
                q = np.rint((blocks[nc] - bmin[nc, None]) / step).astype(np.uint64)
                w = _code_widths(q.max(axis=1))

        with clock("encode"):
            writer = BitWriter()
            writer.write_bit_array(const)
            # Constant blocks: the midpoint as raw float64 bits.
            writer.write_packed(pack_uint_array(means[const].view(np.uint64), 64))
            if any_nc:
                writer.write_packed(pack_uint_array(bmin[nc].view(np.uint64), 64))
                writer.write_packed(pack_uint_array(w.astype(np.uint64), _K_BITS))
                # Group payload by width for bulk packing.
                for width in np.unique(w[w > 0]):
                    writer.write_packed(pack_uint_array(q[w == width].ravel(), int(width)))
            payload = writer.getvalue()
        clock.emit()
        return payload, {"n": n, "nblocks": nblocks, "block_size": bs}

    # -- decoding ---------------------------------------------------------

    def _decompress(self, payload: bytes, metadata: dict) -> np.ndarray:
        n = int(metadata["n"])
        nblocks = int(metadata["nblocks"])
        bs = int(metadata.get("block_size", self.block_size))
        eb = float(metadata["error_bound"])
        reader = BitReader(payload)
        clock = StageClock("compressor.stage", codec=self.name)

        with clock("decode"):
            const = reader.read_bit_array(nblocks)
            out = np.empty((nblocks, bs), dtype=np.float64)
            n_const = int(const.sum())
            if n_const:
                means = reader.read_uint_array(n_const, 64).view(np.float64)
                out[const] = means[:, None]
            n_nc = nblocks - n_const
            if n_nc:
                bmin = reader.read_uint_array(n_nc, 64).view(np.float64)
                w = reader.read_uint_array(n_nc, _K_BITS).astype(np.int64)
                q = np.zeros((n_nc, bs), dtype=np.float64)
                for width in np.unique(w[w > 0]):
                    sel = w == width
                    vals = reader.read_uint_array(int(sel.sum()) * bs, int(width))
                    q[sel] = vals.reshape(-1, bs).astype(np.float64)
                out[~const] = bmin[:, None] + q * quantization_step(eb)
        clock.emit()
        return out.reshape(-1)[:n].reshape(tuple(metadata["shape"]))
