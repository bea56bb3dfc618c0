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

from repro.compressors.base import LossyCompressor, quantization_step
from repro.encoding.bitstream import BitReader, BitWriter, pack_uint_array
from repro.obs import StageClock

BLOCK = 128
_K_BITS = 6  # width field per non-constant block (widths 0..63)


class SZXCompressor(LossyCompressor):
    """Block-wise delta-based error-bounded compressor (SZx)."""

    name = "szx"

    def __init__(self, block_size: int = BLOCK) -> None:
        if block_size < 2:
            raise ValueError("block_size must be >= 2")
        self.block_size = int(block_size)

    # -- encoding ---------------------------------------------------------

    def _compress(self, data: np.ndarray, error_bound: float) -> tuple[bytes, dict]:
        bs = self.block_size
        flat = data.ravel()
        n = flat.size
        nblocks = -(-n // bs)
        clock = StageClock("compressor.stage", codec=self.name)

        with clock("quantize"):
            pad = nblocks * bs - n
            if pad:  # edge padding stays inside the last block's value range
                flat = np.concatenate((flat, np.full(pad, flat[-1])))
            blocks = flat.reshape(nblocks, bs)
            bmin = blocks.min(axis=1)
            bmax = blocks.max(axis=1)
            const = (bmax - bmin) <= 2.0 * error_bound
            means = 0.5 * (bmin + bmax)
            nc = ~const
            any_nc = bool(nc.any())
            if any_nc:
                step = quantization_step(error_bound)
                q = np.rint((blocks[nc] - bmin[nc, None]) / step).astype(np.uint64)
                qmax = q.max(axis=1)
                w = np.zeros(qmax.size, dtype=np.int64)
                nz = qmax > 0
                # bit_length of the per-block max quantization code
                w[nz] = np.floor(np.log2(qmax[nz].astype(np.float64))).astype(np.int64) + 1
                # guard against log2 rounding at exact powers of two
                too_small = (np.uint64(1) << w.astype(np.uint64)) <= qmax
                w[too_small] += 1

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
