"""ZFP: transform compressor on 4^d blocks, fixed accuracy or fixed rate.

Architecture per Lindstrom (TVCG'14): the array is padded to multiples of 4
and cut into 4^d blocks; each block is normalized by a common per-block
exponent, converted to fixed point, decorrelated with ZFP's transform, and
its coefficients (in total-degree order) are emitted by an embedded
bit-plane coder from the most significant plane down. Where it stops is
the mode, as in zfp itself (``minexp`` / ``maxbits``): fixed accuracy
stops each block at the plane implied by the error bound, which produces
ZFP's signature *step-wise* compression function (many error bounds map
to the same number of retained planes); fixed rate stops when the block's
budget of ``rate * 4^d`` bits is spent.

The embedded coder here is a group-testing scheme: per plane, one "any new
significance" bit per block, a significance bitmap over still-insignificant
coefficients when set, sign bits for newly significant coefficients, and one
refinement bit per already-significant coefficient. Encoder and decoder both
process *all blocks per plane at once* with boolean matrices, so cost scales
with emitted bits, not with Python-level per-block loops.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compressors.base import CompressionResult, LossyCompressor
from repro.encoding.bitstream import BitReader, BitWriter
from repro.transforms.zfp_transform import (
    _INV,
    coefficient_order,
    zfp_block_forward,
    zfp_block_inverse,
)
from repro.utils.validation import as_float_array, require_finite

_Q = 44  # fixed-point fraction bits
_EMAX_BITS = 13
_EMAX_BIAS = 2048
_ZERO_SENTINEL = 0  # emax field for all-zero blocks

# Inverse-transform amplification of coefficient truncation error, per dim.
_GAIN_1D = float(np.abs(_INV).sum(axis=1).max())


def _guard_bits(ndim: int) -> int:
    return int(math.ceil(ndim * math.log2(_GAIN_1D))) + 2


def _blockize(data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pad to multiples of 4 (edge mode) and return (nblocks, 4^d) blocks."""
    pad = [(0, (-s) % 4) for s in data.shape]
    padded = np.pad(data, pad, mode="edge")
    d = data.ndim
    grid = tuple(s // 4 for s in padded.shape)
    shape6 = []
    for g in grid:
        shape6.extend((g, 4))
    arr = padded.reshape(shape6)
    perm = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    arr = arr.transpose(perm).reshape(int(np.prod(grid)), 4**d)
    return arr.reshape((-1,) + (4,) * d), padded.shape


def _unblockize(
    blocks: np.ndarray, padded_shape: tuple[int, ...], shape: tuple[int, ...]
) -> np.ndarray:
    d = len(shape)
    grid = tuple(s // 4 for s in padded_shape)
    arr = blocks.reshape(grid + (4,) * d)
    perm = []
    for i in range(d):
        perm.extend((i, d + i))
    arr = arr.transpose(perm).reshape(padded_shape)
    return arr[tuple(slice(0, s) for s in shape)]


def _stop_rule(
    nz: np.ndarray, emax: np.ndarray, d: int, error_bound: float, rate: float | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Where each block's embedded stream stops: ``(pmin, budget)``.

    ``pmin`` is the lowest plane coded; ``budget`` the bits left to spend,
    or ``None`` for no budget. Fixed accuracy (``rate is None``) stops at
    the plane the error bound implies; fixed rate codes down to plane 0
    while ``rate * 4^d`` bits last. Zero blocks carry nothing either way.
    """
    if rate is None:
        mant, exp = math.frexp(error_bound)
        fl = exp - 1  # floor(log2(eb)) for eb in [2^(e-1), 2^e)
        pmin = np.clip(_Q - emax + fl - _guard_bits(d), 0, 62).astype(np.int64)
        pmin[~nz] = 63  # zero blocks never participate
        return pmin, None
    bits = rate * 4**d
    if not math.isfinite(bits) or round(bits) > np.iinfo(np.int64).max:
        raise ValueError(f"zfp: rate {rate!r} bits/value gives no int64 block budget")
    budget = np.where(nz, round(bits), 0).astype(np.int64)
    return np.where(nz, 0, 63).astype(np.int64), budget


class ZFPCompressor(LossyCompressor):
    """ZFP-style transform compressor.

    Default mode is *fixed accuracy* (error bounded). ZFP's GPU
    implementation instead offers *fixed rate* — a hard per-block bit
    budget, the paper's Section 2.2 example of naive ratio control — which
    :meth:`compress_fixed_rate` provides: the same embedded coder, but each
    block's stream truncates at ``bits_per_value * 4^d`` bits, so the
    output size is exact and the pointwise error is whatever the budget
    allows (no guarantee).
    """

    name = "zfp"

    def _compress(
        self, data: np.ndarray, error_bound: float, rate: float | None = None
    ) -> tuple[bytes, dict]:
        d = data.ndim
        if d < 1 or d > 3:
            raise ValueError("ZFP supports 1-3 dimensional arrays")
        blocks, padded_shape = _blockize(data)
        nb = blocks.shape[0]
        C = 4**d
        flatb = blocks.reshape(nb, C)

        maxabs = np.abs(flatb).max(axis=1)
        emax = np.zeros(nb, dtype=np.int64)
        # Blocks of subnormal-tiny values are treated as zero blocks: their
        # normalization factor 2^-emax would overflow, and any practically
        # representable error bound already covers them.
        nz = maxabs > np.ldexp(1.0, -1000)
        if nz.any():
            _, exps = np.frexp(maxabs[nz])
            emax[nz] = exps
        # Normalize by the per-block exponent, transform, convert to fixed point.
        norm = np.ldexp(1.0, -emax).reshape((nb,) + (1,) * d)
        coefs = zfp_block_forward(blocks * norm)
        ints = np.rint(coefs.reshape(nb, C) * np.ldexp(1.0, _Q)).astype(np.int64)
        order = coefficient_order(d)
        ints = ints[:, order]
        absint = np.abs(ints)
        neg = ints < 0

        pmin, budget = _stop_rule(nz, emax, d, error_bound, rate)
        # Highest set bit over all coefficients = first plane worth coding.
        global_max = int(absint.max()) if nb else 0
        p_top = global_max.bit_length() - 1  # -1 when all coefficients are 0

        writer = BitWriter()
        stored_emax = np.where(nz, emax + _EMAX_BIAS, _ZERO_SENTINEL)
        writer.write_uint_array(stored_emax.astype(np.uint64), _EMAX_BITS)

        sig = np.zeros((nb, C), dtype=bool)
        for p in range(p_top, -1, -1):
            active = pmin <= p
            if budget is not None:
                active &= budget >= 1
            if not active.any():
                break
            bits_p = ((absint >> p) & 1).astype(bool)
            newsig = bits_p & ~sig & active[:, None]
            if budget is None:
                anyb = newsig.any(axis=1)
                ref_ok = active
            else:
                # Claim significance only when the any-bit, bitmap and signs
                # fit; refine only where the rest of the budget covers it.
                n_sig = sig.sum(axis=1)
                n_new = newsig.sum(axis=1)
                anyb = (n_new > 0) & (budget >= 1 + C - n_sig + n_new)
                budget[active] -= 1
                budget[anyb] -= (C - n_sig + n_new)[anyb]
                ref_ok = active & (budget >= n_sig)
                budget[ref_ok] -= n_sig[ref_ok]
                newsig &= anyb[:, None]
            writer.write_bit_array(anyb[active])
            if anyb.any():
                insig = ~sig[anyb]
                writer.write_bit_array(newsig[anyb][insig])
                writer.write_bit_array(neg[anyb][newsig[anyb]])
            ref = sig & ref_ok[:, None]
            if ref.any():
                writer.write_bit_array(bits_p[ref])
            sig |= newsig

        metadata = {"padded_shape": padded_shape, "p_top": p_top, "ndim": d}
        if rate is not None:
            metadata.update(mode="fixed_rate", rate=rate)
        return writer.getvalue(), metadata

    def _decompress(self, payload: bytes, metadata: dict) -> np.ndarray:
        mode = metadata.get("mode")
        if mode not in (None, "fixed_rate"):
            raise ValueError(
                f"zfp stream names mode {mode!r}; only fixed accuracy and "
                "'fixed_rate' decode"
            )
        rate = float(metadata["rate"]) if mode == "fixed_rate" else None
        shape = tuple(metadata["shape"])
        padded_shape = tuple(metadata["padded_shape"])
        eb = float(metadata["error_bound"])
        p_top = int(metadata["p_top"])
        d = int(metadata["ndim"])
        C = 4**d
        nb = int(np.prod([s // 4 for s in padded_shape])) if padded_shape else 1

        reader = BitReader(payload)
        stored_emax = reader.read_uint_array(nb, _EMAX_BITS).astype(np.int64)
        nz = stored_emax != _ZERO_SENTINEL
        emax = np.where(nz, stored_emax - _EMAX_BIAS, 0)
        pmin, budget = _stop_rule(nz, emax, d, eb, rate)

        sig = np.zeros((nb, C), dtype=bool)
        mag = np.zeros((nb, C), dtype=np.int64)
        neg = np.zeros((nb, C), dtype=bool)
        for p in range(p_top, -1, -1):
            active = pmin <= p
            if budget is not None:
                active &= budget >= 1
            if not active.any():
                break
            anyb = np.zeros(nb, dtype=bool)
            anyb[active] = reader.read_bit_array(int(active.sum()))
            newsig = np.zeros((nb, C), dtype=bool)
            if anyb.any():
                insig = ~sig[anyb]
                bitmap = reader.read_bit_array(int(insig.sum()))
                tmp = np.zeros((int(anyb.sum()), C), dtype=bool)
                tmp[insig] = bitmap
                newsig[anyb] = tmp
                nnew = int(tmp.sum())
                signs = reader.read_bit_array(nnew)
                neg[newsig] = signs
                mag[newsig] += np.int64(1) << p
            ref_ok = active
            if budget is not None:
                # The encoder's spending, replayed from what was read.
                n_sig = sig.sum(axis=1)
                budget[active] -= 1
                budget[anyb] -= (C - n_sig + newsig.sum(axis=1))[anyb]
                ref_ok = active & (budget >= n_sig)
                budget[ref_ok] -= n_sig[ref_ok]
            ref = sig & ref_ok[:, None]
            nref = int(ref.sum())
            if nref:
                refbits = reader.read_bit_array(nref)
                add = np.zeros(nref, dtype=np.int64)
                add[refbits] = np.int64(1) << p
                mag[ref] += add
            sig |= newsig

        ints = np.where(neg, -mag, mag)
        order = coefficient_order(d)
        inv_order = np.argsort(order)
        ints = ints[:, inv_order]
        coefs = ints.astype(np.float64) * np.ldexp(1.0, -_Q)
        blocks = zfp_block_inverse(coefs.reshape((nb,) + (4,) * d))
        blocks = blocks * np.ldexp(1.0, emax).reshape((nb,) + (1,) * d)
        return _unblockize(blocks, padded_shape, shape)

    # -- fixed-rate mode (paper Section 2.2's naive ratio control) ---------

    def compress_fixed_rate(self, data: np.ndarray, bits_per_value: float) -> CompressionResult:
        """Compress with a hard per-block bit budget (no error bound).

        ``bits_per_value`` sets each 4^d block's budget to
        ``bits_per_value * 4^d`` bits; the embedded stream truncates there.
        Compressed size is thus known in advance — the trade-off is that
        reconstruction error is uncontrolled (the quality argument of the
        paper's Section 2.2).
        """
        rate = float(bits_per_value)
        if not rate > 0 or not math.isfinite(rate):
            raise ValueError(f"bits_per_value must be finite and > 0, got {bits_per_value!r}")
        arr = as_float_array(data)
        require_finite(arr)
        # No bound in this mode: the stream records an error bound of 0.
        return self._encoded(arr, 0.0, lambda x: self._compress(x, 0.0, rate))
