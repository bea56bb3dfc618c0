"""Zero run-length coding for integer symbol streams.

Quantization-code streams from smooth scientific data are dominated by the
"exactly predicted" symbol; collapsing its runs before entropy coding is the
same trick SZ3's encoder plays. Fully vectorized via run-boundary detection.

Also hosts the self-contained byte-stream form the kernel table
(:mod:`repro.bench.codec_bench`) times:
:func:`rle_bytes_encode` serializes the ``(values, runs)`` pair as zigzag +
LEB128 varints, with the varint arrays encoded and decoded in bulk numpy
passes (:func:`varint_encode_array` / :func:`varint_decode_array`) instead
of a Python loop per integer.
"""

from __future__ import annotations

import numpy as np

# LEB128 over uint64 never needs more than 10 bytes; longer groups mean a
# corrupt or adversarial stream.
_MAX_VARINT_BYTES = 10


def zero_rle_encode(symbols: np.ndarray, zero_symbol: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Split a stream into (non-zero symbols, preceding zero-run lengths).

    Returns ``(values, run_lengths)`` where ``run_lengths[i]`` is the number
    of ``zero_symbol`` entries immediately before ``values[i]``; a final
    sentinel pair ``(zero_symbol, trailing_run)`` is appended when the stream
    ends in zeros, so the encoding is always invertible given the pair.
    """
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    nz = np.flatnonzero(symbols != zero_symbol)
    values = symbols[nz]
    boundaries = np.concatenate(([-1], nz))
    runs = np.diff(boundaries) - 1
    trailing = symbols.size - (int(nz[-1]) + 1 if nz.size else 0)
    values = np.concatenate((values, [zero_symbol]))
    runs = np.concatenate((runs, [trailing]))
    return values, runs


def zero_rle_decode(
    values: np.ndarray, runs: np.ndarray, zero_symbol: int = 0
) -> np.ndarray:
    """Invert :func:`zero_rle_encode`."""
    values = np.asarray(values, dtype=np.int64).ravel()
    runs = np.asarray(runs, dtype=np.int64).ravel()
    if values.size != runs.size:
        raise ValueError("values and runs must have equal length")
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    if (runs < 0).any():
        raise ValueError("run lengths must be non-negative")
    total = int(runs.sum()) + values.size - 1  # sentinel carries no symbol
    out = np.full(total, zero_symbol, dtype=np.int64)
    positions = np.cumsum(runs[:-1] + 1) - 1
    out[positions] = values[:-1]
    return out


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to uint64 with small magnitudes staying small."""
    v = np.asarray(values, dtype=np.int64).ravel()
    return (v.astype(np.uint64) << np.uint64(1)) ^ (v >> np.int64(63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Invert :func:`zigzag_encode`."""
    v = np.asarray(values, dtype=np.uint64).ravel()
    return (v >> np.uint64(1)).astype(np.int64) ^ -(v & np.uint64(1)).astype(np.int64)


def varint_encode_array(values: np.ndarray) -> np.ndarray:
    """LEB128-encode a uint64 array in one numpy pass.

    Bit-identical to encoding each value with a scalar varint writer: byte
    counts come from threshold comparisons, ``np.repeat`` lays every
    output byte against its source value, and a shift+mask extracts the
    7-bit groups with the continuation bit set on all but each value's
    last byte. Returns a uint8 array.
    """
    values = np.asarray(values, dtype=np.uint64).ravel()
    if values.size == 0:
        return np.zeros(0, dtype=np.uint8)
    nbytes = np.ones(values.size, dtype=np.int64)
    for k in range(1, _MAX_VARINT_BYTES):
        nbytes += values >= np.uint64(1) << np.uint64(7 * k)
    total = int(nbytes.sum())
    ends = np.cumsum(nbytes)
    # Byte j of value i holds bits 7j .. 7j+6; j counts up from each start.
    offset = np.arange(total) + np.repeat(nbytes - ends, nbytes)
    out = (np.repeat(values, nbytes) >> (np.uint64(7) * offset.astype(np.uint64))).astype(
        np.uint8
    ) & np.uint8(0x7F)
    cont = offset < np.repeat(nbytes - 1, nbytes)
    out[cont] |= np.uint8(0x80)
    return out


def varint_decode_array(data: np.ndarray, count: int, pos: int = 0) -> tuple[np.ndarray, int]:
    """Decode ``count`` LEB128 varints from ``data`` starting at ``pos``.

    The whole batch parses vectorized: terminator bytes (continuation bit
    clear) delimit the groups, and each value is the reduceat-sum of its
    shifted 7-bit groups. Returns ``(values, next_pos)``; raises
    ``ValueError`` on truncation or over-long groups.
    """
    data = np.asarray(data, dtype=np.uint8).ravel()
    if count == 0:
        return np.zeros(0, dtype=np.uint64), pos
    tail = data[pos:]
    terminators = np.flatnonzero(tail < 0x80)
    if terminators.size < count:
        raise ValueError("corrupt varint stream: truncated")
    ends = terminators[:count]  # inclusive, relative to pos
    starts = np.concatenate(([0], ends[:-1] + 1))
    if ((ends - starts) >= _MAX_VARINT_BYTES).any():
        raise ValueError("corrupt varint stream: over-long varint")
    used = int(ends[-1]) + 1
    groups = np.repeat(np.arange(count), ends - starts + 1)
    offset = np.arange(used) - starts[groups]
    contrib = (tail[:used].astype(np.uint64) & np.uint64(0x7F)) << (
        np.uint64(7) * offset.astype(np.uint64)
    )
    values = np.add.reduceat(contrib, starts)
    return values, pos + used


def rle_bytes_encode(symbols: np.ndarray, zero_symbol: int = 0) -> bytes:
    """Self-contained byte serialization of a zero-RLE'd symbol stream.

    Layout: varint pair count, then the zigzagged values as varints, then
    the run lengths as varints — identical bytes to the scalar reference
    (:func:`repro.encoding.reference.rle_bytes_encode_reference`), built
    from three bulk varint passes.
    """
    values, runs = zero_rle_encode(symbols, zero_symbol=zero_symbol)
    head = varint_encode_array(np.array([values.size], dtype=np.uint64))
    body_v = varint_encode_array(zigzag_encode(values))
    body_r = varint_encode_array(runs.astype(np.uint64))
    return np.concatenate((head, body_v, body_r)).tobytes()


def rle_bytes_decode(blob: bytes, zero_symbol: int = 0) -> np.ndarray:
    """Invert :func:`rle_bytes_encode`."""
    data = np.frombuffer(bytes(blob), dtype=np.uint8)
    head, pos = varint_decode_array(data, 1)
    n = int(head[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    values, pos = varint_decode_array(data, n, pos)
    runs, _ = varint_decode_array(data, n, pos)
    if (runs >> np.uint64(63)).any():
        raise ValueError("corrupt RLE stream: run length overflows")
    return zero_rle_decode(zigzag_decode(values), runs.astype(np.int64), zero_symbol=zero_symbol)
