"""The bool-backed ``BitReader`` shipped before the byte-backed one, kept
verbatim as the test-side reference.

It expands the payload to one bool per bit and slices that array for
every read. ``repro.encoding.bitstream.BitReader`` must return the same
values, leave the same ``position`` / ``remaining`` and raise the same
exception type at the same read, for every field width in 1..64 and
every non-negative count; nothing here is imported by the package.
Two differences are on purpose. Widths above 64 and negative counts:
this reader returned wrong values there, the package's raises
``ValueError``. And ``read_unary`` with nothing left: this reader's
``np.argmax`` of an empty array raised ``ValueError`` before its own
``EOFError`` check was reached; the package's raises the ``EOFError``.
"""

from __future__ import annotations

import numpy as np

_BOOL = np.bool_


class BitReader:
    """Reads bits MSB-first from bytes produced by :class:`BitWriter`."""

    def __init__(self, data: bytes | np.ndarray) -> None:
        if isinstance(data, (bytes, bytearray, memoryview)):
            raw = np.frombuffer(bytes(data), dtype=np.uint8)
            self._bits = np.unpackbits(raw).astype(_BOOL)
        else:
            self._bits = np.asarray(data).astype(_BOOL).ravel()
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._bits.size - self._pos

    def _take(self, n: int) -> np.ndarray:
        if n > self.remaining:
            raise EOFError(f"bitstream exhausted: requested {n}, remaining {self.remaining}")
        out = self._bits[self._pos : self._pos + n]
        self._pos += n
        return out

    def read_bits(self, nbits: int) -> int:
        if nbits == 0:
            return 0
        bits = self._take(nbits).astype(np.uint64)
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        return int((bits << shifts).sum())

    def read_bit_array(self, count: int) -> np.ndarray:
        return self._take(count).copy()

    def read_uint_array(self, count: int, nbits: int) -> np.ndarray:
        if count == 0 or nbits == 0:
            return np.zeros(count, dtype=np.uint64)
        # Pack each row's bits to bytes and combine per-byte: ~8x less
        # memory traffic than broadcasting one uint64 per bit. Fields are
        # right-padded by packbits, so the shift floor drops the padding;
        # byte ranges are disjoint, so the sum is an exact bitwise OR.
        bits = self._take(count * nbits)
        nb = (nbits + 7) // 8
        packed = np.packbits(bits.reshape(count, nbits), axis=1)
        shifts = np.arange(nb - 1, -1, -1, dtype=np.uint64) * np.uint64(8)
        vals = (packed.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)
        return vals >> np.uint64(8 * nb - nbits)

    def read_unary(self) -> int:
        rest = self._bits[self._pos :]
        idx = np.argmax(rest)
        if rest.size == 0 or not rest[idx]:
            raise EOFError("unary code not terminated before end of stream")
        self._pos += int(idx) + 1
        return int(idx)

    def read_elias_gamma(self) -> int:
        nbits = self.read_unary() + 1
        if nbits == 1:
            return 1
        return (1 << (nbits - 1)) + self.read_bits(nbits - 1)
