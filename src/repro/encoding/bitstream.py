"""MSB-first bitstream writer/reader.

The embedded bit-plane coders (ZFP, SPERR) emit millions of individual bits;
a per-bit Python loop would dominate compression time. The writer therefore
buffers *numpy bool chunks* and only packs to bytes once, and both writer and
reader expose bulk array operations (``write_bit_array``,
``write_uint_array``, ``read_bit_array``) so hot paths stay vectorized.

A second chunk kind is the *packed* chunk, ``(uint8 array, bit count)`` —
already byte-packed bits, possibly ending mid-byte. :func:`pack_uint_array`
builds one (an ``np.unpackbits`` byte-view pack, several times faster than
the bit-broadcast of :meth:`BitWriter.write_uint_array`),
:meth:`BitWriter.write_varlen_uint_array` builds one from variable-width
values, and :meth:`BitWriter.write_packed` appends it;
:meth:`BitWriter.getvalue` shift-merges the mixed chunk list in one
vectorized pass per chunk.
"""

from __future__ import annotations

import numpy as np

_BOOL = np.bool_


class _Packed:
    """Byte-packed bit run: ``data`` holds ``nbits`` bits MSB-first, zero
    padding after the last bit (enforced by the constructor)."""

    __slots__ = ("data", "nbits")

    def __init__(self, data: np.ndarray, nbits: int) -> None:
        nbytes = (nbits + 7) // 8
        data = data[:nbytes]
        tail = nbits & 7
        if tail and nbytes:
            data = data.copy()
            data[-1] &= np.uint8((0xFF << (8 - tail)) & 0xFF)
        self.data = data
        self.nbits = nbits


def _container_dtype(nbits: int) -> tuple[str, int]:
    """Smallest big-endian uint dtype holding an ``nbits``-bit value."""
    if nbits <= 8:
        return ">u1", 8
    if nbits <= 16:
        return ">u2", 16
    if nbits <= 32:
        return ">u4", 32
    return ">u8", 64


def pack_uint_array(values: np.ndarray, nbits: int) -> _Packed:
    """Pack each value to a fixed ``nbits``-bit MSB-first field.

    The bit-for-bit equivalent of :meth:`BitWriter.write_uint_array` for
    bulk sections: values are viewed as big-endian bytes,
    ``np.unpackbits`` expands them, and the leading container padding is
    sliced off — byte traffic proportional to the container width instead
    of one bool (1 byte) per output *bit*.
    """
    values = np.asarray(values, dtype=np.uint64).ravel()
    if nbits <= 0 or values.size == 0:
        return _Packed(np.zeros(0, dtype=np.uint8), 0)
    if nbits > 64:
        raise ValueError("nbits must be <= 64")
    dtype, cbits = _container_dtype(nbits)
    bits = np.unpackbits(
        values.astype(dtype).view(np.uint8).reshape(values.size, cbits // 8), axis=1
    )
    field = bits[:, cbits - nbits :].ravel()
    return _Packed(np.packbits(field), values.size * nbits)


def window_values(bits: np.ndarray, width: int) -> np.ndarray:
    """``width``-bit MSB-first window value at every bit position.

    Returns a uint16 array (a window is at most 16 bits) of length
    ``bits.size + 1``: entry ``p`` is the integer formed by bits
    ``p .. p+width-1``, with zeros past the end of the stream (the same
    zero padding a :class:`BitWriter` applies when packing to bytes).
    The bits are packed to bytes once and adjacent
    bytes fused into 24-bit words; the window at bit ``8k + phase`` is
    word ``k`` shifted by a constant, so the result is eight strided
    copies of the word array, one per phase — no per-position index
    arithmetic. The bulk extract primitive behind the Huffman decoder.
    """
    if not 0 < width <= 16:
        raise ValueError("window width must be in [1, 16]")
    arr = np.asarray(bits).astype(_BOOL, copy=False).ravel()
    nbits = arr.size
    packed = np.packbits(arr)
    # Bytes k, k+1, k+2 must exist for every k up to nbits // 8.
    buf = np.zeros(nbits // 8 + 3, dtype=np.uint32)
    buf[: packed.size] = packed
    fused = (buf[:-2] << np.uint32(16)) | (buf[1:-1] << np.uint32(8)) | buf[2:]
    out = np.empty((fused.size, 8), dtype=np.uint16)
    mask = np.uint32((1 << width) - 1)
    for phase in range(8):
        out[:, phase] = (fused >> np.uint32(24 - width - phase)) & mask
    return out.ravel()[: nbits + 1]


class BitWriter:
    """Accumulates bits MSB-first and packs them into bytes on demand.

    Chunks are either numpy bool arrays (one element per bit, from the
    ``write_*`` methods) or :class:`_Packed` runs (already byte-packed,
    from :meth:`write_packed`); :meth:`getvalue` shift-merges the mixed
    list into one stream.
    """

    def __init__(self) -> None:
        self._chunks: list = []
        self._nbits = 0

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    @property
    def byte_length(self) -> int:
        """Size in bytes of the packed stream (final byte zero-padded)."""
        return (self._nbits + 7) // 8

    def write_bit(self, bit: int) -> None:
        self._chunks.append(np.array([bool(bit)], dtype=_BOOL))
        self._nbits += 1

    def write_bits(self, value: int, nbits: int) -> None:
        """Write the ``nbits`` least-significant bits of ``value``, MSB first."""
        if nbits < 0:
            raise ValueError("nbits must be >= 0")
        if nbits == 0:
            return
        value = int(value)
        if value < 0:
            raise ValueError("write_bits takes non-negative values; encode sign separately")
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        bits = (np.uint64(value) >> shifts) & np.uint64(1)
        self._chunks.append(bits.astype(_BOOL))
        self._nbits += nbits

    def write_bit_array(self, bits: np.ndarray) -> None:
        """Append a 1-D array interpreted as bits (nonzero = 1)."""
        arr = np.asarray(bits).astype(_BOOL, copy=False).ravel()
        if arr.size:
            self._chunks.append(arr)
            self._nbits += arr.size

    def write_uint_array(self, values: np.ndarray, nbits: int) -> None:
        """Write each value with a fixed width of ``nbits`` bits, MSB first."""
        values = np.asarray(values, dtype=np.uint64).ravel()
        if nbits == 0 or values.size == 0:
            return
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        bits = (values[:, None] >> shifts[None, :]) & np.uint64(1)
        self._chunks.append(bits.astype(_BOOL).ravel())
        self._nbits += values.size * nbits

    def write_varlen_uint_array(self, values: np.ndarray, lengths: np.ndarray) -> None:
        """Write ``values[i]`` with an individual width of ``lengths[i]`` bits.

        The bulk analogue of calling ``write_bits(values[i], lengths[i])`` in
        a loop, packed a 64-bit word at a time rather than a bool per bit:
        a value lands in the word holding its first bit, shifted into
        place, and the bits that do not fit spill into the next word (a
        value is at most 64 bits, so it never reaches a third). Values
        arrive in stream order, so all that share a word are adjacent and
        one ``bitwise_or.reduceat`` merges them; each word boundary is
        straddled by at most one value, so the spills are a plain indexed
        OR. Zero-length entries contribute nothing.
        """
        values = np.asarray(values, dtype=np.uint64).ravel()
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        if values.size != lengths.size:
            raise ValueError("values and lengths must have equal size")
        if (lengths < 0).any():
            raise ValueError("lengths must be non-negative")
        if lengths.size and lengths.max() > 64:
            raise ValueError("lengths must be <= 64")
        if not lengths.all():
            keep = lengths > 0
            values, lengths = values[keep], lengths[keep]
        if lengths.size == 0:
            return
        ends = np.cumsum(lengths)
        starts = ends - lengths
        total = int(ends[-1])
        values = values & (np.uint64(2**64 - 1) >> (64 - lengths).astype(np.uint64))
        word = starts >> 6
        room = 64 - (starts & 63) - lengths  # bits left in the word; < 0: that many spill
        spill = np.maximum(-room, 0).astype(np.uint64)
        head = (values >> spill) << np.maximum(room, 0).astype(np.uint64)
        words = np.zeros((total + 63) >> 6, dtype=np.uint64)
        first = np.flatnonzero(np.diff(word, prepend=-1))
        words[word[first]] = np.bitwise_or.reduceat(head, first)
        over = np.flatnonzero(room < 0)
        words[word[over] + 1] |= values[over] << (np.uint64(64) - spill[over])
        self.write_packed(_Packed(words.astype(">u8").view(np.uint8), total))

    def write_unary(self, value: int) -> None:
        """``value`` zero bits followed by a terminating one bit."""
        value = int(value)
        if value < 0:
            raise ValueError("unary codes are defined for non-negative integers")
        bits = np.zeros(value + 1, dtype=_BOOL)
        bits[-1] = True
        self._chunks.append(bits)
        self._nbits += value + 1

    def write_elias_gamma(self, value: int) -> None:
        """Elias-gamma code for ``value >= 1`` (used for unbounded lengths)."""
        value = int(value)
        if value < 1:
            raise ValueError("Elias gamma is defined for integers >= 1")
        nbits = value.bit_length()
        self.write_unary(nbits - 1)
        if nbits > 1:
            self.write_bits(value - (1 << (nbits - 1)), nbits - 1)

    def write_packed(self, packed: _Packed) -> None:
        """Append a :class:`_Packed` run (see :func:`pack_uint_array`)."""
        if packed.nbits:
            self._chunks.append(packed)
            self._nbits += packed.nbits

    def _entries(self):
        """Yield the chunk list as ``(uint8 array, nbits)`` packed runs,
        packing each run of consecutive bool chunks in one pass."""
        run: list[np.ndarray] = []
        for chunk in self._chunks:
            if isinstance(chunk, _Packed):
                if run:
                    arr = run[0] if len(run) == 1 else np.concatenate(run)
                    run = []
                    yield np.packbits(arr), arr.size
                yield chunk.data, chunk.nbits
            else:
                run.append(chunk)
        if run:
            arr = run[0] if len(run) == 1 else np.concatenate(run)
            yield np.packbits(arr), arr.size

    def _merged(self) -> np.ndarray:
        """Shift-merge all chunks into one zero-padded uint8 array.

        Each packed run lands with two vectorized ORs: its bytes shifted
        down by the current bit offset, and the spilled low bits into the
        following byte — so packed appends cost O(bytes), not O(bits).
        """
        nbytes = (self._nbits + 7) // 8
        out = np.zeros(nbytes + 1, dtype=np.uint8)  # +1: shift spill scratch
        pos = 0
        for data, nbits in self._entries():
            if not nbits:
                continue
            nb = data.size
            k = pos & 7
            byte0 = pos >> 3
            if k == 0:
                out[byte0 : byte0 + nb] |= data
            else:
                out[byte0 : byte0 + nb] |= data >> k
                spill = ((data.astype(np.uint16) << (8 - k)) & 0xFF).astype(np.uint8)
                out[byte0 + 1 : byte0 + 1 + nb] |= spill
            pos += nbits
        return out[:nbytes]

    def bits(self) -> np.ndarray:
        """Return the raw bit array (bool), without byte padding."""
        if not self._chunks:
            return np.zeros(0, dtype=_BOOL)
        if len(self._chunks) > 1 or isinstance(self._chunks[0], _Packed):
            parts = [
                np.unpackbits(c.data, count=c.nbits).astype(_BOOL)
                if isinstance(c, _Packed)
                else c
                for c in self._chunks
            ]
            self._chunks = [parts[0] if len(parts) == 1 else np.concatenate(parts)]
        return self._chunks[0]

    def getvalue(self) -> bytes:
        """Pack the accumulated bits to bytes (MSB-first, zero padded)."""
        return self._merged().tobytes()


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

    def read_bit(self) -> int:
        return int(self._take(1)[0])

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
