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


def window_values(packed: np.ndarray, nbits: int, width: int) -> np.ndarray:
    """``width``-bit MSB-first window value at every bit position.

    ``packed`` holds a stream of ``nbits`` bits MSB-first (bytes past
    the stream are ignored). Returns a uint16 array (a window is at most
    16 bits) of length ``nbits + 1``: entry ``p`` is the integer formed
    by bits ``p .. p+width-1``, with zeros past the end of the stream
    (the same zero padding a :class:`BitWriter` applies when packing to
    bytes). Adjacent bytes are fused into 24-bit words; the window at
    bit ``8k + phase`` is word ``k`` shifted by a constant, so the
    result is eight strided copies of the word array, one per phase —
    no per-position index arithmetic. The bulk extract primitive behind
    the Huffman decoder, which hands it the reader's bytes.
    """
    if not 0 < width <= 16:
        raise ValueError("window width must be in [1, 16]")
    nbytes = (nbits + 7) // 8
    # Bytes k, k+1, k+2 must exist for every k up to nbits // 8.
    buf = np.zeros(nbits // 8 + 3, dtype=np.uint32)
    buf[:nbytes] = packed[:nbytes]
    if nbits & 7:
        buf[nbytes - 1] &= np.uint32((0xFF << (8 - (nbits & 7))) & 0xFF)
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
    """Reads bits MSB-first from bytes produced by :class:`BitWriter`.

    The reader holds the payload packed, as it arrived: a ``bytes``
    object with :data:`_PAD` zero bytes appended (``_raw``, for the
    scalar reads), a ``uint8`` view of the same memory (``_buf``, for
    the bulk reads), the bit position and the bit count. A bool-array
    input (``BitReader(writer.bits())``) is packed once here. The
    padding lets every read gather whole words past the last data byte
    without a bounds branch; the bits it supplies are zero and a read
    never returns them, because each read checks ``remaining`` first.
    """

    def __init__(self, data: bytes | np.ndarray) -> None:
        if isinstance(data, (bytes, bytearray, memoryview)):
            raw = bytes(data)
            self._nbits = 8 * len(raw)
        else:
            arr = np.asarray(data).astype(_BOOL).ravel()
            raw = np.packbits(arr).tobytes()
            self._nbits = arr.size
        self._raw = raw + bytes(_PAD)
        self._buf = np.frombuffer(self._raw, dtype=np.uint8)
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._nbits - self._pos

    def _advance(self, n: int) -> int:
        """Claim the next ``n`` bits; returns where they start."""
        start = self._pos
        if n > self._nbits - start:
            raise EOFError(f"bitstream exhausted: requested {n}, remaining {self.remaining}")
        self._pos = start + n
        return start

    def read_bit(self) -> int:
        pos = self._advance(1)
        return (self._raw[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_bits(self, nbits: int) -> int:
        _check_width(nbits)
        if nbits == 0:
            return 0
        end = self._advance(nbits) + nbits
        last = (end + 7) >> 3
        word = int.from_bytes(self._raw[(end - nbits) >> 3 : last], "big")
        return (word >> (8 * last - end)) & ((1 << nbits) - 1)

    def read_bit_array(self, count: int) -> np.ndarray:
        # zfp and speck call this once per bit plane: checks inlined
        start = self._pos
        end = start + count
        if count < 0 or end > self._nbits:
            _check_count(count)
            self._advance(count)
        self._pos = end
        phase = start & 7
        covered = self._buf[start >> 3 : (end + 7) >> 3]
        return np.unpackbits(covered)[phase : phase + count].view(_BOOL)

    def read_uint_array(self, count: int, nbits: int) -> np.ndarray:
        """``count`` fields of ``nbits`` bits each, as uint64.

        Each field is shifted out of the big-endian word that starts at
        its first byte: a 32-bit word for widths up to 25 (a field at
        phase 7 then still ends inside it), built once for every byte
        the fields cover and picked with one ``take``; above 25, the
        8-byte window at each field's first byte, plus the ninth byte
        when the field can reach past the 64th bit (widths above 57).
        Fields of 8, 16, 32 or 64 bits starting on a byte boundary are
        already whole big-endian integers and are viewed, not gathered.
        """
        _check_count(count)
        _check_width(nbits)
        if count == 0 or nbits == 0:
            return np.zeros(count, dtype=np.uint64)
        start = self._advance(count * nbits)
        if not start & 7 and nbits in (8, 16, 32, 64):
            words = np.frombuffer(self._raw, f">u{nbits // 8}", count, start >> 3)
            return words.astype(np.uint64)
        bit = np.arange(start, start + count * nbits, nbits, dtype=np.int64)
        byte = bit >> 3
        phase = bit & 7
        if nbits <= 25:
            first = start >> 3
            n = int(byte[-1]) - first + 1
            b = self._buf[first : first + n + 3].astype(np.uint32)
            word = (b[:n] << 24) | (b[1 : n + 1] << 16) | (b[2 : n + 2] << 8) | b[3 : n + 3]
            word = word.take(byte - first) << phase.astype(np.uint32)
            return (word >> np.uint32(32 - nbits)).astype(np.uint64)
        shift = phase.astype(np.uint64)
        windows = np.lib.stride_tricks.sliding_window_view(self._buf, 8)
        word = windows[byte].view(">u8").ravel().astype(np.uint64) << shift
        if nbits > 57:
            word |= self._buf.take(byte + 8).astype(np.uint64) >> (np.uint64(8) - shift)
        return word >> np.uint64(64 - nbits)

    def read_unary(self) -> int:
        """Zero bits up to a terminating one bit; returns their count.

        The search starts at the current byte (bits before the position
        masked off) and walks forward a byte at a time, so a call costs
        the length of the code, not of the rest of the stream. A run of
        more than eight zero bytes (no Elias-gamma length of a 64-bit
        value has one) is finished with one vector scan.
        """
        pos, raw = self._pos, self._raw
        end = (self._nbits + 7) >> 3
        at = pos >> 3
        byte = raw[at] & (0xFF >> (pos & 7))
        stop = min(at + 9, end)
        while not byte and at + 1 < stop:
            at += 1
            byte = raw[at]
        if not byte and at + 1 < end:
            at += 1 + int((self._buf[at + 1 : end] != 0).argmax())
            byte = raw[at]
        if not byte:
            raise EOFError("unary code not terminated before end of stream")
        one = 8 * at + 8 - byte.bit_length()  # padding bits are zero: one < _nbits
        self._pos = one + 1
        return one - pos

    def read_elias_gamma(self) -> int:
        nbits = self.read_unary() + 1
        if nbits == 1:
            return 1
        return (1 << (nbits - 1)) + self.read_bits(nbits - 1)


#: Zero bytes after the payload: a 64-bit field at phase 7 spans nine
#: bytes, so the 8-byte window at any data byte, and the byte after it,
#: stay inside the buffer.
_PAD = 8


def _check_width(nbits: int) -> None:
    if not 0 <= nbits <= 64:
        raise ValueError(f"field width must be in [0, 64], got {nbits}")


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"read count must be non-negative, got {count}")
