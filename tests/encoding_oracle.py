"""The scalar encoding kernels shipped before the vectorized ones, kept
verbatim as the test-side reference.

Each function here is a copy of the implementation that
:mod:`repro.encoding.bitstream`, :mod:`repro.encoding.lz77`,
:mod:`repro.encoding.huffman` and :mod:`repro.encoding.range_coder`
replaced. The vectorized encoders promise *identical output streams*:
the property tests (``tests/test_property_encoding.py``,
``tests/test_bitstream.py``) diff every stream, decoded symbol and
reader position against these oracles and fail on a single differing
byte. Nothing in the package imports this module.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.lz77 import _match_length, _write_varint

_MIN_MATCH = 4
_WINDOW = 1 << 16


# -- bit writer ---------------------------------------------------------------
#
# The writer's per-call bodies before it kept one fixed-width path: each
# lays its bits down as one bool chunk, as the old methods appended them.


def write_bits_reference(writer: BitWriter, value: int, nbits: int) -> None:
    """Old ``BitWriter.write_bits``: the ``nbits`` low bits of ``value``."""
    if nbits < 0:
        raise ValueError("nbits must be >= 0")
    if nbits == 0:
        return
    value = int(value)
    if value < 0:
        raise ValueError("write_bits takes non-negative values; encode sign separately")
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
    writer.write_bit_array((np.uint64(value) >> shifts) & np.uint64(1))


def write_uint_array_reference(writer: BitWriter, values: np.ndarray, nbits: int) -> None:
    """Old ``BitWriter.write_uint_array``: one bool per output bit."""
    values = np.asarray(values, dtype=np.uint64).ravel()
    if nbits == 0 or values.size == 0:
        return
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
    writer.write_bit_array(((values[:, None] >> shifts[None, :]) & np.uint64(1)).ravel())


def write_unary_reference(writer: BitWriter, value: int) -> None:
    """Old ``BitWriter.write_unary``: ``value`` zeros, then a one."""
    value = int(value)
    if value < 0:
        raise ValueError("unary codes are defined for non-negative integers")
    bits = np.zeros(value + 1, dtype=bool)
    bits[-1] = True
    writer.write_bit_array(bits)


def write_elias_gamma_reference(writer: BitWriter, value: int) -> None:
    """Old ``BitWriter.write_elias_gamma``: unary length, then the low bits."""
    value = int(value)
    if value < 1:
        raise ValueError("Elias gamma is defined for integers >= 1")
    nbits = value.bit_length()
    write_unary_reference(writer, nbits - 1)
    if nbits > 1:
        write_bits_reference(writer, value - (1 << (nbits - 1)), nbits - 1)


# -- LZ77 --------------------------------------------------------------------


def lz77_compress_reference(data: bytes) -> bytes:
    """Original greedy single-entry hash-table LZ77 compressor."""
    raw = np.frombuffer(bytes(data), dtype=np.uint8)
    n = raw.size
    out = bytearray()
    _write_varint(out, n)
    if n == 0:
        return bytes(out)

    if n >= _MIN_MATCH:
        keys = (
            raw[: n - 3].astype(np.uint32)
            | (raw[1 : n - 2].astype(np.uint32) << 8)
            | (raw[2 : n - 1].astype(np.uint32) << 16)
            | (raw[3:n].astype(np.uint32) << 24)
        )
    else:
        keys = np.zeros(0, dtype=np.uint32)

    table: dict[int, int] = {}
    pos = 0
    literal_start = 0
    data_bytes = bytes(data)
    while pos < n:
        match_len = 0
        match_dist = 0
        if pos + _MIN_MATCH <= n:
            key = int(keys[pos])
            cand = table.get(key)
            table[key] = pos
            if cand is not None and pos - cand <= _WINDOW:
                length = _match_length(raw, cand, pos, n - pos)
                if length >= _MIN_MATCH:
                    match_len = length
                    match_dist = pos - cand
        if match_len:
            _write_varint(out, pos - literal_start)
            _write_varint(out, match_len)
            _write_varint(out, match_dist)
            out.extend(data_bytes[literal_start:pos])
            end = min(pos + match_len, n - _MIN_MATCH + 1)
            for p in range(pos + 1, end, 8):
                table[int(keys[p])] = p
            pos += match_len
            literal_start = pos
        else:
            pos += 1
    if literal_start < n or n == 0:
        _write_varint(out, n - literal_start)
        _write_varint(out, 0)
        _write_varint(out, 0)
        out.extend(data_bytes[literal_start:])
    return bytes(out)


# -- Huffman -----------------------------------------------------------------

_TABLE_BITS = 16
_MAX_CODE_LEN = 48


def huffman_code_lengths_reference(frequencies: np.ndarray) -> np.ndarray:
    """Original heap-based Huffman tree construction."""
    freq = np.asarray(frequencies, dtype=np.int64)
    if freq.ndim != 1:
        raise ValueError("frequencies must be 1-D")
    if (freq < 0).any():
        raise ValueError("frequencies must be non-negative")
    present = np.flatnonzero(freq > 0)
    lengths = np.zeros(freq.size, dtype=np.int64)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths

    # Standard heap-based Huffman tree construction over the present symbols.
    # Entries are (freq, tiebreak, node_id); parents get fresh node ids.
    heap = [(int(freq[s]), int(i), int(i)) for i, s in enumerate(present)]
    heapq.heapify(heap)
    parent = np.full(2 * present.size - 1, -1, dtype=np.int64)
    next_id = present.size
    while len(heap) > 1:
        f1, _, n1 = heapq.heappop(heap)
        f2, _, n2 = heapq.heappop(heap)
        parent[n1] = next_id
        parent[n2] = next_id
        heapq.heappush(heap, (f1 + f2, next_id, next_id))
        next_id += 1

    # Depth of each leaf = code length.
    depth = np.zeros(next_id, dtype=np.int64)
    for node in range(next_id - 2, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths[present] = depth[: present.size]
    if lengths.max() > _MAX_CODE_LEN:  # pragma: no cover - needs astronomic skew
        raise OverflowError("Huffman code length exceeds supported maximum")
    return lengths


def huffman_encode_reference(codec, symbols: np.ndarray, writer: BitWriter) -> None:
    """Original bit-matrix Huffman encoder (mask-selected rows)."""
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    if symbols.size == 0:
        return
    if symbols.min() < 0 or symbols.max() >= codec.lengths.size:
        raise ValueError("symbol outside codebook alphabet")
    lens = codec.lengths[symbols]
    if (lens == 0).any():
        bad = symbols[lens == 0][0]
        raise ValueError(f"symbol {bad} not in codebook")
    vals = codec.codes[symbols]
    max_len = int(lens.max())
    shifts = np.arange(max_len - 1, -1, -1, dtype=np.uint64)
    aligned = vals << (max_len - lens).astype(np.uint64)
    bits = ((aligned[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)
    mask = np.arange(max_len)[None, :] < lens[:, None]
    writer.write_bit_array(bits[mask])


def _slow_entries(codec) -> dict[int, dict[int, int]]:
    slow: dict[int, dict[int, int]] = {}
    for sym in np.flatnonzero(codec.lengths > _TABLE_BITS):
        length = int(codec.lengths[sym])
        slow.setdefault(length, {})[int(codec.codes[sym])] = int(sym)
    return slow


def huffman_decode_walk(codec, reader: BitReader, count: int) -> np.ndarray:
    """Old ``HuffmanCodec._decode_walk``: canonical per-length walk, one
    bit at a time (handles arbitrarily long codes); the decoder's path
    for streams of at most 64 symbols before the table path took them."""
    sorted_syms, sorted_lens, first_code, first_rank, counts = codec._canonical_arrays()
    max_len = int(sorted_lens[-1])
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        code = 0
        for L in range(1, max_len + 1):
            code = (code << 1) | reader.read_bits(1)
            if counts[L] and code - first_code[L] < counts[L] and code >= first_code[L]:
                out[i] = sorted_syms[first_rank[L] + (code - first_code[L])]
                break
        else:
            raise ValueError("invalid Huffman stream")
    return out


def huffman_decode_reference(codec, reader: BitReader, count: int) -> np.ndarray:
    """Original hybrid decoder: per-position window tables + scalar chase,
    after the walk for streams of at most 64 symbols.

    One Python loop iteration per symbol, with the per-symbol dict fallback
    for codes longer than the 16-bit window.
    """
    lengths = codec.lengths
    present = np.flatnonzero(lengths > 0)
    if present.size == 0:
        if count:
            raise ValueError("cannot decode with an empty codebook")
        return np.zeros(0, dtype=np.int64)
    if count <= 64:
        return huffman_decode_walk(codec, reader, count)
    max_len = min(int(lengths[present].max()), _TABLE_BITS)

    sym_table, len_table = codec._tables()
    bits = np.unpackbits(reader._buf, count=reader._nbits)[reader._pos :]
    nbits = bits.size
    padded = np.concatenate((bits.astype(np.int64), np.zeros(max_len, dtype=np.int64)))
    vals = np.zeros(nbits + 1, dtype=np.int64)
    for j in range(max_len):
        vals += padded[j : j + nbits + 1] << (max_len - 1 - j)
    sym_at = sym_table[vals].tolist()
    adv_at = len_table[vals].tolist()
    slow = _slow_entries(codec)
    bit_list = bits.tolist() if slow else None

    out = [0] * count
    pos = 0
    try:
        for i in range(count):
            step = adv_at[pos]
            if step == 0:
                if not slow:
                    raise ValueError("invalid Huffman stream")
                code = vals[pos]
                length = max_len
                while True:
                    length += 1
                    if pos + length > nbits:
                        raise EOFError("bitstream exhausted during Huffman decode")
                    code = (int(code) << 1) | bit_list[pos + length - 1]
                    hit = slow.get(length)
                    if hit is not None and code in hit:
                        out[i] = hit[code]
                        pos += length
                        break
                    if length > _MAX_CODE_LEN:
                        raise ValueError("invalid Huffman stream")
            else:
                out[i] = sym_at[pos]
                pos += step
    except IndexError:
        raise EOFError("bitstream exhausted during Huffman decode") from None
    if pos > nbits:
        raise EOFError("bitstream exhausted during Huffman decode")
    reader._pos += pos
    return np.array(out, dtype=np.int64)


# -- range coder -------------------------------------------------------------

_TOP = 1 << 24
_BOT = 1 << 16
_MASK = (1 << 32) - 1


def range_encode_reference(encoder, symbols: np.ndarray) -> bytes:
    """Original per-symbol range encoder loop (numpy scalar indexing)."""
    freq = encoder.freq
    cum = encoder.cum
    total = encoder.total
    low, rng = encoder._low, encoder._range
    out = encoder._out
    for s in np.asarray(symbols, dtype=np.int64).ravel():
        f = int(freq[s])
        if f == 0:
            raise ValueError(f"symbol {s} has zero frequency")
        rng //= total
        low = (low + int(cum[s]) * rng) & _MASK
        rng *= f
        while (low ^ (low + rng)) < _TOP or (
            rng < _BOT and ((rng := -low & (_BOT - 1)) or True)
        ):
            out.append((low >> 24) & 0xFF)
            low = (low << 8) & _MASK
            rng = (rng << 8) & _MASK
    for _ in range(4):
        out.append((low >> 24) & 0xFF)
        low = (low << 8) & _MASK
    return bytes(out)


def range_decode_reference(decoder, count: int) -> np.ndarray:
    """Original per-symbol range decoder (searchsorted per symbol)."""
    cum = decoder.cum
    total = decoder.total
    low, rng, code = decoder._low, decoder._range, decoder._code
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        rng //= total
        value = ((code - low) & _MASK) // rng
        if value >= total:
            raise ValueError("corrupt range-coded stream")
        s = int(np.searchsorted(cum, value, side="right")) - 1
        out[i] = s
        low = (low + int(cum[s]) * rng) & _MASK
        rng *= int(decoder.freq[s])
        while (low ^ (low + rng)) < _TOP or (
            rng < _BOT and ((rng := -low & (_BOT - 1)) or True)
        ):
            code = ((code << 8) | decoder._next_byte()) & _MASK
            low = (low << 8) & _MASK
            rng = (rng << 8) & _MASK
    decoder._low, decoder._range, decoder._code = low, rng, code
    return out
