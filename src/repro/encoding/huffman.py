"""Canonical Huffman coding over integer symbol alphabets.

This is SZ3's entropy stage, sized for store chunks: a chunk is ~16 K
symbols with its own codebook, so set-up counts as much as the stream.
Both are array passes. The codebook is closed-form: canonical codes are
``first_code[length] + rank within length``, and in canonical order the
left-aligned codes ascend, so the decode tables are one ``np.repeat``
tiling. Encoding gathers each symbol's (code, length) pair and lands the
stream through one :meth:`BitWriter.write_varlen_uint_array` call.

Decoding is data-parallel although a Huffman stream is a serial
recurrence ("the next code starts where this one ends"): the table gives
the code length at *every* bit position, so ``p -> p + length[p]`` is a
successor map over bit positions and the code boundaries are the orbit
of position 0 under it. Squaring the map ``_HOPS`` times
(``jump = jump[jump]``) makes one hop span ``2**_HOPS`` codes; Python
chases only those anchors, all anchors then walk the single-step map in
lockstep, and the symbols come out of one gather. Codes longer than the
table window are resolved, for all positions that miss the table at
once, through the canonical first-code arrays (codes of equal length are
consecutive integers). This one path serves every symbol count; the
per-bit canonical walk it replaced is kept in ``tests/encoding_oracle.py``
as the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encoding.bitstream import BitReader, BitWriter, window_values

_MAX_CODE_LEN = 48
_TABLE_BITS = 16  # fast-decode lookup window
#: Squarings of the successor map: an anchor hop spans ``2**_HOPS`` codes.
#: Each squaring is a pass over every bit position and halves the Python
#: anchor chase. Measured, not a knob: 4 beat 3 and 5 on 16 K-symbol
#: store chunks at ratio 3 and 9, on a 64^3 stream and on 18-bit codes.
_HOPS = 4


def huffman_code_lengths(frequencies: np.ndarray) -> np.ndarray:
    """Return optimal prefix-code lengths for each symbol.

    ``frequencies[i]`` is the count of symbol ``i``; zero-frequency symbols
    get length 0 (absent from the codebook). A single-symbol alphabet gets
    length 1 (a real stream still needs one bit per occurrence).
    """
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

    # Two-queue merge: leaves sorted by (count, symbol), internal nodes in
    # creation order (their counts never decrease), the smaller front
    # taken each time and a leaf before an internal node on ties — the
    # pop order of a heap keyed (count, node id), hence the same tree as
    # huffman_code_lengths_reference (tests/encoding_oracle.py), without
    # the heap.
    counts = freq[present]
    order = np.argsort(counts, kind="stable")
    n = present.size
    weight = counts[order].tolist() + [0] * (n - 1)
    parent = list(range(2 * n - 1))  # the root stays its own parent
    leaf, inner = 0, n
    for node in range(n, 2 * n - 1):
        for _ in range(2):
            if leaf < n and (inner == node or weight[leaf] <= weight[inner]):
                child, leaf = leaf, leaf + 1
            else:
                child, inner = inner, inner + 1
            parent[child] = node
            weight[node] += weight[child]

    # Depth of each leaf = code length, by pointer jumping: ``depth``
    # counts the edges on the first 2^k hops toward the root.
    hops = np.array(parent)
    depth = (hops != np.arange(hops.size)).astype(np.int64)
    while (step := depth[hops]).any():
        depth += step
        hops = hops[hops]
    lengths[present[order]] = depth[:n]
    if lengths.max() > _MAX_CODE_LEN:  # pragma: no cover - needs astronomic skew
        raise OverflowError("Huffman code length exceeds supported maximum")
    return lengths


def _canonical(lengths: np.ndarray) -> tuple:
    """``(sorted_syms, sorted_lens, first_code, first_rank, counts)``.

    The canonical code in closed form. Symbols are ordered by (length,
    symbol) and codes of equal length are consecutive integers, so the
    code of the ``r``-th symbol of length ``L`` is ``first_code[L] + r``
    and "which symbol does this code name?" is a range check per length.
    ``first_rank[L]`` is the position in ``sorted_syms`` of the first
    symbol of length ``L``.
    """
    present = np.flatnonzero(lengths > 0)
    lens = lengths[present]
    max_len = int(lens.max()) if present.size else 0
    if max_len > _MAX_CODE_LEN:
        raise ValueError(
            f"invalid Huffman codebook: code length {max_len} exceeds {_MAX_CODE_LEN}"
        )
    counts = np.bincount(lens, minlength=max_len + 2)
    order = np.argsort(lens, kind="stable")  # present ascends: ties stay by symbol
    first_code = [0] * (max_len + 2)
    code = 0
    for length in range(1, max_len + 1):
        first_code[length] = code
        code = (code + int(counts[length])) << 1
    if code > 2 << max_len:
        raise ValueError(
            "invalid Huffman codebook: code lengths are over-subscribed (Kraft sum > 1)"
        )
    first_rank = np.cumsum(counts) - counts
    return present[order], lens[order], np.array(first_code, dtype=np.int64), first_rank, counts


def _codes(canonical: tuple, alphabet_size: int) -> np.ndarray:
    """Per-symbol code values (0 for absent symbols) of a :func:`_canonical` code."""
    sorted_syms, sorted_lens, first_code, first_rank, _ = canonical
    codes = np.zeros(alphabet_size, dtype=np.uint64)
    rank = np.arange(sorted_syms.size) - first_rank[sorted_lens]
    codes[sorted_syms] = first_code[sorted_lens] + rank
    return codes


def stream_entropy_bits(symbols: np.ndarray) -> float:
    """Shannon entropy (bits/symbol) of an integer symbol stream.

    The entropy floor the Huffman cost approaches from above; surrogate
    size estimators use it as the encoded-size stand-in for streams they
    never materialize (SECRE skips the entropy stage entirely).
    """
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    if symbols.size == 0:
        return 0.0
    counts = np.bincount(symbols - symbols.min())
    p = counts[counts > 0] / symbols.size
    return float(-(p * np.log2(p)).sum())


@dataclass
class HuffmanCodec:
    """Canonical Huffman codec for symbols in ``[0, alphabet_size)``."""

    lengths: np.ndarray
    codes: np.ndarray
    # lazily built decode state (see _canonical_arrays, _tables)
    _canonical: tuple | None = None
    _decode_tables: tuple | None = None

    @classmethod
    def fit(cls, symbols: np.ndarray, alphabet_size: int | None = None) -> "HuffmanCodec":
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        if symbols.size and symbols.min() < 0:
            raise ValueError("symbols must be non-negative")
        default = symbols.max() + 1 if symbols.size else 1
        size = int(alphabet_size if alphabet_size is not None else default)
        return cls.from_frequencies(np.bincount(symbols, minlength=size))

    @classmethod
    def from_frequencies(cls, frequencies: np.ndarray) -> "HuffmanCodec":
        """Build the codec from a symbol histogram."""
        return cls.from_lengths(huffman_code_lengths(np.asarray(frequencies, dtype=np.int64)))

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "HuffmanCodec":
        """Build the codec from code lengths. Stored lengths are outside
        input: :func:`_canonical` rejects, with a ``ValueError`` naming
        the codebook, a set no prefix code can have (a length past
        ``_MAX_CODE_LEN``, a Kraft sum above 1) — the decode tables would
        otherwise be overrun."""
        lengths = np.asarray(lengths, dtype=np.int64)
        canonical = _canonical(lengths)
        return cls(lengths, _codes(canonical, lengths.size), canonical)

    @property
    def alphabet_size(self) -> int:
        return int(self.lengths.size)

    def encode(self, symbols: np.ndarray, writer: BitWriter) -> None:
        """Append the code for each symbol to ``writer`` (vectorized)."""
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        if symbols.size == 0:
            return
        if symbols.min() < 0 or symbols.max() >= self.lengths.size:
            raise ValueError("symbol outside codebook alphabet")
        lens = self.lengths[symbols]
        if (lens == 0).any():
            bad = symbols[lens == 0][0]
            raise ValueError(f"symbol {bad} not in codebook")
        writer.write_varlen_uint_array(self.codes[symbols], lens)

    def decode(self, reader: BitReader, count: int) -> np.ndarray:
        """Decode ``count`` symbols and leave ``reader`` after the last code.

        The stream is read as if zero-padded, and running past its end
        is an ``EOFError`` — a window no code matches a ``ValueError`` —
        raised for the first code that fails. Array passes over the
        rest of the stream plus ``ceil(count / 2**_HOPS)`` Python steps,
        for any ``count``.
        """
        count = int(count)
        if count < 0:
            raise ValueError(f"symbol count must be non-negative, got {count}")
        sorted_syms, sorted_lens, *_ = canonical = self._canonical_arrays()
        if sorted_syms.size == 0:
            if count:
                raise ValueError("cannot decode with an empty codebook")
            return np.zeros(0, dtype=np.int64)
        sym_table, len_table = self._tables()
        width = min(int(sorted_lens[-1]), _TABLE_BITS)
        has_long = bool(sorted_lens[-1] > width)

        # Code length at every bit position of the (zero-padded) stream,
        # windowed straight from the reader's bytes: the stream starts at
        # bit ``phase`` of byte ``first``.
        start, buf = reader._pos, reader._buf
        nbits = reader.remaining
        first, phase = start >> 3, start & 7
        vals = window_values(buf[first:], phase + nbits, width)[phase:]
        lens = _gather(len_table, vals)
        if has_long:
            miss = np.flatnonzero(lens == 0)
            long_pos, long_len, long_sym = _resolve_long(buf, start, nbits, miss, canonical)
            lens[long_pos] = long_len

        # Successor map with one absorbing sink for "no code here" and
        # "the code ends past the stream", squared _HOPS times.
        sink = nbits + 1
        nxt = np.arange(nbits + 2, dtype=np.int32 if sink + _MAX_CODE_LEN < 2**31 else np.int64)
        nxt[:sink] += lens
        nxt[:sink][lens == 0] = sink
        np.minimum(nxt, sink, out=nxt)
        jump = nxt
        for _ in range(_HOPS):
            jump = _gather(jump, jump)

        # Start positions of codes 0 .. count (the last one is where the
        # reader ends): anchors every 2**_HOPS codes, filled in lockstep.
        hop = 1 << _HOPS
        anchors = [0] * (count // hop + 1)
        jump_at = jump.item
        for i in range(1, len(anchors)):
            anchors[i] = jump_at(anchors[i - 1])
        starts = np.empty((hop, len(anchors)), dtype=nxt.dtype)
        starts[0] = anchors
        for k in range(1, hop):
            _gather(nxt, starts[k - 1], out=starts[k])
        starts = starts.T.ravel()[: count + 1]

        if starts[count] == sink:
            # The last code start before the sink says which way it failed.
            at = int(starts[np.argmax(starts == sink) - 1])
            if lens[at] == 0 and (not has_long or at + _MAX_CODE_LEN < nbits):
                raise ValueError("invalid Huffman stream")
            raise EOFError("bitstream exhausted during Huffman decode")
        reader._pos += int(starts[count])
        starts = starts[:count]
        out = _gather(sym_table, _gather(vals, starts))
        if has_long:
            is_long = _gather(lens, starts) > width
            out[is_long] = long_sym[np.searchsorted(long_pos, starts[is_long])]
        return out

    def _canonical_arrays(self) -> tuple:
        """:func:`_canonical` of this codebook, computed once."""
        if self._canonical is None:
            self._canonical = _canonical(self.lengths)
        return self._canonical

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(symbol, length)`` of the code each window value starts with.

        The window is ``min(longest code, _TABLE_BITS)`` bits. In
        canonical order the left-aligned codes ascend and each spans
        ``2**(window - length)`` consecutive values starting where the
        previous one ended, so both tables are one ``np.repeat``; what is
        left over — prefixes of longer codes, or the unused part of an
        incomplete code — keeps length 0.
        """
        if self._decode_tables is None:
            sorted_syms, sorted_lens, *_ = self._canonical_arrays()
            width = min(int(sorted_lens[-1]), _TABLE_BITS)
            n_short = int(np.searchsorted(sorted_lens, width, side="right"))
            spans = np.int64(1) << (width - sorted_lens[:n_short])
            filled = int(spans.sum())
            sym_table = np.zeros(1 << width, dtype=np.int64)
            len_table = np.zeros(1 << width, dtype=np.uint8)
            sym_table[:filled] = np.repeat(sorted_syms[:n_short], spans)
            len_table[:filled] = np.repeat(sorted_lens[:n_short], spans)
            self._decode_tables = sym_table, len_table
        return self._decode_tables


def _gather(table: np.ndarray, index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``table[index]`` for indices known to be in range. ``take`` reads
    the narrow index dtypes the all-position arrays are kept in without
    the intp copy fancy indexing makes, and its wrap mode is never
    exercised: it only spares the bounds-checked (and, with ``out``,
    buffered) default."""
    return table.take(index, out=out, mode="wrap")


def _resolve_long(
    buf: np.ndarray, start: int, nbits: int, miss: np.ndarray, canonical: tuple
) -> tuple:
    """Codes longer than the table window, at every position in ``miss``.

    ``buf`` is a reader's zero-padded byte buffer and the stream its
    ``nbits`` bits from bit ``start``; ``miss`` indexes that stream.
    Returns ``(positions, lengths, symbols)`` for the positions where a
    long code starts and ends inside the stream. Each position gets the
    64-bit word that begins at its byte, shifted so the code starts at
    the top bit (57 usable bits, codes are at most 48); a candidate
    length then matches when the leading bits fall in that length's
    canonical range — one vector range check per long length present.
    """
    sorted_syms, _, first_code, first_rank, counts = canonical
    at = miss + start
    windows = np.lib.stride_tricks.sliding_window_view(buf, 8)
    aligned = windows[at >> 3].view(">u8").ravel().astype(np.uint64) << (at & 7).astype(np.uint64)
    room = nbits - miss
    length = np.zeros(miss.size, dtype=np.uint8)
    symbol = np.zeros(miss.size, dtype=np.int64)
    for L in np.flatnonzero(counts[_TABLE_BITS + 1 :]) + _TABLE_BITS + 1:
        rank = (aligned >> np.uint64(64 - L)) - np.uint64(first_code[L])  # wraps below the range
        hit = (rank < np.uint64(counts[L])) & (room >= L) & (length == 0)
        length[hit] = L
        symbol[hit] = sorted_syms[first_rank[L] + rank[hit].astype(np.int64)]
    found = length > 0
    return miss[found], length[found], symbol[found]
