"""Canonical Huffman coding over integer symbol alphabets.

This is SZ3's entropy stage. Encoding is vectorized: each symbol's
(code, length) pair comes from table lookups and the variable-length codes
land in the stream through one :meth:`BitWriter.write_varlen_uint_array`
call. Decoding is table-driven end to end: a multi-symbol prefix table maps
every window value to *how many* complete codes it holds and their total
bit advance, a scalar chase walks the stream one whole window per step, and
the symbols themselves are emitted afterwards in a handful of vectorized
gathers. Codes longer than the lookup window decode through the canonical
first-code arrays (codes of equal length are consecutive integers) instead
of a per-length dict walk. :meth:`HuffmanCodec._decode_walk` is the slow
reference oracle the fast paths are tested against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.encoding.bitstream import BitReader, BitWriter, window_values

_MAX_CODE_LEN = 48
_TABLE_BITS = 16  # fast-decode lookup window


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


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical code values from code lengths.

    Symbols are ordered by (length, symbol); codes of the same length are
    consecutive. Returns an array of code values (as uint64); symbols with
    length 0 get code 0 and must not be encoded.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    order = np.lexsort((np.arange(lengths.size), lengths))
    order = order[lengths[order] > 0]
    code = 0
    prev_len = 0
    for sym in order:
        length = int(lengths[sym])
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


def huffman_encoded_bits(frequencies: np.ndarray) -> int:
    """Exact encoded payload size in bits for a stream with these counts.

    Used by size estimators that want the Huffman cost without materializing
    the bitstream.
    """
    freq = np.asarray(frequencies, dtype=np.int64)
    lengths = huffman_code_lengths(freq)
    return int((freq * lengths).sum())


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
    # lazily built fast-decode tables (see _decode_table)
    _sym_table: np.ndarray | None = None
    _len_table: np.ndarray | None = None
    _ns_table: np.ndarray | None = None
    _adv_table: np.ndarray | None = None
    _canonical: tuple | None = None

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
        lengths = huffman_code_lengths(np.asarray(frequencies, dtype=np.int64))
        return cls(lengths=lengths, codes=canonical_codes(lengths))

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "HuffmanCodec":
        lengths = np.asarray(lengths, dtype=np.int64)
        return cls(lengths=lengths, codes=canonical_codes(lengths))

    @property
    def alphabet_size(self) -> int:
        return int(self.lengths.size)

    def encoded_bits(self, symbols: np.ndarray) -> int:
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        return int(self.lengths[symbols].sum())

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
        """Decode ``count`` symbols.

        Bulk streams use the table-driven batch path (:meth:`_decode_table`):
        every probe of the multi-symbol prefix table advances one whole
        window, and the probed symbols are emitted vectorized afterwards.
        Codes longer than the window (necessarily rare — their stream
        probability is below ``2**-_TABLE_BITS``) resolve through the
        canonical first-code arrays. Tiny streams use the per-length
        reference walk directly.
        """
        lengths = self.lengths
        present = np.flatnonzero(lengths > 0)
        if present.size == 0:
            if count:
                raise ValueError("cannot decode with an empty codebook")
            return np.zeros(0, dtype=np.int64)
        max_len = int(lengths[present].max())
        if count > 64:
            return self._decode_table(reader, count, min(max_len, _TABLE_BITS))
        return self._decode_walk(reader, count)

    def _decode_table(self, reader: BitReader, count: int, max_len: int) -> np.ndarray:
        """Batch prefix-table decode (one-shot wrapper around the
        resumable :class:`HuffmanStreamDecoder`, which holds the actual
        chase/emission machinery)."""
        return HuffmanStreamDecoder(self, reader, max_len=max_len).take(count)

    def _multi_tables(self, max_len: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-window (symbol count, bit advance) for whole-window probes.

        Built vectorized over all ``2**max_len`` window values at once:
        each round decodes the next code of every still-active window via
        the single-symbol tables and shifts it out. A code only counts when
        it fits entirely inside the window — its table entry is then
        determined by real bits, never by the zeros shifted in — so a
        window's (count, advance) is exact for every stream position.
        Windows whose *first* code is longer than the window get the
        sentinel count 0.
        """
        if self._ns_table is None:
            _, len_table = self._tables(max_len)
            size = 1 << max_len
            mask = np.int64(size - 1)
            cur = np.arange(size, dtype=np.int64)
            ns = np.zeros(size, dtype=np.int64)
            used = np.zeros(size, dtype=np.int64)
            active = np.arange(size)
            while active.size:
                lens = len_table[cur[active]].astype(np.int64)
                ok = (lens > 0) & (used[active] + lens <= max_len)
                active = active[ok]
                if not active.size:
                    break
                lens = lens[ok]
                ns[active] += 1
                used[active] += lens
                cur[active] = (cur[active] << lens) & mask
            self._ns_table, self._adv_table = ns, used
        return self._ns_table, self._adv_table

    def _canonical_arrays(self) -> tuple:
        """(sorted_syms, first_code, first_rank, counts, max_len) tables.

        The canonical-code property — codes of equal length are consecutive
        integers — reduces "which symbol does this long code name?" to two
        array lookups and a range check per candidate length.
        """
        if self._canonical is None:
            lengths = self.lengths
            present = np.flatnonzero(lengths > 0)
            order = np.lexsort((present, lengths[present]))
            sorted_syms = present[order]
            sorted_lens = lengths[sorted_syms]
            sorted_codes = self.codes[sorted_syms].astype(np.int64)
            max_len = int(sorted_lens.max())
            first_code = np.full(max_len + 2, np.iinfo(np.int64).max, dtype=np.int64)
            first_rank = np.zeros(max_len + 2, dtype=np.int64)
            for length in range(1, max_len + 1):
                idx = np.searchsorted(sorted_lens, length, side="left")
                if idx < sorted_lens.size and sorted_lens[idx] == length:
                    first_code[length] = sorted_codes[idx]
                    first_rank[length] = idx
            counts = np.bincount(sorted_lens, minlength=max_len + 2)
            self._canonical = (sorted_syms, first_code, first_rank, counts, max_len)
        return self._canonical

    def _decode_long(
        self, bits: np.ndarray, nbits: int, pos: int, window: int, window_len: int
    ) -> tuple[int, int]:
        """Decode one code longer than the window; returns (symbol, length)."""
        sorted_syms, first_code, first_rank, counts, max_len = self._canonical_arrays()
        code = window
        length = window_len
        while True:
            length += 1
            if pos + length > nbits:
                raise EOFError("bitstream exhausted during Huffman decode")
            code = (code << 1) | int(bits[pos + length - 1])
            if (
                length <= max_len
                and counts[length]
                and first_code[length] <= code < first_code[length] + counts[length]
            ):
                return int(sorted_syms[first_rank[length] + (code - first_code[length])]), length
            if length > _MAX_CODE_LEN:
                raise ValueError("invalid Huffman stream")

    def _tables(self, max_len: int) -> tuple[np.ndarray, np.ndarray]:
        if self._sym_table is None:
            size = 1 << max_len
            sym_table = np.zeros(size, dtype=np.int64)
            len_table = np.zeros(size, dtype=np.int16)
            for sym in np.flatnonzero(self.lengths > 0):
                L = int(self.lengths[sym])
                if L > max_len:
                    continue  # long code: sentinel 0 routes to the slow path
                base = int(self.codes[sym]) << (max_len - L)
                span = 1 << (max_len - L)
                sym_table[base : base + span] = sym
                len_table[base : base + span] = L
            self._sym_table, self._len_table = sym_table, len_table
        return self._sym_table, self._len_table

    def _decode_walk(self, reader: BitReader, count: int) -> np.ndarray:
        """Canonical per-length walk (handles arbitrarily long codes)."""
        lengths = self.lengths
        present = np.flatnonzero(lengths > 0)
        # first_code[L] = smallest code of length L; first_sym_index[L] = rank
        # (within the canonical order) of that code.
        order = np.lexsort((present, lengths[present]))
        sorted_syms = present[order]
        sorted_lens = lengths[sorted_syms]
        sorted_codes = self.codes[sorted_syms].astype(np.int64)
        max_len = int(sorted_lens.max())
        first_code = np.full(max_len + 2, np.iinfo(np.int64).max, dtype=np.int64)
        first_rank = np.zeros(max_len + 2, dtype=np.int64)
        for L in range(1, max_len + 1):
            idx = np.searchsorted(sorted_lens, L, side="left")
            if idx < sorted_lens.size and sorted_lens[idx] == L:
                first_code[L] = sorted_codes[idx]
                first_rank[L] = idx
        # Count of codes per length to know when a prefix is decodable.
        counts = np.bincount(sorted_lens, minlength=max_len + 1)

        out = np.empty(count, dtype=np.int64)
        for i in range(count):
            code = 0
            for L in range(1, max_len + 1):
                code = (code << 1) | reader.read_bit()
                if counts[L] and code - first_code[L] < counts[L] and code >= first_code[L]:
                    out[i] = sorted_syms[first_rank[L] + (code - first_code[L])]
                    break
            else:
                raise ValueError("invalid Huffman stream")
        return out

    def serialize(self, writer: BitWriter) -> None:
        """Write the codebook (alphabet size + per-symbol lengths)."""
        writer.write_elias_gamma(self.alphabet_size + 1)
        writer.write_uint_array(self.lengths.astype(np.uint64), 6)

    @classmethod
    def deserialize(cls, reader: BitReader) -> "HuffmanCodec":
        size = reader.read_elias_gamma() - 1
        lengths = reader.read_uint_array(size, 6).astype(np.int64)
        return cls.from_lengths(lengths)


class HuffmanStreamDecoder:
    """Resumable table-driven decoder over one reader's remaining bits.

    Phase 1 (scalar chase): the ``max_len``-bit window value at every bit
    position comes from one vectorized :func:`window_values` pass over the
    *whole* remaining stream, done once at construction; the multi-symbol
    tables then turn each probed window into (number of complete codes,
    total bit advance), so the data-dependent Python loop runs once per
    *window*, not once per symbol — and it only records probe positions,
    never touches symbols. Phase 2 (vectorized emission): for ``k = 0, 1,
    ...`` the ``k``-th symbol of every probe is gathered in one indexed
    lookup, so symbol extraction costs a few numpy passes regardless of
    stream length.

    :meth:`take` runs one chase+emission pass from the saved position and
    leaves the cursor (and the underlying reader) exactly after the last
    decoded code.
    """

    def __init__(
        self, codec: HuffmanCodec, reader: BitReader, max_len: int | None = None
    ) -> None:
        self._reader = reader
        lengths = codec.lengths
        present = np.flatnonzero(lengths > 0)
        self._empty = present.size == 0
        if self._empty:
            return
        if max_len is None:
            max_len = min(int(lengths[present].max()), _TABLE_BITS)
        self._sym_table, self._len_table = codec._tables(max_len)
        self._ns_tab, self._adv_tab = codec._multi_tables(max_len)
        self._ns_at = self._ns_tab.tolist()
        self._adv_at = self._adv_tab.tolist()
        self._codec = codec
        self._max_len = max_len
        self._bits = reader._bits[reader._pos :]
        self._nbits = self._bits.size
        self._vals = window_values(self._bits, max_len)
        self._has_long = bool((lengths > max_len).any())
        self._pos = 0  # bit cursor relative to the construction position

    def take(self, count: int) -> np.ndarray:
        """Decode the next ``count`` symbols and advance the cursor."""
        count = int(count)
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        if self._empty:
            raise ValueError("cannot decode with an empty codebook")
        bits, nbits, vals = self._bits, self._nbits, self._vals
        sym_table, len_table = self._sym_table, self._len_table
        ns_at, adv_at = self._ns_at, self._adv_at
        max_len, has_long = self._max_len, self._has_long

        probes: list[int] = []  # bit position of each probe
        long_marks: list[int] = []  # len(probes) when each long code was hit
        long_sym: list[int] = []
        final_emit = 0  # symbols the final partial probe actually emits
        total = 0
        start = self._pos
        pos = start
        window_at = vals.item
        while total < count:
            if pos > nbits:
                raise EOFError("bitstream exhausted during Huffman decode")
            window = window_at(pos)
            ns = ns_at[window]
            if ns == 0:
                # First code in the window is longer than the window (or the
                # stream is invalid) — resolve it canonically.
                if not has_long:
                    raise ValueError("invalid Huffman stream")
                sym, length = self._codec._decode_long(bits, nbits, pos, window, max_len)
                long_marks.append(len(probes))
                long_sym.append(sym)
                total += 1
                pos += length
            elif total + ns >= count:
                # Final probe: step symbol by symbol for the exact end bit.
                probes.append(pos)
                final_emit = count - total
                while True:
                    pos += int(len_table.item(window))
                    total += 1
                    if total == count:
                        break
                    if pos > nbits:
                        raise EOFError("bitstream exhausted during Huffman decode")
                    window = window_at(pos)
            else:
                probes.append(pos)
                total += ns
                pos += adv_at[window]
        if pos > nbits:
            raise EOFError("bitstream exhausted during Huffman decode")
        self._pos = pos
        self._reader._pos += pos - start

        # Per-probe emit counts and output bases are reconstructed here
        # instead of being appended inside the chase loop: the table lookup
        # that produced each probe's ``ns`` is replayed as one gather, and
        # long-coded symbols (recorded as "after probe m") shift the bases
        # of every later probe.
        out = np.empty(count, dtype=np.int64)
        ends = np.zeros(0, dtype=np.int64)
        if probes:
            probe_pos = np.array(probes, dtype=np.int64)
            emit = self._ns_tab[vals[probe_pos]]
            if final_emit:
                emit[-1] = final_emit
            ends = np.cumsum(emit)
            base = ends - emit
            if long_marks:
                marks = np.array(long_marks, dtype=np.int64)
                base += np.searchsorted(marks, np.arange(probe_pos.size), side="right")
            cursor = probe_pos.copy()
            for k in range(int(emit.max())):
                sel = np.flatnonzero(emit > k)
                windows = vals[cursor[sel]]
                out[base[sel] + k] = sym_table[windows]
                cursor[sel] += len_table[windows]
        if long_sym:
            marks = np.array(long_marks, dtype=np.int64)
            probe_cum = np.concatenate(([0], ends))
            long_at = probe_cum[marks] + np.arange(marks.size)
            out[long_at] = np.array(long_sym, dtype=np.int64)
        return out
