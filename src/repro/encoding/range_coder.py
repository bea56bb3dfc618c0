"""Static range (arithmetic) coder over integer symbol alphabets.

An alternative entropy backend to canonical Huffman: a range coder reaches
the Shannon entropy to within ~0.01 bits/symbol, whereas Huffman loses up
to 1 bit/symbol on highly skewed alphabets — precisely the regime of SZ3's
quantization codes (one dominant "exactly predicted" symbol). Real SZ uses
Huffman+zstd; SZ variants and SPERR-adjacent codecs use arithmetic/ANS
stages, so `SZ3Compressor(entropy="range")` lets the repo measure that
design choice (``benchmarks/test_ablation_entropy.py``).

Classic 32-bit Schindler-style carry-less range coder with a static
frequency model (the model is serialized alongside, like a Huffman
codebook). The renormalization recurrence is inherently sequential, so the
loops stay scalar — but they run over plain Python ints pre-gathered in
chunked numpy passes (per-symbol (freq, cum) lookups on encode, a
``np.repeat``-built value→symbol table replacing per-symbol searchsorted
on decode), which removes every numpy scalar-indexing call from the hot
loop while keeping the emitted bytes identical
(:func:`repro.encoding.reference.range_encode_reference`).
"""

from __future__ import annotations

import numpy as np

_TOP = 1 << 24
_BOT = 1 << 16
_MASK = (1 << 32) - 1
_MAX_TOTAL = _BOT - 1
_CHUNK = 1 << 16


def _quantized_freqs(frequencies: np.ndarray) -> np.ndarray:
    """Scale counts to a total <= _MAX_TOTAL, keeping every symbol >= 1."""
    freq = np.asarray(frequencies, dtype=np.int64)
    if (freq < 0).any():
        raise ValueError("frequencies must be non-negative")
    present = freq > 0
    if not present.any():
        raise ValueError("need at least one present symbol")
    total = int(freq.sum())
    if total > _MAX_TOTAL:
        scaled = np.maximum((freq * _MAX_TOTAL) // total, present.astype(np.int64))
        freq = scaled
    return freq


class RangeEncoder:
    """Static-model range encoder."""

    def __init__(self, frequencies: np.ndarray) -> None:
        self.freq = _quantized_freqs(frequencies)
        self.cum = np.concatenate(([0], np.cumsum(self.freq)))
        self.total = int(self.cum[-1])
        self._low = 0
        self._range = _MASK
        self._out = bytearray()

    def encode(self, symbols: np.ndarray) -> bytes:
        total = self.total
        low, rng = self._low, self._range
        out = self._out
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        for start in range(0, symbols.size, _CHUNK):
            chunk = symbols[start : start + _CHUNK]
            # Pre-gather per-symbol (freq, cum) as plain ints; the scalar
            # loop below then never touches a numpy object. A zero-frequency
            # symbol still gets the prefix before it encoded, matching the
            # scalar loop's observable output when it raises mid-stream.
            fs = self.freq[chunk]
            bad = int(np.argmax(fs == 0)) if (fs == 0).any() else chunk.size
            f_list = fs[:bad].tolist()
            c_list = self.cum[chunk[:bad]].tolist()
            for f, c in zip(f_list, c_list):
                rng //= total
                low = (low + c * rng) & _MASK
                rng *= f
                # renormalize
                while (low ^ (low + rng)) < _TOP or (
                    rng < _BOT and ((rng := -low & (_BOT - 1)) or True)
                ):
                    out.append((low >> 24) & 0xFF)
                    low = (low << 8) & _MASK
                    rng = (rng << 8) & _MASK
            if bad < chunk.size:
                raise ValueError(f"symbol {chunk[bad]} has zero frequency")
        # flush
        for _ in range(4):
            out.append((low >> 24) & 0xFF)
            low = (low << 8) & _MASK
        return bytes(out)


class RangeDecoder:
    """Mirror of :class:`RangeEncoder`."""

    def __init__(self, frequencies: np.ndarray, data: bytes) -> None:
        self.freq = _quantized_freqs(frequencies)
        self.cum = np.concatenate(([0], np.cumsum(self.freq)))
        self.total = int(self.cum[-1])
        self._data = data
        self._pos = 0
        self._low = 0
        self._range = _MASK
        self._code = 0
        # lazily built decode lookups (see decode)
        self._sym_of_value: list[int] | None = None
        self._freq_l: list[int] = []
        self._cum_l: list[int] = []
        for _ in range(4):
            self._code = ((self._code << 8) | self._next_byte()) & _MASK

    def _next_byte(self) -> int:
        if self._pos < len(self._data):
            b = self._data[self._pos]
            self._pos += 1
            return b
        return 0

    def decode(self, count: int) -> np.ndarray:
        total = self.total
        low, rng, code = self._low, self._range, self._code
        # value→symbol lookup table (size == total <= 65535): one np.repeat
        # replaces a binary search per symbol, and per-symbol (freq, cum)
        # become plain-int list lookups.
        if self._sym_of_value is None:
            self._sym_of_value = np.repeat(
                np.arange(self.freq.size), self.freq
            ).tolist()
            self._freq_l = self.freq.tolist()
            self._cum_l = self.cum.tolist()
        sym_of_value = self._sym_of_value
        freq_l = self._freq_l
        cum_l = self._cum_l
        data = self._data
        ndata = len(data)
        pos = self._pos
        out = []
        try:
            for _ in range(count):
                rng //= total
                value = ((code - low) & _MASK) // rng
                if value >= total:
                    raise ValueError("corrupt range-coded stream")
                s = sym_of_value[value]
                out.append(s)
                low = (low + cum_l[s] * rng) & _MASK
                rng *= freq_l[s]
                while (low ^ (low + rng)) < _TOP or (
                    rng < _BOT and ((rng := -low & (_BOT - 1)) or True)
                ):
                    if pos < ndata:
                        byte = data[pos]
                        pos += 1
                    else:
                        byte = 0
                    code = ((code << 8) | byte) & _MASK
                    low = (low << 8) & _MASK
                    rng = (rng << 8) & _MASK
        finally:
            # The scalar reference advances the read cursor eagerly; keep
            # that observable even when raising on a corrupt stream.
            self._pos = pos
        self._low, self._range, self._code = low, rng, code
        return np.array(out, dtype=np.int64)


def range_encode(symbols: np.ndarray, alphabet_size: int | None = None) -> tuple[bytes, np.ndarray]:
    """One-shot helper: returns ``(payload, frequency_table)``."""
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    default = symbols.max() + 1 if symbols.size else 1
    size = int(alphabet_size if alphabet_size is not None else default)
    freq = np.bincount(symbols, minlength=size)
    if symbols.size == 0:
        return b"", freq
    payload = RangeEncoder(freq).encode(symbols)
    return payload, freq


def range_decode(payload: bytes, frequencies: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`range_encode`."""
    if count < 0:
        raise ValueError(f"symbol count must be non-negative, got {count}")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    return RangeDecoder(frequencies, payload).decode(count)
