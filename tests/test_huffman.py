"""Unit tests for canonical Huffman coding."""

import numpy as np
import pytest

from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.huffman import HuffmanCodec, huffman_code_lengths


def canonical_codes(lengths):
    return HuffmanCodec.from_lengths(lengths).codes


class TestCodeLengths:
    def test_uniform_four_symbols(self):
        lengths = huffman_code_lengths(np.array([10, 10, 10, 10]))
        assert list(lengths) == [2, 2, 2, 2]

    def test_skewed_distribution(self):
        lengths = huffman_code_lengths(np.array([100, 1, 1]))
        assert lengths[0] == 1
        assert lengths[1] == 2 and lengths[2] == 2

    def test_zero_frequency_symbols_excluded(self):
        lengths = huffman_code_lengths(np.array([5, 0, 7, 0]))
        assert lengths[1] == 0 and lengths[3] == 0
        assert lengths[0] > 0 and lengths[2] > 0

    def test_single_symbol_gets_one_bit(self):
        lengths = huffman_code_lengths(np.array([0, 42, 0]))
        assert list(lengths) == [0, 1, 0]

    def test_all_zero(self):
        assert huffman_code_lengths(np.zeros(4, dtype=int)).sum() == 0

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            huffman_code_lengths(np.array([1, -1]))

    def test_kraft_inequality(self, rng):
        freq = rng.integers(0, 1000, 64)
        lengths = huffman_code_lengths(freq)
        used = lengths[lengths > 0]
        assert (2.0 ** (-used.astype(float))).sum() <= 1.0 + 1e-12

    def test_optimality_vs_entropy(self, rng):
        """Huffman cost within 1 bit/symbol of entropy."""
        freq = rng.integers(1, 500, 16)
        n = freq.sum()
        p = freq / n
        entropy = -(p * np.log2(p)).sum()
        bits = (freq * huffman_code_lengths(freq)).sum() / n
        assert entropy <= bits + 1e-12 <= entropy + 1.0 + 1e-12


class TestCanonicalCodes:
    def test_prefix_free(self, rng):
        freq = rng.integers(0, 100, 20)
        lengths = huffman_code_lengths(freq)
        codes = canonical_codes(lengths)
        entries = [
            (format(int(codes[i]), f"0{int(lengths[i])}b"))
            for i in range(20)
            if lengths[i] > 0
        ]
        for i, a in enumerate(entries):
            for j, b in enumerate(entries):
                if i != j:
                    assert not b.startswith(a), (a, b)

    def test_consecutive_codes_same_length(self):
        lengths = np.array([2, 2, 2, 2])
        codes = canonical_codes(lengths)
        assert list(codes) == [0, 1, 2, 3]

    def test_closed_form_equals_sequential_assignment(self, rng):
        # The textbook loop: walk symbols by (length, symbol), count up,
        # shift left when the length grows.
        for _ in range(50):
            lengths = huffman_code_lengths(rng.integers(0, 50, rng.integers(1, 300)))
            want = np.zeros(lengths.size, dtype=np.uint64)
            code = prev = 0
            for sym in sorted(np.flatnonzero(lengths), key=lambda i: (lengths[i], i)):
                code <<= int(lengths[sym]) - prev
                want[sym], code, prev = code, code + 1, int(lengths[sym])
            np.testing.assert_array_equal(canonical_codes(lengths), want)


class TestStoredLengthsAreChecked:
    """``from_lengths`` takes outside input: a length set no prefix code
    can have is a ValueError naming the codebook, not a table overrun."""

    def test_length_past_maximum(self):
        with pytest.raises(ValueError, match="Huffman codebook.*49"):
            HuffmanCodec.from_lengths(np.array([1, 49]))

    def test_oversubscribed(self):
        with pytest.raises(ValueError, match="Huffman codebook.*Kraft"):
            HuffmanCodec.from_lengths(np.array([1, 1, 1]))
        with pytest.raises(ValueError, match="Huffman codebook.*Kraft"):
            HuffmanCodec.from_lengths(np.array([1, 2, 3, 3, 20]))

    def test_complete_and_incomplete_codes_pass(self):
        HuffmanCodec.from_lengths(np.array([1, 2, 3, 3]))
        HuffmanCodec.from_lengths(np.array([0, 48, 0, 2]))
        assert HuffmanCodec.from_lengths(np.zeros(5, dtype=int)).decode(BitReader(b""), 0).size == 0


class TestCodecRoundTrip:
    @pytest.mark.parametrize("size,alphabet", [(100, 5), (5000, 64), (300, 2)])
    def test_random_streams(self, rng, size, alphabet):
        syms = rng.integers(0, alphabet, size)
        codec = HuffmanCodec.fit(syms)
        w = BitWriter()
        codec.encode(syms, w)
        out = codec.decode(BitReader(w.getvalue()), size)
        np.testing.assert_array_equal(out, syms)

    def test_skewed_stream(self, rng):
        syms = rng.integers(0, 30, 4000)
        syms[rng.random(4000) < 0.9] = 7
        codec = HuffmanCodec.fit(syms)
        w = BitWriter()
        codec.encode(syms, w)
        # Heavily skewed -> far below fixed-width cost.
        assert w.bit_length < 0.5 * 4000 * 5
        np.testing.assert_array_equal(codec.decode(BitReader(w.getvalue()), 4000), syms)

    def test_single_symbol_stream(self):
        syms = np.full(50, 3)
        codec = HuffmanCodec.fit(syms, alphabet_size=10)
        w = BitWriter()
        codec.encode(syms, w)
        assert w.bit_length == 50
        np.testing.assert_array_equal(codec.decode(BitReader(w.getvalue()), 50), syms)

    def test_encoded_bits_matches_stream(self, rng):
        syms = rng.integers(0, 12, 800)
        codec = HuffmanCodec.fit(syms)
        w = BitWriter()
        codec.encode(syms, w)
        assert codec.lengths[syms].sum() == w.bit_length

    def test_unknown_symbol_rejected(self):
        codec = HuffmanCodec.fit(np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError):
            codec.encode(np.array([2]), BitWriter())

    def test_negative_symbol_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCodec.fit(np.array([-1, 0]))

    def test_empty_encode_decode(self):
        codec = HuffmanCodec.fit(np.array([1, 1, 2]))
        w = BitWriter()
        codec.encode(np.zeros(0, dtype=np.int64), w)
        assert w.bit_length == 0
        assert codec.decode(BitReader(b""), 0).size == 0


class TestCodecSerialization:
    def test_codebook_round_trip(self, rng):
        """The one stored codebook format: sz3's present-symbol table."""
        from repro.compressors.sz3 import SZ3Compressor

        syms = rng.integers(0, 40, 1000)
        syms[::7] = 65536  # the outlier sentinel, the alphabet's last symbol
        w = BitWriter()
        payload = SZ3Compressor()._encode_codes(syms, w)
        r = BitReader(w.getvalue())
        restored = SZ3Compressor()._decode_codes(r, payload, syms.size, "huffman")
        np.testing.assert_array_equal(restored, syms)
