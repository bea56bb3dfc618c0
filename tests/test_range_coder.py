"""Range coder unit + property tests, and the SZ3 entropy-backend option."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.sz3 import SZ3Compressor
from repro.encoding.range_coder import (
    RangeEncoder,
    _quantized_freqs,
    range_decode,
    range_encode,
)


class TestQuantizedFreqs:
    def test_passthrough_small_totals(self):
        f = np.array([3, 0, 7])
        np.testing.assert_array_equal(_quantized_freqs(f), f)

    def test_rescales_large_totals(self):
        f = np.array([10**9, 1])
        q = _quantized_freqs(f)
        assert q.sum() < (1 << 16)
        assert q[1] >= 1  # present symbols never vanish

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _quantized_freqs(np.array([-1, 2]))

    def test_rejects_empty_model(self):
        with pytest.raises(ValueError):
            _quantized_freqs(np.zeros(4, dtype=int))


class TestRoundTrip:
    @pytest.mark.parametrize("alphabet", [2, 16, 300])
    def test_random_streams(self, rng, alphabet):
        syms = rng.integers(0, alphabet, 3000)
        payload, freq = range_encode(syms, alphabet_size=alphabet)
        np.testing.assert_array_equal(range_decode(payload, freq, syms.size), syms)

    def test_near_entropy_on_skewed(self, rng):
        syms = np.where(rng.random(20000) < 0.95, 3, rng.integers(0, 64, 20000))
        payload, freq = range_encode(syms)
        p = np.bincount(syms) / syms.size
        p = p[p > 0]
        entropy = -(p * np.log2(p)).sum()
        bits_per_sym = len(payload) * 8 / syms.size
        # order-0 optimal to within a few hundredths of a bit
        assert bits_per_sym <= entropy + 0.05

    def test_beats_huffman_floor_on_heavy_skew(self, rng):
        """Huffman pays >= 1 bit/symbol; the range coder doesn't."""
        syms = np.where(rng.random(10000) < 0.98, 0, 1)
        payload, freq = range_encode(syms)
        assert len(payload) * 8 / syms.size < 0.5

    def test_empty_stream(self):
        payload, freq = range_encode(np.zeros(0, dtype=np.int64), alphabet_size=4)
        assert payload == b""
        assert range_decode(payload, freq, 0).size == 0

    def test_zero_frequency_symbol_rejected(self):
        enc = RangeEncoder(np.array([5, 0, 5]))
        with pytest.raises(ValueError):
            enc.encode(np.array([1]))

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_property_round_trip(self, stream):
        syms = np.array(stream, dtype=np.int64)
        payload, freq = range_encode(syms)
        np.testing.assert_array_equal(range_decode(payload, freq, syms.size), syms)


class TestSZ3EntropyBackends:
    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            SZ3Compressor(entropy="zstd")

    @pytest.mark.parametrize("entropy", ["huffman", "range"])
    def test_round_trip_all_combinations(self, smooth2d, entropy):
        codec = SZ3Compressor(entropy=entropy)
        out, res = codec.roundtrip(smooth2d, 1e-3)
        assert np.abs(out - smooth2d).max() <= 1e-3
        assert res.metadata["entropy"] == entropy

    def test_backends_comparable_size(self, smooth3d):
        """Neither backend should be wildly worse — they trade LZ run
        capture (huffman+lz) against sub-bit coding (range)."""
        eb = 1e-2 * smooth3d.std()
        r_h = SZ3Compressor(entropy="huffman").compression_ratio(smooth3d, eb)
        r_r = SZ3Compressor(entropy="range").compression_ratio(smooth3d, eb)
        assert 0.5 < r_h / r_r < 2.0
