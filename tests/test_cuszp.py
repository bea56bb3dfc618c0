"""cuSZp-specific behaviour: pre-quantization, block deltas, zero blocks."""

import numpy as np
import pytest

from repro.compressors.cuszp import CuSZpCompressor


class TestZeroBlocks:
    def test_constant_collapses_to_flags(self):
        x = np.full(320, 7.5)
        codec = CuSZpCompressor()
        out, res = codec.roundtrip(x, 1e-6)
        assert np.abs(out - x).max() <= 1e-6
        # one flag bit + one absolute code per 32-value block
        assert res.compressed_bytes < 140

    def test_linear_ramp_small_deltas(self):
        """A linear ramp quantizes to constant deltas -> 1-2 bit widths."""
        x = np.linspace(0.0, 10.0, 3200)
        codec = CuSZpCompressor()
        out, res = codec.roundtrip(x, 1e-3)
        assert np.abs(out - x).max() <= 1e-3
        assert res.ratio > 8


class TestDeltaCorrectness:
    def test_alternating_signs(self):
        x = np.tile([1.0, -1.0], 100)
        out, _ = CuSZpCompressor().roundtrip(x, 1e-4)
        assert np.abs(out - x).max() <= 1e-4

    def test_block_boundaries_independent(self, rng):
        """Each block's first code is absolute, so blocks decode alone."""
        x = np.concatenate([np.zeros(32), 1e6 * np.ones(32), np.zeros(32)])
        out, _ = CuSZpCompressor().roundtrip(x, 1e-3)
        assert np.abs(out - x).max() <= 1e-3

    def test_non_multiple_length(self, rng):
        x = np.cumsum(rng.standard_normal(101))
        out, _ = CuSZpCompressor().roundtrip(x, 1e-3)
        assert out.shape == x.shape
        assert np.abs(out - x).max() <= 1e-3

    def test_multidimensional(self, smooth3d):
        out, _ = CuSZpCompressor().roundtrip(smooth3d, 1e-3)
        assert out.shape == smooth3d.shape
        assert np.abs(out - smooth3d).max() <= 1e-3


class TestLimits:
    def test_eb_too_small_for_magnitude(self):
        with pytest.raises(ValueError):
            CuSZpCompressor().compress(np.array([1e30, -1e30]), 1e-25)

    def test_throughput_class(self, rng):
        """cuSZp belongs with SZx in the high-throughput class: it must be
        far faster than the high-ratio codecs on the same input."""
        from repro.compressors import get_compressor

        x = np.cumsum(rng.standard_normal((40, 48, 48)), axis=0)
        # best of three: the first call pays cold caches, which on a busy
        # two-core host is enough to blur a 6x gap below the 3x line
        t_cuszp, t_sperr = (
            min(get_compressor(name).compress(x, 1e-2).elapsed for _ in range(3))
            for name in ("cuszp", "sperr")
        )
        assert t_cuszp < t_sperr / 3
