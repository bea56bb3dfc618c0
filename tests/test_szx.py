"""SZx-specific behaviour: constant blocks, bit-width grouping."""

import numpy as np
import pytest

from repro.compressors.base import LossyCompressor
from repro.compressors.szx import SZXCompressor


class TestConstantBlocks:
    def test_piecewise_constant_collapses(self):
        x = np.repeat(np.array([1.0, 5.0, -2.0, 8.0]), 128)
        codec = SZXCompressor()
        out, res = codec.roundtrip(x, 1e-9)
        np.testing.assert_allclose(out, x, atol=1e-9)
        # 4 constant blocks -> a handful of floats instead of 512 values.
        assert res.compressed_bytes < 100

    def test_near_constant_within_eb(self):
        x = 3.0 + 1e-4 * np.sin(np.arange(256))
        codec = SZXCompressor()
        out, res = codec.roundtrip(x, 1e-3)
        assert np.abs(out - x).max() <= 1e-3
        assert res.compressed_bytes < 80

    def test_mixed_constant_and_varying(self, rng):
        x = np.concatenate([np.zeros(128), np.cumsum(rng.standard_normal(128))])
        codec = SZXCompressor()
        out, _ = codec.roundtrip(x, 1e-4)
        assert np.abs(out - x).max() <= 1e-4


class TestBitWidths:
    def test_width_shrinks_with_eb(self, rough1d):
        codec = SZXCompressor()
        sizes = [
            codec.compress(rough1d, eb).compressed_bytes
            for eb in (1e-6, 1e-3, 1e-1)
        ]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_eb_sensitivity_stepwise(self, rough1d):
        """SZx's ratio jumps when the per-block width crosses a power of 2."""
        codec = SZXCompressor()
        ebs = np.geomspace(1e-4, 1e-1, 40)
        ratios = np.array([codec.compression_ratio(rough1d, eb) for eb in ebs])
        rel_steps = np.diff(ratios) / ratios[:-1]
        assert rel_steps.max() > 0.02  # visible jumps, not a smooth curve


class TestBlockSize:
    def test_custom_block_size(self, rng):
        x = np.cumsum(rng.standard_normal(1000))
        codec = SZXCompressor(block_size=64)
        out, _ = codec.roundtrip(x, 1e-3)
        assert np.abs(out - x).max() <= 1e-3

    def test_non_multiple_length(self, rng):
        x = np.cumsum(rng.standard_normal(333))
        out, _ = SZXCompressor().roundtrip(x, 1e-3)
        assert out.shape == x.shape
        assert np.abs(out - x).max() <= 1e-3

    def test_tiny_input(self):
        x = np.array([1.0, 2.0, 3.0])
        out, _ = SZXCompressor().roundtrip(x, 1e-6)
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            SZXCompressor(block_size=1)


class TestClosedFormSizer:
    """``sizer(x)(eb)`` is the compressed size without the bits — equal to
    the real compressor's, not an estimate of it."""

    @staticmethod
    def _inputs(rng):
        walk = np.cumsum(rng.standard_normal(1009))  # prime: padded tail block
        smooth = np.cumsum(np.cumsum(rng.standard_normal((37, 41)), 0), 1)
        cube = rng.standard_normal((9, 10, 11)) * np.linspace(1e-3, 1e3, 11)
        mixed = np.concatenate([np.full(300, 2.5), walk[:212], np.zeros(128)])
        cases = {
            "constant": np.full(500, -7.25),
            "one-element": np.array([3.5]),
            "prime-1d": walk,
            "2d": smooth,
            "3d": cube,
            "mixed-const": mixed,
            "powers-of-two": np.tile(2.0 ** np.arange(16), 16),
            "ints": np.arange(777) % 29,
        }
        for name, x in cases.items():
            yield name, x
            if x.dtype == np.float64:
                yield name + "/f32", x.astype(np.float32)

    def test_matches_compress_exactly(self, property_rng):
        codecs = (SZXCompressor(), SZXCompressor(block_size=48))
        for name, x in self._inputs(property_rng):
            vrange = float(np.ptp(x)) or 1.0
            ebs = np.concatenate(
                [
                    # from 50-bit codes (the width field holds up to 63)
                    # to every block constant
                    vrange * np.geomspace(1e-15, 1e3, 28),
                    vrange * property_rng.uniform(1e-4, 0.6, 12),
                    # exact halves of the spread: the constant-block edge
                    [0.5 * vrange, np.nextafter(0.5 * vrange, 0.0), 1e300],
                ]
            )
            for codec in codecs:
                size = codec.sizer(x)
                assert size.result is None
                for eb in ebs:
                    real = codec.compress(x, float(eb)).compressed_bytes
                    assert size(float(eb)) == real, (name, codec.block_size, eb)

    def test_default_sizer_is_the_real_compressor(self, rough1d):
        codec = SZXCompressor()
        size = LossyCompressor.sizer(codec, rough1d)
        assert size(1e-3) == codec.compress(rough1d, 1e-3).compressed_bytes
        assert size.result.payload == codec.compress(rough1d, 1e-3).payload

    def test_validation_is_kept(self):
        codec = SZXCompressor()
        for bad in (np.array([1.0, np.nan]), np.array([np.inf, 0.0])):
            with pytest.raises(ValueError, match="NaN or Inf"):
                codec.sizer(bad)
        with pytest.raises(TypeError):
            codec.sizer(np.array([1 + 2j]))
        with pytest.raises(ValueError):
            codec.sizer(np.empty(0))
        size = codec.sizer(np.arange(10.0))
        for eb in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="error_bound"):
                size(eb)
