"""ZFP-specific behaviour: block partitioning, step-wise ratio function,
fixed-rate budgets."""

import dataclasses
import re

import numpy as np
import pytest

from repro.compressors.zfp import ZFPCompressor, _blockize, _unblockize


class TestBlockize:
    @pytest.mark.parametrize("shape", [(8,), (7,), (8, 12), (9, 10), (4, 8, 6), (5, 6, 7)])
    def test_round_trip(self, rng, shape):
        x = rng.standard_normal(shape)
        blocks, padded = _blockize(x)
        assert blocks.shape[1:] == (4,) * len(shape)
        back = _unblockize(blocks, padded, shape)
        np.testing.assert_array_equal(back, x)

    def test_padding_uses_edge_values(self):
        x = np.arange(6.0)
        blocks, padded = _blockize(x)
        assert padded == (8,)
        assert blocks[1, 2] == x[5] and blocks[1, 3] == x[5]


class TestStepwiseRatio:
    def test_many_ebs_same_ratio(self, smooth3d):
        """ZFP's compression function is a staircase: nearby error bounds
        hit the same number of bit planes (paper Section 6.2.1)."""
        codec = ZFPCompressor()
        ebs = np.geomspace(1e-3, 1e-2, 12)
        ratios = np.array([codec.compression_ratio(smooth3d, eb) for eb in ebs])
        assert np.unique(np.round(ratios, 6)).size < ratios.size

    def test_doubling_eb_changes_ratio(self, smooth3d):
        codec = ZFPCompressor()
        r1 = codec.compression_ratio(smooth3d, 1e-4)
        r2 = codec.compression_ratio(smooth3d, 1e-1)
        assert r2 > r1 * 1.3


class TestAccuracyMargin:
    def test_error_well_within_bound(self, smooth3d):
        """Guard bits keep the max error a factor below the bound."""
        codec = ZFPCompressor()
        out, _ = codec.roundtrip(smooth3d, 1e-2)
        assert np.abs(out - smooth3d).max() <= 1e-2 / 2

    def test_mixed_magnitude_blocks(self, rng):
        """Per-block exponents handle wildly different block scales."""
        x = rng.standard_normal((8, 8))
        x[:4] *= 1e8
        x[4:] *= 1e-8
        out, _ = ZFPCompressor().roundtrip(x, 1e-4)
        assert np.abs(out - x).max() <= 1e-4

    def test_negative_heavy_data(self, rng):
        x = -np.abs(np.cumsum(rng.standard_normal((16, 16)), axis=0)) - 5.0
        out, _ = ZFPCompressor().roundtrip(x, 1e-3)
        assert np.abs(out - x).max() <= 1e-3


class TestDimensionality:
    def test_rejects_4d(self):
        with pytest.raises(ValueError):
            ZFPCompressor().compress(np.zeros((2, 2, 2, 2)), 0.1)

    @pytest.mark.parametrize("shape", [(100,), (33, 17), (9, 13, 11)])
    def test_odd_shapes(self, rng, shape):
        x = np.cumsum(rng.standard_normal(shape), axis=0)
        out, _ = ZFPCompressor().roundtrip(x, 1e-3)
        assert out.shape == shape
        assert np.abs(out - x).max() <= 1e-3


class TestFixedRateBudget:
    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf"), 1e30])
    def test_unusable_rate_raises_naming_it(self, rate):
        """Non-finite rates, and ones whose per-block budget does not fit
        int64, are refused by name rather than overflowing."""
        with pytest.raises(ValueError, match=re.escape(repr(rate))):
            ZFPCompressor().compress_fixed_rate(np.ones((8, 8)), rate)

    def test_stream_with_unusable_rate_fails_to_decode(self, rng):
        codec = ZFPCompressor()
        res = codec.compress_fixed_rate(rng.standard_normal((8, 8)), 4.0)
        broken = dataclasses.replace(res, metadata={**res.metadata, "rate": float("inf")})
        with pytest.raises(ValueError, match="inf"):
            codec.decompress(broken)
