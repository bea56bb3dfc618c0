"""SZ3-specific behaviour: interpolation levels, outliers, Lorenzo mode."""

import numpy as np
import pytest

from repro.compressors.sz3 import (
    SZ3Compressor,
    _anchor_level,
    _interp_passes,
    _pass_subgrid,
    _predict,
)


class TestInterpolationTraversal:
    def test_anchor_level_bounds(self):
        assert _anchor_level((64, 64, 64)) == 5
        assert _anchor_level((1000,)) == 6  # capped
        assert _anchor_level((3, 3)) == 1

    def test_passes_cover_all_points(self):
        """Every non-anchor point is predicted exactly once."""
        shape = (13, 10)
        levels = _anchor_level(shape)
        stride = 1 << levels
        covered = np.zeros(shape, dtype=int)
        covered[::stride, ::stride] += 1  # anchors
        marker = np.zeros(shape)
        for axis, s, h in _interp_passes(shape, levels):
            sub = _pass_subgrid(marker, axis, s, h)
            if sub is None:
                continue
            assert _predict(sub, h, s).shape == sub[h::s].shape
            sub[h::s] += 1.0
        covered += marker.astype(int)
        np.testing.assert_array_equal(covered, np.ones(shape, dtype=int))

    @pytest.mark.parametrize("shape", [(9,), (17, 5), (6, 7, 8), (33, 31, 2)])
    def test_coverage_various_shapes(self, shape):
        levels = _anchor_level(shape)
        stride = 1 << levels
        marker = np.zeros(shape)
        marker[tuple(slice(0, None, stride) for _ in shape)] += 1
        for axis, s, h in _interp_passes(shape, levels):
            sub = _pass_subgrid(marker, axis, s, h)
            if sub is None:
                continue
            assert _predict(sub, h, s).shape == sub[h::s].shape
            sub[h::s] += 1.0
        np.testing.assert_array_equal(marker, np.ones(shape))


class TestInterpMode:
    def test_polynomial_data_nearly_free(self):
        """Cubic data is predicted exactly -> all-zero quantization codes."""
        x = np.linspace(0, 1, 65)
        data = np.outer(x**3 - x, x**2 + 1)
        codec = SZ3Compressor()
        out, res = codec.roundtrip(data, 1e-6)
        assert np.abs(out - data).max() <= 1e-6
        assert res.ratio > 15

    def test_outliers_stored_exactly(self, rng):
        """Spikes exceeding the quantization window survive exactly."""
        x = np.cumsum(rng.standard_normal(500)) * 1e-3
        x[123] += 1e6  # enormous spike -> outlier path
        out, _ = SZ3Compressor().roundtrip(x, 1e-6)
        assert np.abs(out - x).max() <= 1e-6

    def test_high_ratio_on_smooth(self, smooth3d):
        codec = SZ3Compressor()
        ratio = codec.compression_ratio(smooth3d, 0.1 * smooth3d.std())
        assert ratio > 10


class TestLorenzoMode:
    def test_round_trip(self, smooth3d):
        codec = SZ3Compressor(predictor="lorenzo")
        out, _ = codec.roundtrip(smooth3d, 1e-3)
        assert np.abs(out - smooth3d).max() <= 1e-3

    def test_linear_field_free(self):
        i, j = np.meshgrid(np.arange(32.0), np.arange(32.0), indexing="ij")
        data = 2 * i - 3 * j
        codec = SZ3Compressor(predictor="lorenzo")
        out, res = codec.roundtrip(data, 1e-3)
        assert np.abs(out - data).max() <= 1e-3
        assert res.ratio > 20

    def test_eb_too_small_rejected(self):
        codec = SZ3Compressor(predictor="lorenzo")
        with pytest.raises(ValueError):
            codec.compress(np.array([1e30, -1e30]), 1e-25)

    def test_eb_below_float_precision_rejected_by_name(self, rng):
        data = 1e9 * rng.standard_normal((40, 40))
        with pytest.raises(
            ValueError, match="^error bound too small relative to data magnitude$"
        ):
            SZ3Compressor(predictor="lorenzo").compress(data, 1e-12)

    def test_invalid_predictor(self):
        with pytest.raises(ValueError):
            SZ3Compressor(predictor="magic")


class TestEntropyBackend:
    def test_smoothness_reflected_in_size(self, rng):
        smooth = np.cumsum(np.cumsum(rng.standard_normal((48, 48)), 0), 1) / 20
        rough = rng.standard_normal((48, 48)) * smooth.std()
        codec = SZ3Compressor()
        eb = 1e-3 * smooth.std()
        assert codec.compression_ratio(smooth, eb) > 1.5 * codec.compression_ratio(rough, eb)

    def test_both_modes_bounded(self, smooth2d):
        for predictor in ("interp", "lorenzo"):
            out, _ = SZ3Compressor(predictor=predictor).roundtrip(smooth2d, 5e-3)
            assert np.abs(out - smooth2d).max() <= 5e-3

    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    @pytest.mark.parametrize("entropy", ["huffman", "range"])
    def test_every_variant_bounded_on_awkward_shapes(self, rng, predictor, entropy):
        codec = SZ3Compressor(predictor=predictor, entropy=entropy)
        for shape in [(5,), (257,), (64, 3), (33, 18)]:
            x = np.cumsum(rng.standard_normal(shape), axis=0) / 4
            out, _ = codec.roundtrip(x, 5e-3)
            assert np.abs(out - x).max() <= 5e-3 * (1 + 1e-9)

    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    @pytest.mark.parametrize("entropy", ["huffman", "range"])
    def test_stream_names_its_own_entropy_coder(self, smooth3d, predictor, entropy):
        """A default instance (what ``get_compressor("sz3")`` and the store
        reader build) decodes a stream written with either entropy coder,
        and so does an instance configured for the other one."""
        writer = SZ3Compressor(predictor=predictor, entropy=entropy)
        res = writer.compress(smooth3d, 1e-3)
        expected = writer.decompress(res)
        other = "range" if entropy == "huffman" else "huffman"
        for reader in (SZ3Compressor(), SZ3Compressor(entropy=other)):
            np.testing.assert_array_equal(reader.decompress(res), expected)

    def test_entropy_falls_back_to_the_instance_when_metadata_lacks_it(self, smooth2d):
        codec = SZ3Compressor(entropy="range")
        res = codec.compress(smooth2d, 1e-3)
        del res.metadata["entropy"]
        np.testing.assert_array_equal(
            codec.decompress(res), SZ3Compressor().decompress(codec.compress(smooth2d, 1e-3))
        )

    def test_unknown_entropy_in_metadata_rejected_by_name(self, smooth2d):
        res = SZ3Compressor().compress(smooth2d, 1e-3)
        res.metadata["entropy"] = "ans"
        with pytest.raises(ValueError, match="'ans'"):
            SZ3Compressor().decompress(res)
