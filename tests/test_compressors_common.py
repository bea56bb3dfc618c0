"""Contract tests every compressor must satisfy (parametrized over all four).

These encode the two properties the ratio-controlled frameworks depend on:
the pointwise error bound and the monotonicity of ratio in error bound —
plus API hygiene (dtype/shape preservation, input validation).
"""

import numpy as np
import pytest

from repro.compressors import available_compressors, get_compressor

ALL = available_compressors()


@pytest.fixture(params=ALL)
def codec(request):
    return get_compressor(request.param)


def _plateau(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Constant background with a noisy patch: constant blocks, mixed bit
    widths and a degenerate histogram in one field."""
    x = np.full(shape, -1.5)
    flat = x.reshape(-1)
    n = flat.size
    flat[n // 3 : 2 * n // 3] += rng.standard_normal(2 * n // 3 - n // 3)
    return x


class TestErrorBound:
    @pytest.mark.parametrize("eb", [1e-6, 1e-4, 1e-2, 0.3, 0.5])
    def test_bound_holds_3d(self, codec, smooth3d, eb):
        out, _ = codec.roundtrip(smooth3d, eb)
        assert np.abs(out - smooth3d).max() <= eb * (1 + 1e-9)

    def test_bound_holds_2d(self, codec, smooth2d):
        out, _ = codec.roundtrip(smooth2d, 1e-2)
        assert np.abs(out - smooth2d).max() <= 1e-2 * (1 + 1e-9)

    def test_bound_holds_1d(self, codec, rough1d):
        out, _ = codec.roundtrip(rough1d, 5e-3)
        assert np.abs(out - rough1d).max() <= 5e-3 * (1 + 1e-9)

    def test_bound_on_rough_data(self, codec, rng):
        x = rng.standard_normal((17, 23))
        out, _ = codec.roundtrip(x, 1e-3)
        assert np.abs(out - x).max() <= 1e-3 * (1 + 1e-9)

    @pytest.mark.parametrize("shape", [(5,), (127,), (257,), (64, 3), (33, 18)])
    def test_bound_on_awkward_shapes(self, codec, rng, shape):
        """Less than one block, ragged tails, prime lengths, a 3-wide axis —
        on a plateau field and on a constant one."""
        for x in (_plateau(rng, shape), np.full(shape, 3.25)):
            out, _ = codec.roundtrip(x, 1e-3)
            assert out.shape == shape
            assert np.abs(out - x).max() <= 1e-3 * (1 + 1e-9)

    def test_bound_with_huge_values(self, codec, rng):
        x = 1e9 * np.cumsum(rng.standard_normal(500))
        out, _ = codec.roundtrip(x, 1e4)
        assert np.abs(out - x).max() <= 1e4 * (1 + 1e-9)

    def test_bound_with_tiny_values(self, codec, rng):
        x = 1e-9 * np.cumsum(rng.standard_normal(500))
        out, _ = codec.roundtrip(x, 1e-13)
        assert np.abs(out - x).max() <= 1e-13 * (1 + 1e-9)


class TestMonotonicity:
    def test_ratio_nondecreasing_in_eb(self, codec, smooth3d):
        ebs = np.geomspace(1e-5, 1.0, 8)
        ratios = [codec.compression_ratio(smooth3d, eb) for eb in ebs]
        diffs = np.diff(ratios)
        assert (diffs >= -1e-9 * np.abs(ratios[:-1])).all(), ratios

    def test_smooth_beats_noise(self, codec, rng):
        """A band-limited field must compress better than white noise."""
        t = np.linspace(0, 2 * np.pi, 24)
        xx, yy, zz = np.meshgrid(t, t, t, indexing="ij")
        smooth = np.sin(xx) * np.cos(yy) + 0.5 * np.sin(2 * zz)
        noise = rng.standard_normal(smooth.shape) * smooth.std()
        eb = 1e-3 * smooth.std()
        r_smooth = codec.compression_ratio(smooth, eb)
        r_noise = codec.compression_ratio(noise, eb)
        # The delta codecs (SZx, cuSZp) only exploit local value ranges, so
        # their edge on smooth data is slim; transform/prediction codecs
        # gain much more.
        factor = 1.05 if codec.name in ("szx", "cuszp") else 1.2
        assert r_smooth > factor * r_noise


class TestRoundTripMechanics:
    def test_shape_and_dtype_preserved(self, codec, rng):
        x = rng.standard_normal((9, 11)).astype(np.float32)
        x = np.cumsum(x, axis=0)
        out, res = codec.roundtrip(x, 1e-2)
        assert out.shape == x.shape
        assert out.dtype == np.float32
        assert res.original_bytes == x.nbytes

    def test_constant_array_compresses_hard(self, codec):
        x = np.full((32, 32), 4.25)
        out, res = codec.roundtrip(x, 1e-6)
        assert np.abs(out - x).max() <= 1e-6
        # ZFP still spends ~precision bits on each block's DC coefficient in
        # fixed-accuracy mode; the others collapse constants much harder.
        assert res.ratio > (8 if codec.name == "zfp" else 20)

    def test_all_zero_array(self, codec):
        x = np.zeros((20, 20, 4))
        out, res = codec.roundtrip(x, 1e-8)
        assert np.abs(out).max() <= 1e-8
        assert res.ratio > 20

    def test_result_repr_has_ratio(self, codec, smooth2d):
        res = codec.compress(smooth2d, 1e-2)
        assert "ratio=" in repr(res)
        assert res.compressor == codec.name

    def test_integer_input_promoted(self, codec):
        x = np.arange(256).reshape(16, 16)
        out, _ = codec.roundtrip(x, 0.5)
        assert np.abs(out - x).max() <= 0.5


class TestValidation:
    def test_nan_rejected(self, codec):
        x = np.ones((8, 8))
        x[3, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            codec.compress(x, 1e-3)

    def test_inf_rejected(self, codec):
        x = np.ones(64)
        x[10] = np.inf
        with pytest.raises(ValueError):
            codec.compress(x, 1e-3)

    def test_empty_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.compress(np.zeros(0), 1e-3)

    @pytest.mark.parametrize("eb", [0.0, -1.0, np.nan, np.inf])
    def test_bad_error_bound_rejected(self, codec, eb):
        with pytest.raises(ValueError):
            codec.compress(np.ones(100), eb)

    def test_complex_rejected(self, codec):
        with pytest.raises(TypeError):
            codec.compress(np.ones(16, dtype=complex), 1e-3)

    def test_cross_codec_decode_rejected(self, codec, smooth2d):
        other = [n for n in ALL if n != codec.name][0]
        res = get_compressor(other).compress(smooth2d, 1e-2)
        with pytest.raises(ValueError):
            codec.decompress(res)


class TestRegistry:
    def test_available_names(self):
        assert {"szx", "zfp", "sz3", "sperr"} <= set(ALL)
        assert "cuszp" in ALL  # the paper-referenced extension codec

    def test_paper_four_constant(self):
        from repro.compressors.registry import PAPER_COMPRESSORS

        assert PAPER_COMPRESSORS == ("szx", "zfp", "sz3", "sperr")

    def test_case_insensitive(self):
        assert get_compressor("SZ3").name == "sz3"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_compressor("not-a-codec")
