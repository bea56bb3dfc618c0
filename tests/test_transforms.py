"""Unit tests for predictors and the ZFP block transform."""

import numpy as np
import pytest

from repro.transforms.lorenzo import lorenzo_predict
from repro.transforms.spline import spline_predict_axis
from repro.transforms.zfp_transform import (
    coefficient_order,
    zfp_block_forward,
    zfp_block_inverse,
)


class TestLorenzo:
    def test_1d_is_previous_value(self, rng):
        x = rng.standard_normal(20)
        pred = lorenzo_predict(x)
        assert pred[0] == 0.0
        np.testing.assert_allclose(pred[1:], x[:-1])

    def test_2d_formula(self, rng):
        x = rng.standard_normal((6, 7))
        pred = lorenzo_predict(x)
        # interior point: d[i-1,j] + d[i,j-1] - d[i-1,j-1]
        i, j = 3, 4
        assert pred[i, j] == pytest.approx(x[i - 1, j] + x[i, j - 1] - x[i - 1, j - 1])

    def test_3d_formula_matches_paper_eq6(self, rng):
        d = rng.standard_normal((5, 5, 5))
        pred = lorenzo_predict(d)
        i, j, k = 2, 3, 2
        expected = (
            d[i - 1, j, k] + d[i, j - 1, k] + d[i, j, k - 1] + d[i - 1, j - 1, k - 1]
            - d[i - 1, j - 1, k] - d[i - 1, j, k - 1] - d[i, j - 1, k - 1]
        )
        assert pred[i, j, k] == pytest.approx(expected)

    def test_exact_on_multilinear_field(self):
        """The Lorenzo predictor reproduces any multilinear surface exactly."""
        i, j, k = np.meshgrid(*[np.arange(1, 7)] * 3, indexing="ij")
        field = 2.0 * i + 3.0 * j - k + 0.5 * i * j + 0.25 * j * k + i * k
        field = field.astype(float)
        res = field - lorenzo_predict(field)
        interior = res[1:, 1:, 1:]
        np.testing.assert_allclose(interior, 0.0, atol=1e-9)

    def test_rejects_5d(self):
        with pytest.raises(ValueError):
            lorenzo_predict(np.zeros((2,) * 5))

    def test_residual_of_constant_interior_zero(self):
        x = np.full((8, 8), 3.5)
        res = x - lorenzo_predict(x)
        np.testing.assert_allclose(res[1:, 1:], 0.0, atol=1e-12)


class TestSpline:
    def test_interior_matches_paper_eq7(self, rng):
        d = rng.standard_normal(30)
        pred = spline_predict_axis(d, 0)
        i = 10
        expected = (-d[i - 3] + 9 * d[i - 1] + 9 * d[i + 1] - d[i + 3]) / 16.0
        assert pred[i] == pytest.approx(expected)

    def test_exact_on_cubic(self):
        """The 4-point stencil reproduces cubics exactly in the interior."""
        x = np.arange(40, dtype=float)
        d = 0.5 * x**3 - 2 * x**2 + x - 7
        pred = spline_predict_axis(d, 0)
        np.testing.assert_allclose(pred[3:-3], d[3:-3], rtol=1e-10)

    def test_boundary_linear_fallback(self, rng):
        d = rng.standard_normal(12)
        pred = spline_predict_axis(d, 0)
        assert pred[1] == pytest.approx(0.5 * (d[0] + d[2]))
        assert pred[0] == pytest.approx(d[1])
        assert pred[-1] == pytest.approx(d[-2])

    def test_multi_axis(self, rng):
        d = rng.standard_normal((10, 12, 14))
        for axis in range(3):
            pred = spline_predict_axis(d, axis)
            assert pred.shape == d.shape

    def test_single_element_axis(self):
        d = np.ones((1, 5))
        pred = spline_predict_axis(d, 0)
        np.testing.assert_allclose(pred, d)

    def test_residuals_nonnegative(self, smooth2d):
        res = sum(np.abs(smooth2d - spline_predict_axis(smooth2d, a)) for a in range(2))
        assert (res >= 0).all()
        # smooth data -> small residuals relative to the value scale
        assert res.mean() < 0.5 * np.abs(smooth2d).mean() + 1e-12


class TestZfpTransform:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_inverse_exact(self, rng, d):
        blocks = rng.standard_normal((7,) + (4,) * d)
        back = zfp_block_inverse(zfp_block_forward(blocks))
        np.testing.assert_allclose(back, blocks, atol=1e-12)

    def test_constant_block_single_dc(self):
        blocks = np.full((1, 4, 4), 2.5)
        coefs = zfp_block_forward(blocks)
        assert coefs[0, 0, 0] == pytest.approx(2.5)
        others = coefs.ravel()[1:]
        np.testing.assert_allclose(others, 0.0, atol=1e-12)

    def test_linear_ramp_decorrelates(self):
        """Linear data concentrates into the two lowest-degree modes."""
        block = np.tile(np.arange(4.0), (1, 4, 1)).reshape(1, 4, 4)
        coefs = np.abs(zfp_block_forward(block)).ravel()
        order = coefficient_order(2)
        head = coefs[order][:3].sum()
        assert head >= 0.99 * coefs.sum()

    def test_coefficient_order_degree_sorted(self):
        order = coefficient_order(3)
        degree = np.add.outer(
            np.add.outer(np.arange(4), np.arange(4)), np.arange(4)
        ).ravel()
        sorted_degrees = degree[order]
        assert (np.diff(sorted_degrees) >= 0).all()
        assert order.size == 64

    def test_order_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            coefficient_order(0)
        with pytest.raises(ValueError):
            coefficient_order(4)
