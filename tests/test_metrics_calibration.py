"""Estimation-error metric and calibration tests."""

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.core.calibration import Calibrator
from repro.core.metrics import estimation_error, signed_estimation_errors
from repro.data import load_field


class TestMetrics:
    def test_alpha_zero_for_exact(self):
        t = np.array([2.0, 5.0, 10.0])
        assert estimation_error(t, t) == 0.0

    def test_alpha_matches_paper_formula(self):
        true = np.array([10.0, 20.0])
        est = np.array([11.0, 16.0])
        # alpha_i = 100*|est-true|/true = [10, 20] -> mean 15
        assert estimation_error(true, est) == pytest.approx(15.0)

    def test_signed_errors_direction(self):
        s = signed_estimation_errors([10.0], [12.0])
        assert s[0] == pytest.approx(20.0)
        s = signed_estimation_errors([10.0], [8.0])
        assert s[0] == pytest.approx(-20.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            estimation_error([1.0, 2.0], [1.0])

    def test_nonpositive_true_rejected(self):
        with pytest.raises(ValueError):
            estimation_error([0.0], [1.0])


class _ConstantRatio:
    """A compressor stand-in whose true ratio is 100 at every bound."""

    name = "constant"

    def compression_ratio(self, data, error_bound):
        return 100.0


def _calibrated(estimate: float) -> tuple[np.ndarray, bool]:
    ebs = np.geomspace(1e-3, 1e-1, 5)
    cal, info = Calibrator(n_points=3).calibrate_curve(
        np.zeros(8), ebs, np.full(ebs.size, estimate), _ConstantRatio()
    )
    return cal, info.overestimating


class TestCorrectionFormulas:
    def test_overestimation_shrinks(self):
        """Eq. (3): a curve 20 % over the truth shrinks onto it."""
        cal, over = _calibrated(120.0)
        assert over
        np.testing.assert_allclose(cal, 100.0)

    def test_underestimation_grows(self):
        """Eq. (4): a curve 20 % under the truth grows onto it."""
        cal, over = _calibrated(80.0)
        assert not over
        np.testing.assert_allclose(cal, 100.0)

    def test_signed_interpolated_correction_is_exact_at_points(self):
        """f_cal = f_secre/(1 + alpha/100) recovers truth exactly where
        alpha is known exactly."""
        true = np.array([10.0, 50.0])
        est = np.array([13.0, 40.0])
        alpha = signed_estimation_errors(true, est)
        cal = est / (1.0 + alpha / 100.0)
        np.testing.assert_allclose(cal, true)


class TestCalibrator:
    @pytest.fixture(scope="class")
    def setup(self):
        field = load_field("miranda/density", shape=(20, 24, 24))
        codec = get_compressor("sperr")
        ebs = np.geomspace(1e-3, 1e-1, 8) * field.value_range
        true = np.array([codec.compression_ratio(field.data, eb) for eb in ebs])
        return field, codec, ebs, true

    def test_point_selection_includes_endpoints(self):
        pts = Calibrator._select_points(10, 4)
        assert pts[0] == 0 and pts[-1] == 9
        assert pts.size == 4

    def test_point_selection_clamps_to_grid(self):
        assert Calibrator._select_points(3, 5).size == 3

    def test_calibration_reduces_error(self, setup):
        field, codec, ebs, true = setup
        # Synthetic surrogate: truth distorted by a smooth one-sided bias.
        est = true * (1.25 + 0.1 * np.sin(np.linspace(0, 3, ebs.size)))
        before = estimation_error(true, est)
        cal, info = Calibrator(n_points=4).calibrate_curve(field.data, ebs, est, codec)
        after = estimation_error(true, cal)
        assert after < before / 2
        assert info.overestimating
        assert info.n_points == 4

    def test_more_points_more_accurate(self, setup):
        field, codec, ebs, true = setup
        est = true * (1.0 + 0.4 * np.linspace(0, 1, ebs.size) ** 2)
        errs = []
        for k in (2, 4, 8):
            cal, _ = Calibrator(n_points=k).calibrate_curve(field.data, ebs, est, codec)
            errs.append(estimation_error(true, cal))
        assert errs[-1] <= errs[0] + 1e-9

    def test_underestimation_detected(self, setup):
        field, codec, ebs, true = setup
        est = true * 0.7
        _, info = Calibrator(n_points=3).calibrate_curve(field.data, ebs, est, codec)
        assert not info.overestimating

    def test_real_surrogate_calibration(self, setup):
        """End to end with the actual SPERR surrogate (the paper's Table 5)."""
        from repro.surrogate import get_surrogate

        field, codec, ebs, true = setup
        est, _ = get_surrogate("sperr").estimate_curve(field.data, ebs)
        before = estimation_error(true, est)
        cal, info = Calibrator(n_points=4).calibrate_curve(field.data, ebs, est, codec)
        after = estimation_error(true, cal)
        assert after < before
        assert after < 10.0
        assert info.compressor_seconds > 0

    def test_validation(self, setup):
        field, codec, ebs, true = setup
        with pytest.raises(ValueError):
            Calibrator(n_points=1)
        with pytest.raises(ValueError):
            Calibrator().calibrate_curve(field.data, ebs[:1], true[:1], codec)
        with pytest.raises(ValueError):
            Calibrator().calibrate_curve(field.data, ebs[::-1], true, codec)
