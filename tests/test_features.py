"""Feature extraction: definitions, serial/parallel agreement, GPU model."""

import numpy as np
import pytest

from repro.features import (
    FEATURE_NAMES,
    extract_features_parallel,
    extract_features_serial,
    feature_vector,
    mean_lorenzo_difference,
    mean_neighbor_difference,
    mean_spline_difference,
)
from repro.features.gpu_model import GpuCostModel


class TestDefinitions:
    def test_feature_vector_layout(self, smooth3d):
        feats = feature_vector(smooth3d)
        assert feats.shape == (len(FEATURE_NAMES),)
        assert feats[0] == pytest.approx(smooth3d.mean())
        assert feats[1] == pytest.approx(smooth3d.max() - smooth3d.min())

    def test_constant_field_all_smoothness_zero(self):
        x = np.full((10, 10, 10), 3.0)
        feats = feature_vector(x)
        assert feats[2] == pytest.approx(0.0, abs=1e-12)  # MND
        assert feats[3] == pytest.approx(0.0, abs=1e-12)  # MLD
        assert feats[4] == pytest.approx(0.0, abs=1e-12)  # MSD

    def test_mnd_interior_value(self):
        x = np.zeros((5, 5))
        x[2, 2] = 6.0
        # at (2,2): neighbours are all 0 -> |6 - 0| = 6 contributes
        assert mean_neighbor_difference(x) > 0

    def test_smoothness_features_ordering(self, rng):
        smooth = np.cumsum(np.cumsum(rng.standard_normal((32, 32)), 0), 1)
        smooth /= smooth.std()
        rough = rng.standard_normal((32, 32))
        for fn in (mean_neighbor_difference, mean_lorenzo_difference, mean_spline_difference):
            assert fn(smooth) < fn(rough)

    def test_scale_equivariance(self, smooth2d):
        """All five features scale linearly with the data amplitude."""
        a = feature_vector(smooth2d)
        b = feature_vector(smooth2d * 10.0)
        np.testing.assert_allclose(b, a * 10.0, rtol=1e-9)


class TestSerial:
    def test_full_vs_sampled_close(self, rng):
        x = np.cumsum(np.cumsum(rng.standard_normal((64, 64)), 0), 1) / 20
        full, _ = extract_features_serial(x, stride=None)
        samp, _ = extract_features_serial(x, stride=4)
        assert np.isfinite(samp).all()
        # sampled smoothness features stay within an order of magnitude
        # (stride-4 subsampling coarsens the stencil, inflating them)
        for i in (2, 3, 4):
            assert 0.1 * full[i] < samp[i] < 10 * full[i]

    def test_sampled_faster_on_large(self, rng):
        x = rng.standard_normal((96, 96, 32))
        _, t_full = extract_features_serial(x, stride=None)
        _, t_samp = extract_features_serial(x, stride=4)
        assert t_samp < t_full

    def test_returns_elapsed(self, smooth2d):
        feats, t = extract_features_serial(smooth2d)
        assert feats.shape == (5,)
        assert t >= 0


class TestParallel:
    def test_agrees_with_serial_on_smooth(self, rng):
        x = np.cumsum(np.cumsum(np.cumsum(rng.standard_normal((64, 64, 64)), 0), 1), 2)
        x /= np.abs(x).max()
        full, _ = extract_features_serial(x, stride=None)
        par, _ = extract_features_parallel(x)
        # The smoothness features (what drives compressibility) track the
        # full computation; mean/range of a 1.5% sample of a nonstationary
        # field legitimately differ, like the paper's GPU kernel.
        assert np.isfinite(par).all()
        for i in (2, 3, 4):
            assert 0.3 * full[i] < par[i] < 3.0 * full[i]

    def test_small_array_fallback(self, rng):
        x = rng.standard_normal((6, 6))
        feats, _ = extract_features_parallel(x)
        assert np.isfinite(feats).all()

    def test_1d_input(self, rng):
        x = np.cumsum(rng.standard_normal(500))
        feats, _ = extract_features_parallel(x)
        assert feats.shape == (5,)
        assert np.isfinite(feats).all()

    def test_deterministic(self, smooth3d):
        a, _ = extract_features_parallel(smooth3d)
        b, _ = extract_features_parallel(smooth3d)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("value", [5.0, -3.0, 0.0])
    @pytest.mark.parametrize(
        "shape",
        [
            (1,),
            (2,),
            (1, 1),
            (2, 2),
            (1, 40),
            (40, 2),
            (1, 1, 1),
            (2, 2, 2),
            (2, 40, 40),
            (40, 1, 40),
            (40, 40, 2),
            (300, 2, 300),
        ],
        ids=str,
    )
    def test_thin_constant_field_has_zero_smoothness(self, shape, value):
        """An axis of length 1 or 2 leaves the sampled blocks no interior to
        keep; a constant field is still perfectly smooth, as the serial
        extractor says."""
        feats, _ = extract_features_parallel(np.full(shape, value))
        assert feats.tolist() == [value, 0.0, 0.0, 0.0, 0.0]
        serial, _ = extract_features_serial(np.full(shape, value), stride=None)
        if np.prod(shape) > 1:  # a lone point's serial MND / MLD compare it with zero
            assert serial[2:].tolist() == [0.0, 0.0, 0.0]


class TestGpuModel:
    def test_sampled_bytes_fraction(self):
        model = GpuCostModel()
        nbytes = model.sampled_bytes((512, 512, 512), itemsize=4)
        total = 512**3 * 4
        assert 0.01 * total < nbytes < 0.05 * total  # ~1.5% like the paper

    def test_kernel_time_order_of_magnitude(self):
        """Paper Fig. 6: ~5 ms on the 512MB NYX field."""
        t = GpuCostModel().kernel_time((512, 512, 512), itemsize=4)
        assert 1e-3 < t < 2e-2

    def test_monotone_in_size(self):
        m = GpuCostModel()
        assert m.kernel_time((256,) * 3) <= m.kernel_time((512,) * 3)

    def test_small_array_dominated_by_overhead(self):
        m = GpuCostModel()
        t = m.kernel_time((32, 32, 32))
        assert t == pytest.approx(m.launch_overhead_s, rel=0.5)
