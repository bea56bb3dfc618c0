"""SECRE surrogate estimators: accuracy structure and speed contracts."""

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.core.metrics import estimation_error
from repro.data import load_field
from repro.surrogate import get_surrogate
from repro.surrogate.registry import _REGISTRY

SHAPE = (24, 32, 32)


@pytest.fixture(scope="module")
def field():
    return load_field("miranda/viscosity", shape=SHAPE)


@pytest.fixture(scope="module")
def ebs(field):
    return np.geomspace(1e-3, 1e-1, 6) * field.value_range


class TestRegistry:
    def test_all_compressors_covered(self):
        from repro.compressors import available_compressors

        assert set(_REGISTRY) == set(available_compressors())

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_surrogate("nope")

    def test_names_match(self):
        for name in _REGISTRY:
            assert get_surrogate(name).compressor_name == name


class TestEstimates:
    @pytest.mark.parametrize("name", ["szx", "zfp", "sz3", "sperr"])
    def test_positive_and_monotone_trend(self, field, ebs, name):
        est, elapsed = get_surrogate(name).estimate_curve(field.data, ebs)
        assert (est > 0).all()
        assert elapsed >= 0
        # overall trend must rise (allow local steps/noise)
        assert est[-1] > est[0]

    @pytest.mark.parametrize("name", ["szx", "zfp"])
    def test_high_throughput_surrogates_accurate(self, field, ebs, name):
        """Paper: SZx/ZFP surrogate errors are small (<~5% here, <1% at
        paper-scale data) because the surrogate is the real coder on a
        sample."""
        codec = get_compressor(name)
        true = np.array([codec.compression_ratio(field.data, eb) for eb in ebs])
        est, _ = get_surrogate(name).estimate_curve(field.data, ebs)
        assert estimation_error(true, est) < 8.0

    @pytest.mark.parametrize("name", ["sz3", "sperr"])
    def test_high_ratio_surrogates_biased(self, field, ebs, name):
        """Paper: SZ3/SPERR surrogates skip stages and carry larger error —
        which is exactly what calibration exists to fix."""
        codec = get_compressor(name)
        true = np.array([codec.compression_ratio(field.data, eb) for eb in ebs])
        est, _ = get_surrogate(name).estimate_curve(field.data, ebs)
        alpha = estimation_error(true, est)
        assert alpha > 2.0  # visibly biased...
        assert alpha < 150.0  # ...but in the right ballpark

    def test_single_ratio_matches_curve(self, field):
        """A one-point curve is that point of a longer curve."""
        sur = get_surrogate("szx")
        eb = 0.01 * field.value_range
        one, _ = sur.estimate_curve(field.data, [eb])
        curve, _ = sur.estimate_curve(field.data, [eb / 2, eb, 2 * eb])
        assert one[0] == pytest.approx(curve[1])


class TestSpeed:
    @pytest.mark.parametrize("name", ["sz3", "sperr"])
    def test_much_faster_than_full_compressor(self, field, ebs, name):
        import time

        codec = get_compressor(name)
        t0 = time.perf_counter()
        for eb in ebs:
            codec.compression_ratio(field.data, eb)
        t_full = time.perf_counter() - t0
        _, t_est = get_surrogate(name).estimate_curve(field.data, ebs)
        assert t_est < t_full / 3


class TestValidation:
    def test_nan_rejected(self):
        sur = get_surrogate("szx")
        bad = np.ones((8, 8))
        with pytest.raises(Exception):
            sur.estimate_curve(bad * np.nan, [0.1])

    def test_empty_grid_rejected(self, field):
        with pytest.raises(ValueError):
            get_surrogate("zfp").estimate_curve(field.data, [])

    def test_bad_eb_rejected(self, field):
        with pytest.raises(ValueError):
            get_surrogate("sperr").estimate_curve(field.data, [0.0])

    def test_sz3_stride_validation(self):
        from repro.surrogate.sz3_surrogate import SZ3Surrogate

        with pytest.raises(ValueError):
            SZ3Surrogate(stride=1)
