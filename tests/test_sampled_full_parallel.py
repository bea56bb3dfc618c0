"""Generic sampled-full surrogate."""

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.core.metrics import estimation_error
from repro.data import load_field
from repro.surrogate.sampled_full import SampledFullSurrogate

SHAPE = (16, 20, 20)
REL = np.geomspace(1e-3, 1e-1, 5)


class TestSampledFullSurrogate:
    @pytest.mark.parametrize(
        "codec,window",
        [("szx", "block"), ("sz3", "point"), ("sperr", "chunk"), ("zfp", "block")],
    )
    def test_window_matched_estimates(self, codec, window):
        """Compressor Behavior 3: window-matched full-on-sample estimation
        works for any registered codec."""
        field = load_field("miranda/viscosity", shape=(20, 28, 28))
        ebs = REL * field.value_range
        true = np.array(
            [get_compressor(codec).compression_ratio(field.data, eb) for eb in ebs]
        )
        sur = SampledFullSurrogate(codec, window=window, fraction=0.15)
        est, elapsed = sur.estimate_curve(field.data, ebs)
        assert elapsed >= 0
        # real coder on a sample: decent accuracy without a tailored surrogate
        assert estimation_error(true, est) < 60.0

    def test_point_window_preserves_dimensionality(self):
        field = load_field("miranda/density", shape=SHAPE)
        sur = SampledFullSurrogate("sz3", window="point", fraction=0.1)
        sample = sur._sample(field.data.astype(np.float64))
        assert sample.ndim == 3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SampledFullSurrogate("szx", window="stars")
        with pytest.raises(ValueError):
            SampledFullSurrogate("szx", fraction=0.0)
        with pytest.raises(KeyError):
            SampledFullSurrogate("rar")

    def test_calibration_composes(self):
        """The conclusion's recipe: sampled-full estimate + calibration."""
        from repro.core.calibration import Calibrator

        field = load_field("miranda/viscosity", shape=(20, 28, 28))
        codec = get_compressor("sz3")
        ebs = REL * field.value_range
        true = np.array([codec.compression_ratio(field.data, eb) for eb in ebs])
        est, _ = SampledFullSurrogate("sz3", window="point", fraction=0.1).estimate_curve(
            field.data, ebs
        )
        cal, _ = Calibrator(n_points=3).calibrate_curve(field.data, ebs, est, codec)
        assert estimation_error(true, cal) <= estimation_error(true, est) + 1e-9
