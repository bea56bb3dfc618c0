"""Generic sampled-full surrogate."""

from functools import partial

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.core.metrics import estimation_error
from repro.data import load_field
from repro.surrogate import get_surrogate
from repro.surrogate.sampled_full import SampledFullSurrogate
from repro.surrogate.sampling import sample_chunk, sample_flat_blocks, sample_points

SHAPE = (16, 20, 20)
REL = np.geomspace(1e-3, 1e-1, 5)

#: Window-matched samplers, each drawing ~15% of the values.
WINDOWS = {
    "block": partial(sample_flat_blocks, block_size=128, stride=7),
    "point": partial(sample_points, stride=2),
    "chunk": partial(sample_chunk, fraction_per_axis=0.15 ** (1 / 3)),
}


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
        sur = SampledFullSurrogate(get_compressor(codec), WINDOWS[window])
        assert sur.compressor_name == codec
        est, elapsed = sur.estimate_curve(field.data, ebs)
        assert elapsed >= 0
        # real coder on a sample: decent accuracy without a tailored surrogate
        assert estimation_error(true, est) < 60.0

    def test_point_window_preserves_dimensionality(self, monkeypatch):
        """The sample reaches the codec as the sampler shaped it: SZ3's
        interpolation sees a 3-D sample of a 3-D field."""
        field = load_field("miranda/density", shape=SHAPE)
        codec = get_compressor("sz3")
        seen = []
        compress = codec.compress
        monkeypatch.setattr(
            codec, "compress", lambda x, eb: seen.append(x.shape) or compress(x, eb)
        )
        SampledFullSurrogate(codec, WINDOWS["point"]).estimate_curve(
            field.data, [1e-2 * field.value_range]
        )
        assert seen == [(8, 10, 10)]

    def test_invalid_args(self):
        """The registry builds each sampled estimator at its one window and
        sampling rate: no window or fraction keyword is taken."""
        with pytest.raises(TypeError):
            get_surrogate("cuszp", window="point")
        with pytest.raises(TypeError):
            get_surrogate("szx", fraction=0.5)
        with pytest.raises(TypeError):
            get_surrogate("zfp", stride=8)

    def test_calibration_composes(self):
        """The conclusion's recipe: sampled-full estimate + calibration."""
        from repro.core.calibration import Calibrator

        field = load_field("miranda/viscosity", shape=(20, 28, 28))
        codec = get_compressor("sz3")
        ebs = REL * field.value_range
        true = np.array([codec.compression_ratio(field.data, eb) for eb in ebs])
        est, _ = SampledFullSurrogate(codec, WINDOWS["point"]).estimate_curve(
            field.data, ebs
        )
        cal, _ = Calibrator(n_points=3).calibrate_curve(field.data, ebs, est, codec)
        assert estimation_error(true, cal) <= estimation_error(true, est) + 1e-9
