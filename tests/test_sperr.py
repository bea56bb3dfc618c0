"""SPERR-specific behaviour: outlier correction, high ratios."""

import numpy as np

from repro.compressors.sperr import SPERRCompressor


class TestOutlierCorrection:
    def test_bound_guaranteed_despite_synthesis_gain(self, rng):
        """Wavelet synthesis can amplify coefficient error; the outlier pass
        must still deliver the pointwise bound."""
        x = rng.standard_normal((40, 40))  # worst case: pure noise
        for eb in (1e-3, 1e-2, 1e-1):
            out, _ = SPERRCompressor().roundtrip(x, eb)
            assert np.abs(out - x).max() <= eb

    def test_spiky_data(self, rng):
        x = np.zeros((32, 32))
        x[rng.integers(0, 32, 10), rng.integers(0, 32, 10)] = 100.0
        out, _ = SPERRCompressor().roundtrip(x, 1e-2)
        assert np.abs(out - x).max() <= 1e-2

    def test_exact_outliers_path(self, rng):
        """Huge local spikes exercise the store-exact fallback."""
        x = np.cumsum(rng.standard_normal(400)) * 1e-3
        x[37] += 1e7
        out, _ = SPERRCompressor().roundtrip(x, 1e-5)
        assert np.abs(out - x).max() <= 1e-5


class TestHighRatio:
    def test_smooth_data_high_ratio(self, smooth3d):
        """SPERR is a high-ratio codec: large eb -> ratios far above SZx's."""
        codec = SPERRCompressor()
        ratio = codec.compression_ratio(smooth3d, 0.2 * smooth3d.std())
        assert ratio > 20

    def test_2d_and_1d_supported(self, rng, smooth2d):
        out2, _ = SPERRCompressor().roundtrip(smooth2d, 1e-2)
        assert np.abs(out2 - smooth2d).max() <= 1e-2
        sig = np.cumsum(rng.standard_normal(700)) / 10
        out1, _ = SPERRCompressor().roundtrip(sig, 1e-2)
        assert np.abs(out1 - sig).max() <= 1e-2
