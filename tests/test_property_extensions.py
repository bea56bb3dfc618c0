"""Property tests for the extension features (cuSZp, fixed-rate, safety)."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.compressors import cuszp
from repro.compressors.cuszp import CuSZpCompressor
from repro.compressors.zfp import ZFPCompressor

_SETTINGS = dict(max_examples=25, deadline=None)
_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestCuSZpProperties:
    @given(
        arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=20),
               elements=_floats),
        st.floats(min_value=1e-5, max_value=1.0),
    )
    @settings(**_SETTINGS)
    def test_bound_always_holds(self, data, eb):
        codec = CuSZpCompressor()
        out, _ = codec.roundtrip(data, eb)
        assert np.abs(out - data).max() <= eb * (1 + 1e-9)

    @given(st.integers(2, 128))
    @settings(**_SETTINGS)
    def test_any_block_size(self, property_seed, bs):
        """A stream written with any block size decodes with the one it
        names, whatever the decoder's own constant."""
        rng = np.random.default_rng([property_seed, bs])
        x = np.cumsum(rng.standard_normal(257))
        codec = CuSZpCompressor()
        with mock.patch.object(cuszp, "BLOCK", bs):
            res = codec.compress(x, 1e-3)
        assert res.metadata["block_size"] == bs
        assert np.abs(codec.decompress(res) - x).max() <= 1e-3


class TestFixedRateProperties:
    @given(
        arrays(np.float64, (12, 16), elements=_floats),
        st.floats(min_value=1.0, max_value=40.0),
    )
    @settings(**_SETTINGS)
    def test_round_trip_never_crashes_and_size_bounded(self, data, rate):
        z = ZFPCompressor()
        res = z.compress_fixed_rate(data, rate)
        out = z.decompress(res)
        assert out.shape == data.shape
        assert np.isfinite(out).all()
        # size stays within budget plus header/any-bit overhead
        nominal_bits = data.size * rate
        assert res.compressed_bytes * 8 <= nominal_bits * 2.5 + 4096

    @given(arrays(np.float64, (8, 8), elements=_floats))
    @settings(**_SETTINGS)
    def test_higher_rate_never_larger_error(self, data):
        z = ZFPCompressor()
        lo = z.decompress(z.compress_fixed_rate(data, 4.0))
        hi = z.decompress(z.compress_fixed_rate(data, 24.0))
        err_lo = np.abs(lo - data).max()
        err_hi = np.abs(hi - data).max()
        assert err_hi <= err_lo + 1e-12


class TestSafetyMonotonicity:
    @given(st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=10, deadline=None)
    def test_eb_monotone_in_safety(self, safety):
        from repro import CarolFramework, load_dataset, load_field

        # module-level cache so hypothesis examples share one fit
        global _FW, _FIELD
        try:
            _FW
        except NameError:
            _FW = CarolFramework(
                compressor="szx",
                rel_error_bounds=np.geomspace(1e-3, 1e-1, 5),
                n_iter=3, cv=2,
            )
            _FW.fit(load_dataset("miranda", shape=(10, 12, 12))[:3])
            _FIELD = load_field("miranda/density", shape=(10, 12, 12), seed=4)
        base = _FW.predict_error_bound(_FIELD.data, 5.0, safety=0.0).error_bound
        biased = _FW.predict_error_bound(_FIELD.data, 5.0, safety=safety).error_bound
        assert biased >= base * (1 - 1e-12)
