"""Utility-layer tests: validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    as_float_array,
    check_error_bound,
    require_finite,
)


class TestValidation:
    def test_float32_kept(self):
        x = np.ones(4, dtype=np.float32)
        assert as_float_array(x).dtype == np.float32

    def test_int_promoted(self):
        assert as_float_array(np.ones(4, dtype=np.int32)).dtype == np.float64

    def test_float16_promoted(self):
        assert as_float_array(np.ones(4, dtype=np.float16)).dtype == np.float64

    @pytest.mark.parametrize("dtype", [">f4", ">f8", "<f4", "<f8"])
    def test_byte_order_made_native(self, dtype):
        x = np.linspace(-3.0, 7.0, 11).astype(dtype)
        out = as_float_array(x)
        assert out.dtype == np.dtype(dtype).newbyteorder("=")
        assert out.dtype.isnative and np.array_equal(out, x)

    def test_object_rejected(self):
        with pytest.raises(TypeError):
            as_float_array(np.array(["a", "b"]))

    def test_empty_rejected_unless_allowed(self):
        with pytest.raises(ValueError):
            as_float_array(np.zeros(0))
        assert as_float_array(np.zeros(0), allow_empty=True).size == 0

    def test_contiguity_enforced(self):
        x = np.ones((4, 4))[:, ::2]
        assert as_float_array(x).flags["C_CONTIGUOUS"]

    def test_require_finite(self):
        require_finite(np.ones(3))
        with pytest.raises(ValueError):
            require_finite(np.array([1.0, np.inf]))

    @pytest.mark.parametrize("bad", [0, -1, np.nan, np.inf])
    def test_check_error_bound(self, bad):
        with pytest.raises(ValueError):
            check_error_bound(bad)
