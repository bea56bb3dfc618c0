"""Shared utilities: timing, validation, serialization."""

from repro.utils.timing import TimingRecord
from repro.utils.validation import (
    as_float_array,
    check_error_bound,
    check_positive_int,
    check_probability,
    require_finite,
)

__all__ = [
    "TimingRecord",
    "as_float_array",
    "check_error_bound",
    "check_positive_int",
    "check_probability",
    "require_finite",
]
