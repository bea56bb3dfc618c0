"""Shared utilities: validation, serialization."""

from repro.utils.validation import (
    as_float_array,
    check_error_bound,
    check_positive_int,
    check_probability,
    require_finite,
)

__all__ = [
    "as_float_array",
    "check_error_bound",
    "check_positive_int",
    "check_probability",
    "require_finite",
]
