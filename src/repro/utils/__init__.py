"""Shared utilities: validation, serialization."""

from repro.utils.validation import (
    as_float_array,
    check_error_bound,
    require_finite,
)

__all__ = [
    "as_float_array",
    "check_error_bound",
    "require_finite",
]
