"""Input validation helpers shared across compressors, ML and frameworks.

All public entry points validate eagerly so failures surface with a clear
message at the API boundary instead of deep inside a vectorized kernel.
"""

from __future__ import annotations

import numpy as np


def as_float_array(data, *, name: str = "data", allow_empty: bool = False) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float array (float32 or float64).

    Integer and float16 inputs are promoted to float64/float32, and
    non-native byte order (``">f4"`` on a little-endian host) becomes
    native with values unchanged; other dtypes (complex, object, strings)
    are rejected.
    """
    arr = np.asarray(data)
    if arr.dtype.kind == "f" and arr.dtype.itemsize in (4, 8):
        arr = arr.astype(arr.dtype.newbyteorder("="), copy=False)
    elif np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.float16:
        arr = arr.astype(np.float64)
    else:
        raise TypeError(f"{name} must be real floating point, got dtype {arr.dtype}")
    if not allow_empty and arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return np.ascontiguousarray(arr)


def require_finite(arr: np.ndarray, *, name: str = "data") -> None:
    """Reject NaN/Inf inputs.

    Error-bounded lossy compressors have no meaningful error bound for
    non-finite values, so all compressor entry points call this.
    """
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf; error-bounded compression is undefined")


def check_error_bound(error_bound: float) -> float:
    eb = float(error_bound)
    if not np.isfinite(eb) or eb <= 0.0:
        raise ValueError(f"error_bound must be finite and > 0, got {error_bound!r}")
    return eb
