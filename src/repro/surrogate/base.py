"""Common interface for surrogate compression-ratio estimators."""

from __future__ import annotations

import abc
import time

import numpy as np

from repro.utils.validation import as_float_array, check_error_bound, require_finite


class SurrogateEstimator(abc.ABC):
    """Fast estimator of a compressor's ratio-vs-error-bound function f(e).

    Estimators never materialize compressed output; they only predict the
    compressed size, which is what makes them orders of magnitude cheaper
    than the compressor they mimic. Ratios are reported against the *input*
    dtype's footprint, matching what the real compressor would report.
    """

    compressor_name: str = "abstract"

    def estimate_curve(
        self, data: np.ndarray, error_bounds
    ) -> tuple[np.ndarray, float]:
        """Estimated f(e) over a grid of error bounds.

        Returns ``(ratios, elapsed_seconds)``. Subclasses share the sampling
        and transform work across the whole grid, so a 35-point curve costs
        little more than a single estimate.
        """
        arr = as_float_array(data)
        require_finite(arr)
        itemsize = arr.dtype.itemsize
        ebs = np.asarray(error_bounds, dtype=np.float64).ravel()
        if ebs.size == 0:
            raise ValueError("error_bounds must be non-empty")
        for eb in ebs:
            check_error_bound(eb)
        start = time.perf_counter()
        ratios = self._estimate_curve(arr.astype(np.float64, copy=False), ebs, itemsize)
        return np.asarray(ratios, dtype=np.float64), time.perf_counter() - start

    @abc.abstractmethod
    def _estimate_curve(
        self, data: np.ndarray, ebs: np.ndarray, itemsize: int
    ) -> np.ndarray:
        """Estimate ratios for validated float64 data at each error bound."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
