"""Calibration of surrogate compression-ratio estimates (Section 5.2).

SECRE's estimates can be off by tens of percent on SZ3/SPERR, but the error
is *structured*: for a given dataset it is (mostly) one-sided and its curve
over the error bound is bi-modal (one slow and one fast region, or one
increasing and one decreasing region). CAROL therefore:

1. runs the *full* compressor at a few calibration points (3-5; Table 5);
2. compares true vs estimated ratio there to detect over/under-estimation;
3. interpolates the estimation-error curve between calibration points and
   rescales the surrogate estimate with it — Eqs. (3)/(4).

The paper writes the correction as ``f_CAL = f_SECRE / (100 -/+ alpha)``;
the dimensionally consistent form (used here and equal to the intended
semantics, since ``f_SECRE = f * (1 + alpha_signed/100)``) is

    f_CAL(e) = f_SECRE(e) / (1 + alpha_hat(e) / 100)

with ``alpha_hat`` the *signed* interpolated percentage error. For a purely
one-sided surrogate this is exactly the paper's over/under-estimation pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.compressors.base import LossyCompressor
from repro.core.metrics import signed_estimation_errors
from repro.obs import span


@dataclass
class CalibrationInfo:
    """Everything measured during one calibration (feeds Tables 5, Fig. 10)."""

    calibration_ebs: np.ndarray
    true_ratios: np.ndarray
    estimated_at_points: np.ndarray
    signed_errors: np.ndarray  # percent, at the calibration points
    overestimating: bool
    compressor_seconds: float
    predicted_errors: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def n_points(self) -> int:
        return int(self.calibration_ebs.size)


class Calibrator:
    """Corrects a surrogate curve using a few full-compressor runs."""

    def __init__(self, n_points: int = 4) -> None:
        if n_points < 2:
            raise ValueError("calibration needs at least 2 points")
        self.n_points = int(n_points)

    @staticmethod
    def _select_points(n_grid: int, n_points: int) -> np.ndarray:
        """Evenly spread calibration indices, endpoints included."""
        k = min(n_points, n_grid)
        return np.unique(np.round(np.linspace(0, n_grid - 1, k)).astype(int))

    def calibrate_curve(
        self,
        data: np.ndarray,
        error_bounds: np.ndarray,
        estimated_ratios: np.ndarray,
        compressor: LossyCompressor,
    ) -> tuple[np.ndarray, CalibrationInfo]:
        """Return ``(calibrated_ratios, info)`` for a surrogate curve.

        ``error_bounds`` must be sorted ascending (the collection grid is).
        """
        ebs = np.asarray(error_bounds, dtype=np.float64).ravel()
        est = np.asarray(estimated_ratios, dtype=np.float64).ravel()
        if ebs.size != est.size or ebs.size < 2:
            raise ValueError("need aligned grids with at least 2 points")
        if (np.diff(ebs) <= 0).any():
            raise ValueError("error_bounds must be strictly increasing")

        # Step 1: run the full compressor at the calibration points.
        pts = self._select_points(ebs.size, self.n_points)
        with span("collection.calibration", compressor=compressor.name,
                  n_points=int(pts.size)):
            t0 = time.perf_counter()
            true_pts = np.array(
                [compressor.compression_ratio(data, float(ebs[i])) for i in pts]
            )
            comp_seconds = time.perf_counter() - t0

        # Step 2: signed errors and over/under determination.
        signed = signed_estimation_errors(true_pts, est[pts])
        overestimating = bool(signed.mean() > 0)

        # Step 3: interpolate the error curve over log(eb) and rescale.
        alpha_hat = np.interp(np.log(ebs), np.log(ebs[pts]), signed)
        calibrated = est / (1.0 + alpha_hat / 100.0)

        info = CalibrationInfo(
            calibration_ebs=ebs[pts],
            true_ratios=true_pts,
            estimated_at_points=est[pts],
            signed_errors=signed,
            overestimating=overestimating,
            compressor_seconds=comp_seconds,
            predicted_errors=alpha_hat,
        )
        return calibrated, info
