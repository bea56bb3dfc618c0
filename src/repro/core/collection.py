"""Training-data collection for the ratio-controlled frameworks.

A collection run takes a list of fields and produces, per field, the
features vector plus the sampled compression function f(e) over an
error-bound grid. Three modes:

- ``"full"``     — run the real compressor at every grid point (FXRZ;
  the dominant setup cost, 65-85% of FXRZ's total);
- ``"secre"``    — surrogate estimation only (fast, possibly biased);
- ``"calibrated"`` — surrogate + CAROL's calibration (CAROL's default).

The grid is relative to each field's value range (``rel_error_bounds``),
the convention used for SDRBench evaluations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.compressors.registry import get_compressor
from repro.core.calibration import CalibrationInfo, Calibrator
from repro.data.fields import Field
from repro.features.definitions import FEATURE_NAMES
from repro.features.serial import extract_features_serial
from repro.obs import span
from repro.surrogate.registry import get_surrogate

#: Default relative error-bound grid (the paper interpolates f(e) from 35
#: sampled error bounds; benches may pass a smaller grid for speed).
DEFAULT_REL_EBS = np.geomspace(1e-4, 1e-1, 35)

COLLECTION_MODES = ("full", "secre", "calibrated")


@dataclass
class CurveRecord:
    """One field's contribution to the training set."""

    field_path: str
    features: np.ndarray  # the five FXRZ features
    error_bounds: np.ndarray  # absolute, ascending
    ratios: np.ndarray  # f(e) on the grid (measured or estimated)
    source: str  # collection mode that produced `ratios`
    collect_seconds: float = 0.0
    calibration: CalibrationInfo | None = None


@dataclass
class TrainingData:
    """Collected records plus the design-matrix view the models train on."""

    compressor: str
    records: list[CurveRecord] = dc_field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return sum(r.error_bounds.size for r in self.records)

    def design_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """``X = [five features..., log(ratio)]``, ``y = log(error_bound)``.

        Log transforms keep both the target and the ratio input on the
        scales where compressor behaviour is close to linear.
        """
        if not self.records:
            raise ValueError("no training records collected")
        Xs, ys = [], []
        for rec in self.records:
            n = rec.error_bounds.size
            feats = np.repeat(rec.features[None, :], n, axis=0)
            Xs.append(np.column_stack((feats, np.log(np.maximum(rec.ratios, 1e-9)))))
            ys.append(np.log(rec.error_bounds))
        return np.vstack(Xs), np.concatenate(ys)

    def merge(self, other: "TrainingData") -> "TrainingData":
        if other.compressor != self.compressor:
            raise ValueError("cannot merge training data for different compressors")
        return TrainingData(compressor=self.compressor, records=self.records + other.records)

    @property
    def feature_names(self) -> list[str]:
        return list(FEATURE_NAMES) + ["log_ratio"]


class TrainingCollector:
    """Collects (features, f(e)) training curves for one compressor."""

    def __init__(
        self,
        compressor: str,
        mode: str = "full",
        rel_error_bounds: np.ndarray | None = None,
        calibration_points: int = 4,
        feature_stride: int | None = 4,
    ) -> None:
        if mode not in COLLECTION_MODES:
            raise ValueError(f"mode must be one of {COLLECTION_MODES}")
        self.compressor_name = compressor
        self.mode = mode
        self.rel_ebs = (
            np.asarray(rel_error_bounds, dtype=np.float64)
            if rel_error_bounds is not None
            else DEFAULT_REL_EBS.copy()
        )
        if (np.diff(self.rel_ebs) <= 0).any():
            raise ValueError("rel_error_bounds must be strictly increasing")
        self.calibration_points = int(calibration_points)
        self.feature_stride = feature_stride
        self._codec = get_compressor(compressor)
        self._surrogate = get_surrogate(compressor)

    def collect_field(self, field: Field) -> CurveRecord:
        ebs = self.rel_ebs * max(field.value_range, 1e-30)
        with span(
            "collection.field",
            field=field.path,
            mode=self.mode,
            compressor=self.compressor_name,
            n_points=int(ebs.size),
        ):
            feats, feat_s = extract_features_serial(field.data, stride=self.feature_stride)
            t0 = time.perf_counter()
            calibration: CalibrationInfo | None = None
            if self.mode == "full":
                ratios = np.array(
                    [self._codec.compression_ratio(field.data, float(eb)) for eb in ebs]
                )
            else:
                ratios, _ = self._surrogate.estimate_curve(field.data, ebs)
                if self.mode == "calibrated":
                    calibrator = Calibrator(n_points=self.calibration_points)
                    ratios, calibration = calibrator.calibrate_curve(
                        field.data, ebs, ratios, self._codec
                    )
            collect_s = time.perf_counter() - t0
        return CurveRecord(
            field_path=field.path,
            features=feats,
            error_bounds=ebs,
            ratios=ratios,
            source=self.mode,
            collect_seconds=collect_s + feat_s,
            calibration=calibration,
        )

    def collect(self, fields: list[Field]) -> TrainingData:
        return TrainingData(
            compressor=self.compressor_name,
            records=[self.collect_field(field) for field in fields],
        )
