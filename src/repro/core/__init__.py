"""CAROL and FXRZ ratio-controlled compression frameworks.

- :mod:`repro.core.metrics` — the paper's estimation-error metric (Eqs. 1-2);
- :mod:`repro.core.calibration` — surrogate-error calibration (Section 5.2);
- :mod:`repro.core.collection` — training-data collection, full-compressor
  (FXRZ) and surrogate/calibrated (CAROL) modes;
- :mod:`repro.core.training` — model training via randomized grid search
  (FXRZ) or checkpointable Bayesian optimization (CAROL), Section 5.3;
- :mod:`repro.core.prediction` — error-bound prediction and the
  monotone-curve-inversion baseline;
- :mod:`repro.core.fxrz` / :mod:`repro.core.carol` — the end-to-end
  frameworks.
"""

from repro.core.calibration import CalibrationInfo, Calibrator
from repro.core.carol import CarolFramework
from repro.core.collection import CurveRecord, TrainingCollector, TrainingData
from repro.core.fxrz import FxrzFramework
from repro.core.metrics import estimation_error, signed_estimation_errors
from repro.core.prediction import ErrorBoundModel, invert_curve

__all__ = [
    "Calibrator",
    "CalibrationInfo",
    "TrainingCollector",
    "TrainingData",
    "CurveRecord",
    "ErrorBoundModel",
    "invert_curve",
    "FxrzFramework",
    "CarolFramework",
    "estimation_error",
    "signed_estimation_errors",
]
