"""On-the-fly model improvement from serving-time feedback.

The paper's conclusion lists "a feedback loop enabling on-the-fly model
improvement" as future work. This module implements it: every served
request eventually yields a ground-truth observation — the compressor ran
at the predicted error bound and produced an *actual* ratio — which is a
perfect training row ``(features, log(actual_ratio)) -> log(error_bound)``
that cost nothing extra to measure.

:class:`FeedbackLoop` buffers those observations and, once enough accumulate
(or the rolling accuracy degrades past a threshold), folds them into the
framework's training data through the update step that ``refine`` runs —
warm-started via the Bayesian optimizer's checkpoint when the framework
has one (CAROL does; FXRZ's grid search retrains from scratch, the exact
asymmetry the paper motivates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.collection import CurveRecord, TrainingData
from repro.core.framework import RatioControlledFramework


@dataclass
class FeedbackObservation:
    """One served request's outcome."""

    features: np.ndarray
    error_bound: float
    achieved_ratio: float
    target_ratio: float

    @property
    def relative_error(self) -> float:
        return abs(self.achieved_ratio - self.target_ratio) / self.target_ratio


@dataclass
class FeedbackLoop:
    """Accumulates serving-time feedback and triggers model refreshes.

    Parameters
    ----------
    framework:
        A *fitted* framework to improve.
    refresh_every:
        Re-train after this many new observations.
    error_threshold:
        Also re-train early whenever the rolling mean relative error of the
        last ``refresh_every`` requests exceeds this fraction.
    """

    framework: RatioControlledFramework
    refresh_every: int = 32
    error_threshold: float = 0.25
    observations: list[FeedbackObservation] = field(default_factory=list)
    _pending: list[FeedbackObservation] = field(default_factory=list)
    refreshes: int = 0

    #: Smallest window the error trigger trusts: a single bad observation
    #: must never cost a retrain, so the rolling-error refresh needs at
    #: least this many (and at least ``refresh_every // 4``) observations.
    MIN_ERROR_WINDOW = 2

    def __post_init__(self) -> None:
        if self.refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        if self.error_threshold <= 0:
            raise ValueError("error_threshold must be > 0")

    def compress_to_ratio(self, data: np.ndarray, target_ratio: float):
        """Serve one request, recording its outcome as feedback."""
        result, pred = self.framework.compress_to_ratio(data, target_ratio)
        obs = FeedbackObservation(
            features=pred.features,
            error_bound=pred.error_bound,
            achieved_ratio=result.ratio,
            target_ratio=float(target_ratio),
        )
        self.observations.append(obs)
        self._pending.append(obs)
        if self._should_refresh():
            self.refresh()
        return result, pred

    def record(self, features: np.ndarray, error_bound: float,
               achieved_ratio: float, target_ratio: float) -> None:
        """Record feedback measured elsewhere (e.g. on another node)."""
        obs = FeedbackObservation(
            np.asarray(features, dtype=np.float64), float(error_bound),
            float(achieved_ratio), float(target_ratio),
        )
        self.observations.append(obs)
        self._pending.append(obs)
        if self._should_refresh():
            self.refresh()

    # -- internals -------------------------------------------------------------

    def _should_refresh(self) -> bool:
        if not self._pending:
            # An empty buffer can never justify a retrain (and must never
            # reach np.mean, which warns on empty input).
            return False
        if len(self._pending) >= self.refresh_every:
            return True
        recent = self._pending[-self.refresh_every :]
        if len(recent) < max(self.refresh_every // 4, 4, self.MIN_ERROR_WINDOW):
            # Too few observations for a stable error signal: one outlier
            # in a one- or two-element window is noise, not drift.
            return False
        mean_err = float(np.mean([o.relative_error for o in recent]))
        return mean_err > self.error_threshold

    def pending_training_data(self) -> TrainingData:
        """The buffered observations as a TrainingData batch.

        Each observation becomes a one-point "curve": the measured
        (error bound, achieved ratio) pair under the features active when
        it was served.
        """
        data = TrainingData(compressor=self.framework.compressor_name)
        for obs in self._pending:
            data.records.append(
                CurveRecord(
                    field_path="feedback",
                    features=obs.features,
                    error_bounds=np.array([obs.error_bound]),
                    ratios=np.array([max(obs.achieved_ratio, 1e-9)]),
                    source="feedback",
                )
            )
        return data

    def refresh(self) -> None:
        """Fold pending feedback into the model: the framework's own warm
        update step, on the pending rows."""
        if not self._pending:
            return
        self.framework._train(self.pending_training_data(), warm=True)
        self._pending.clear()
        self.refreshes += 1

    @property
    def rolling_error(self) -> float:
        """Mean relative ratio error over the most recent window.

        Defined for any history size: an empty window reports 0.0 (no
        evidence of error — never ``nan``), and a single observation
        reports its own error.
        """
        recent = self.observations[-self.refresh_every :]
        if not recent:
            return 0.0
        return float(np.mean([o.relative_error for o in recent]))
