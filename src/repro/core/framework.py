"""Shared machinery of the FXRZ and CAROL frameworks.

Both frameworks are the same three-stage pipeline (Fig. 1) with different
stage implementations:

=============  ======================  ===============================
stage          FXRZ                    CAROL
=============  ======================  ===============================
collection     full compressor         SECRE surrogate + calibration
training       randomized grid search  Bayesian opt. (checkpointable)
inference      serial sampled feats    block-parallel feats
=============  ======================  ===============================

Stage timings come from :mod:`repro.obs` spans: the same measurement
that lands in a ``--trace`` JSON also populates :class:`SetupReport` and
:class:`Prediction`, so traces and reports agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.compressors.base import CompressionResult
from repro.compressors.registry import get_compressor
from repro.core.collection import TrainingCollector, TrainingData
from repro.core.metrics import estimation_error
from repro.core.prediction import ErrorBoundModel
from repro.core.training import TrainingInfo
from repro.ml.space import SearchSpace
from repro.obs import timed_span
from repro.utils.validation import as_float_array


@dataclass
class SetupReport:
    """Timing breakdown of one fit() call (feeds Fig. 8)."""

    framework: str
    compressor: str
    collection_seconds: float
    training_seconds: float
    n_rows: int
    training_info: TrainingInfo | None = None

    @property
    def total_seconds(self) -> float:
        return self.collection_seconds + self.training_seconds


@dataclass
class Prediction:
    """One inference call's outcome (feeds Fig. 9).

    ``std`` is the model's own confidence signal: the across-tree
    standard deviation of the predicted log error bound (*before* any
    ``safety`` shift), from the same single ensemble pass that produced
    the prediction. ``nan`` means the model kind exposes no spread.
    """

    error_bound: float
    target_ratio: float
    features: np.ndarray
    feature_seconds: float
    inference_seconds: float
    std: float = float("nan")


@dataclass
class EvaluationReport:
    """Requested-vs-achieved ratios on one test input (Tables 3, Fig. 7).

    Features are extracted once for every target, so their cost lives
    here (``feature_seconds``) rather than being faked onto the first
    :class:`Prediction`.
    """

    targets: np.ndarray
    achieved: np.ndarray
    predicted_ebs: np.ndarray
    alpha: float
    predictions: list[Prediction] = dc_field(default_factory=list)
    feature_seconds: float = 0.0

    @property
    def inference_seconds(self) -> float:
        """Total model time across targets plus the shared feature pass."""
        return self.feature_seconds + sum(p.inference_seconds for p in self.predictions)


class RatioControlledFramework:
    """Base class; subclasses set the three stage implementations.

    All configuration past ``compressor`` is keyword-only — the stable
    construction surface exposed by :mod:`repro.api`.
    """

    name = "abstract"
    collection_mode = "full"
    training_method = "grid"

    def __init__(
        self,
        compressor: str = "sz3",
        *,
        rel_error_bounds: np.ndarray | None = None,
        space: SearchSpace | None = None,
        n_iter: int = 8,
        cv: int = 3,
        seed: int = 0,
        calibration_points: int = 4,
        model_kind: str = "forest",
    ) -> None:
        self.compressor_name = compressor
        self._codec = get_compressor(compressor)
        self.rel_error_bounds = rel_error_bounds
        self.space = space
        self.n_iter = int(n_iter)
        self.cv = int(cv)
        self.seed = int(seed)
        self.calibration_points = int(calibration_points)
        self.model_kind = model_kind
        self.model = ErrorBoundModel()
        self.training_data: TrainingData | None = None
        self.setup_report: SetupReport | None = None

    # -- stage hooks (overridden per framework) --------------------------------

    def _extract_features(self, data: np.ndarray) -> tuple[np.ndarray, float]:
        raise NotImplementedError

    def feature_sample(self, data: np.ndarray) -> np.ndarray:
        """The part of ``data`` that :meth:`extract_features` reads.

        The contract: two inputs with equal samples have bitwise-equal
        feature vectors. The serving layer addresses its feature cache by
        a digest of this array, so a framework whose extractor sub-samples
        returns that sub-sample (from the function the extractor itself
        samples with); the default, the whole input, is always exact.
        """
        return data

    def extract_features(self, data: np.ndarray) -> np.ndarray:
        """Public feature hook: the feature vector for one input.

        This is the value ``predict_error_bound(..., features=...)`` accepts
        back — what the serving layer caches per distinct
        :meth:`feature_sample` and reuses across requests and targets.
        """
        return self._extract_features(as_float_array(data))[0]

    def extract_features_many(self, datas) -> np.ndarray:
        """Stacked ``(n, d)`` feature matrix for several inputs; row ``i``
        is ``extract_features(datas[i])``, from the same one hook."""
        rows = [self._extract_features(as_float_array(d))[0] for d in datas]
        return np.stack(rows) if rows else np.empty((0, 0))

    def _make_collector(self) -> TrainingCollector:
        return TrainingCollector(
            self.compressor_name,
            mode=self.collection_mode,
            rel_error_bounds=self.rel_error_bounds,
            calibration_points=self.calibration_points,
        )

    # -- setup ------------------------------------------------------------------

    def fit(self, fields) -> SetupReport:
        """Collect training data and train the error-bound model cold."""
        return self._run_setup(list(fields), warm=False)

    def refine(self, new_fields) -> SetupReport:
        """Incrementally refine the model with newly arrived fields.

        Collects curves for the new fields only, merges them into the
        training set, and re-trains. Trainers that checkpoint (CAROL's
        Bayesian optimizer) warm-start from the previous search's
        observations — the "checkpointing of the training process" of
        Section 5.3 — including a framework reloaded by
        :func:`repro.utils.serialization.load_framework`, whose archive
        carries the checkpoint but no training rows; non-resumable
        trainers (FXRZ's grid search) simply re-search on the merged data.
        """
        return self._run_setup(list(new_fields), warm=True)

    def _run_setup(self, fields, *, warm: bool) -> SetupReport:
        with timed_span(
            "fit.collection",
            framework=self.name,
            compressor=self.compressor_name,
            mode=self.collection_mode,
            n_fields=len(fields),
        ) as sp_collect:
            fresh = self._make_collector().collect(fields)
        training_seconds = self._train(fresh, warm=warm)
        self.setup_report = SetupReport(
            framework=self.name,
            compressor=self.compressor_name,
            collection_seconds=sp_collect.elapsed,
            training_seconds=training_seconds,
            n_rows=self.training_data.n_rows,
            training_info=self.model.info,
        )
        return self.setup_report

    def _train(self, fresh: TrainingData, *, warm: bool) -> float:
        """The one update step; returns its seconds.

        A cold step trains on ``fresh`` alone. A warm step merges
        ``fresh`` into the training set (which it becomes when there is
        none) and starts from the model's checkpoint when it has one.
        Either way the model trains with this framework's own method,
        space, budget, seed and model kind — :meth:`fit`, :meth:`refine`
        and :class:`repro.core.feedback.FeedbackLoop` all end here.
        """
        data = fresh
        if warm and self.training_data is not None:
            data = self.training_data.merge(fresh)
        checkpoint = self.model.checkpoint if warm else None
        with timed_span(
            "fit.training",
            framework=self.name,
            method=self.training_method,
            model_kind=self.model_kind,
            n_rows=data.n_rows,
            warm_start=checkpoint is not None,
        ) as sp:
            self.model.fit(
                data,
                method=self.training_method,
                space=self.space,
                n_iter=self.n_iter,
                cv=self.cv,
                seed=self.seed,
                checkpoint=checkpoint,
                model_kind=self.model_kind,
            )
        self.training_data = data
        return sp.elapsed

    # -- inference -----------------------------------------------------------------

    def predict_error_bound(
        self,
        data: np.ndarray,
        target_ratio: float,
        *,
        safety: float = 0.0,
        features: np.ndarray | None = None,
    ) -> Prediction:
        """Predict the error bound that reaches ``target_ratio`` on ``data``.

        ``safety`` > 0 biases toward overshooting the ratio (quota-safe);
        see :meth:`ErrorBoundModel.predict_error_bound`. Passing a
        precomputed ``features`` vector (from :meth:`extract_features`)
        skips extraction entirely — the cache hook used by
        :class:`repro.serve.PredictionService`.
        """
        if features is None:
            arr = as_float_array(data)
            feats, feat_s = self._extract_features(arr)
        else:
            feats, feat_s = np.asarray(features, dtype=np.float64), 0.0
        with timed_span(
            "inference.predict", framework=self.name, target_ratio=float(target_ratio)
        ) as sp:
            eb, std = self.model.predict_error_bound_with_std(
                feats, float(target_ratio), safety=safety
            )
            sp.set(error_bound=eb)
        return Prediction(
            error_bound=eb,
            target_ratio=float(target_ratio),
            features=feats,
            feature_seconds=feat_s,
            inference_seconds=sp.elapsed,
            std=std,
        )

    def compress_to_ratio(
        self, data: np.ndarray, target_ratio: float, *, safety: float = 0.0
    ) -> tuple[CompressionResult, Prediction]:
        """End-to-end: predict the error bound, then actually compress."""
        pred = self.predict_error_bound(data, target_ratio, safety=safety)
        result = self._codec.compress(data, pred.error_bound)
        return result, pred

    # -- evaluation ------------------------------------------------------------------

    def evaluate_targets(
        self, data: np.ndarray, target_ratios, *, safety: float = 0.0
    ) -> EvaluationReport:
        """Requested-vs-achieved ratios; alpha per the paper's Eq. (1).

        ``safety`` applies to every per-target prediction, matching
        :meth:`predict_error_bound` (all inference entry points share one
        bias convention and parameter names). Features are extracted once
        and charged to the report, not to any single prediction.
        """
        targets = np.asarray(target_ratios, dtype=np.float64).ravel()
        arr = as_float_array(data)
        feats, feat_s = self._extract_features(arr)
        achieved = np.empty(targets.size)
        ebs = np.empty(targets.size)
        preds: list[Prediction] = []
        for i, t in enumerate(targets):
            pred = self.predict_error_bound(arr, t, safety=safety, features=feats)
            ebs[i] = pred.error_bound
            achieved[i] = self._codec.compression_ratio(arr, pred.error_bound)
            preds.append(pred)
        return EvaluationReport(
            targets=targets,
            achieved=achieved,
            predicted_ebs=ebs,
            alpha=estimation_error(targets, achieved),
            predictions=preds,
            feature_seconds=feat_s,
        )
