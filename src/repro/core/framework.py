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
class BatchPrediction:
    """One ``predict_error_bound_batch`` call: shared feature pass + stacked inference.

    Mirrors :class:`EvaluationReport`'s accounting: the (single) feature
    extraction is charged here, not faked onto any one prediction, and the
    stacked model call's time lives in ``inference_seconds``.
    """

    predictions: list[Prediction]
    feature_seconds: float
    inference_seconds: float

    @property
    def error_bounds(self) -> np.ndarray:
        return np.array([p.error_bound for p in self.predictions])

    @property
    def stds(self) -> np.ndarray:
        """Per-prediction model spread (``nan`` where the model has none)."""
        return np.array([p.std for p in self.predictions])

    def __iter__(self):
        return iter(self.predictions)

    def __len__(self) -> int:
        return len(self.predictions)


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

    def _extract_features_many(self, arrays: list) -> tuple[np.ndarray, float]:
        """Stacked multi-field extraction; subclasses override with the
        batched entry points of :mod:`repro.features`."""
        rows, total = [], 0.0
        for arr in arrays:
            feats, secs = self._extract_features(arr)
            rows.append(feats)
            total += secs
        return (np.stack(rows) if rows else np.empty((0, 0))), total

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
        is bitwise-identical to ``extract_features(datas[i])``."""
        return self._extract_features_many([as_float_array(d) for d in datas])[0]

    def _make_collector(self) -> TrainingCollector:
        return TrainingCollector(
            self.compressor_name,
            mode=self.collection_mode,
            rel_error_bounds=self.rel_error_bounds,
            calibration_points=self.calibration_points,
        )

    # -- setup ------------------------------------------------------------------

    def fit(self, fields, checkpoint: list | None = None) -> SetupReport:
        """Collect training data and train the error-bound model."""
        return self._run_setup(list(fields), checkpoint=checkpoint, merge=False)

    def refine(self, new_fields) -> SetupReport:
        """Incrementally refine the model with newly arrived fields.

        Collects curves for the new fields only, merges them into the
        training set, and re-trains. Trainers that checkpoint (CAROL's
        Bayesian optimizer) warm-start from the previous search's
        observations — the "checkpointing of the training process" of
        Section 5.3; non-resumable trainers (FXRZ's grid search) simply
        re-search on the merged data. Falls back to :meth:`fit` when
        nothing has been collected yet.
        """
        if self.training_data is None:
            return self.fit(new_fields)
        return self._run_setup(
            list(new_fields), checkpoint=self.model.checkpoint, merge=True
        )

    def _run_setup(self, fields, checkpoint: list | None, merge: bool) -> SetupReport:
        with timed_span(
            "fit.collection",
            framework=self.name,
            compressor=self.compressor_name,
            mode=self.collection_mode,
            n_fields=len(fields),
        ) as sp_collect:
            collector = self._make_collector()
            fresh = collector.collect(fields)
        self.training_data = self.training_data.merge(fresh) if merge else fresh

        with timed_span(
            "fit.training",
            framework=self.name,
            method=self.training_method,
            model_kind=self.model_kind,
            n_rows=self.training_data.n_rows,
            warm_start=checkpoint is not None,
        ) as sp_train:
            self.model.fit(
                self.training_data,
                method=self.training_method,
                space=self.space,
                n_iter=self.n_iter,
                cv=self.cv,
                seed=self.seed,
                checkpoint=checkpoint,
                model_kind=self.model_kind,
            )
        self.setup_report = SetupReport(
            framework=self.name,
            compressor=self.compressor_name,
            collection_seconds=sp_collect.elapsed,
            training_seconds=sp_train.elapsed,
            n_rows=self.training_data.n_rows,
            training_info=self.model.info,
        )
        return self.setup_report

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

    def predict_error_bound_batch(
        self,
        data: np.ndarray,
        target_ratios,
        *,
        safety: float = 0.0,
        features: np.ndarray | None = None,
    ) -> BatchPrediction:
        """Predict error bounds for many targets on one input, in one pass.

        Features are extracted once (or taken from ``features``) and model
        inference runs on a stacked design matrix, so the cost is one
        extraction plus one vectorized model call. Error bounds are
        bitwise-identical to per-target :meth:`predict_error_bound` calls —
        see :meth:`ErrorBoundModel.predict_error_bound_batch`.
        """
        ratios = np.asarray(target_ratios, dtype=np.float64).ravel()
        if features is None:
            arr = as_float_array(data)
            feats, feat_s = self._extract_features(arr)
        else:
            feats, feat_s = np.asarray(features, dtype=np.float64), 0.0
        with timed_span(
            "inference.predict_batch", framework=self.name, n_targets=int(ratios.size)
        ) as sp:
            ebs, stds = self.model.predict_error_bound_batch_with_std(
                feats, ratios, safety=safety
            )
        preds = [
            Prediction(float(eb), float(t), feats, 0.0, 0.0, std=float(s))
            for eb, t, s in zip(ebs, ratios, stds)
        ]
        return BatchPrediction(
            predictions=preds, feature_seconds=feat_s, inference_seconds=sp.elapsed
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
            with timed_span(
                "inference.predict", framework=self.name, target_ratio=float(t)
            ) as sp:
                eb = self.model.predict_error_bound(feats, float(t), safety=safety)
                sp.set(error_bound=eb)
            ebs[i] = eb
            achieved[i] = self._codec.compression_ratio(arr, eb)
            preds.append(Prediction(eb, float(t), feats, 0.0, sp.elapsed))
        return EvaluationReport(
            targets=targets,
            achieved=achieved,
            predicted_ebs=ebs,
            alpha=estimation_error(targets, achieved),
            predictions=preds,
            feature_seconds=feat_s,
        )
