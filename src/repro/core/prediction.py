"""Error-bound prediction from a trained model, plus the model-free baseline.

:class:`ErrorBoundModel` wraps the random forest: inputs are the five FXRZ
features plus log(target ratio), output is log(error bound) — the inference
path of both frameworks (Fig. 1).

:func:`invert_curve` is the model-free alternative (used by the ablation
bench): given a sampled compression function f(e), invert it by monotone
interpolation. It needs a measured/estimated curve for the *specific* input,
whereas the learned model generalizes across datasets from features alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.collection import TrainingData
from repro.core.training import TrainingInfo, train_model
from repro.ml.space import SearchSpace


def invert_curve(error_bounds, ratios, target_ratio: float) -> float:
    """Error bound achieving ``target_ratio`` per a sampled curve f(e).

    The curve is first made monotone (running maximum — compressors are
    monotone up to measurement noise), then inverted by log-log linear
    interpolation; targets outside the sampled range clamp to the ends.
    """
    ebs = np.asarray(error_bounds, dtype=np.float64).ravel()
    f = np.asarray(ratios, dtype=np.float64).ravel()
    if ebs.size != f.size or ebs.size < 2:
        raise ValueError("need aligned curves with at least 2 points")
    if target_ratio <= 0:
        raise ValueError("target_ratio must be positive")
    order = np.argsort(ebs)
    ebs, f = ebs[order], np.maximum.accumulate(np.maximum(f[order], 1e-9))
    logf = np.log(f)
    logt = np.log(target_ratio)
    # np.interp needs strictly increasing x; collapse flat steps.
    keep = np.concatenate(([True], np.diff(logf) > 0))
    return float(np.exp(np.interp(logt, logf[keep], np.log(ebs)[keep])))


def _require_finite_rows(F: np.ndarray) -> None:
    """Reject a design matrix with a NaN or Inf feature: the forest would
    route it down some branch and return a bound that means nothing."""
    bad = ~np.isfinite(F).all(axis=1)
    if bad.any():
        rows = np.flatnonzero(bad).tolist()
        raise ValueError(
            f"non-finite features in row(s) {rows}: {F[bad][:3].tolist()} "
            "(a field holding NaN or Inf has no predictable error bound)"
        )


class ErrorBoundModel:
    """Learned mapping (features, target ratio) -> error bound.

    The regressor defaults to FXRZ's random forest; the future-work
    alternatives ("gbt", "knn") plug in via ``model_kind``.
    """

    def __init__(self) -> None:
        self.forest = None  # the fitted regressor (historic name)
        self.info: TrainingInfo | None = None
        self.feature_names: list[str] = []
        self._eb_range: tuple[float, float] = (1e-300, 1e300)

    def fit(
        self,
        training: TrainingData,
        method: str = "bayesopt",
        space: SearchSpace | None = None,
        n_iter: int = 10,
        cv: int = 3,
        seed: int = 0,
        checkpoint: list | None = None,
        model_kind: str = "forest",
    ) -> "ErrorBoundModel":
        X, y = training.design_matrix()
        self.forest, self.info = train_model(
            X, y, method=method, model_kind=model_kind, space=space,
            n_iter=n_iter, cv=cv, seed=seed, checkpoint=checkpoint,
        )
        self.feature_names = training.feature_names
        all_ebs = np.concatenate([r.error_bounds for r in training.records])
        # Clamp predictions into (an expanded copy of) the trained range —
        # the forest cannot extrapolate beyond its leaves anyway.
        self._eb_range = (float(all_ebs.min()) * 0.1, float(all_ebs.max()) * 10.0)
        return self

    def predict_error_bound(
        self, features: np.ndarray, target_ratio: float, safety: float = 0.0
    ) -> float:
        """Predict the error bound for ``target_ratio``.

        ``safety`` shifts the prediction by that many across-tree standard
        deviations in log-eb space. Positive values pick a *larger* error
        bound, i.e. bias toward overshooting the requested ratio — what a
        storage-quota consumer wants (a too-small file is fine, a too-large
        one breaks the budget). Negative values bias toward preserving
        quality instead. Only the forest model family carries a spread;
        other model kinds ignore ``safety``.
        """
        return self.predict_error_bound_with_std(features, target_ratio, safety=safety)[0]

    def predict_error_bound_with_std(
        self, features: np.ndarray, target_ratio: float, safety: float = 0.0
    ) -> tuple[float, float]:
        """:meth:`predict_error_bound` plus the model's own spread.

        Returns ``(error_bound, std)`` where ``std`` is the across-tree
        standard deviation in log-eb space *before* any ``safety`` shift —
        the confidence signal the control plane escalates on. It is row 0
        of a one-row :meth:`predict_error_bound_batch_with_std`, so a
        scalar call and a batch row are the same bits by construction.
        """
        feats = np.asarray(features, dtype=np.float64).ravel()
        ebs, stds = self.predict_error_bound_batch_with_std(
            feats[None, :], [target_ratio], safety=safety
        )
        return float(ebs[0]), float(stds[0])

    def predict_error_bound_batch(
        self, features: np.ndarray, target_ratios, safety: float = 0.0
    ) -> np.ndarray:
        """Vectorized :meth:`predict_error_bound` over stacked requests.

        ``features`` is either one vector (shared by every ratio) or an
        ``(n, d)`` matrix aligned with ``target_ratios``. Every model
        predicts rows independently and a scalar call is a one-row batch,
        so element ``i`` of the result is bitwise-identical to a scalar
        call with ``features[i]`` and ``target_ratios[i]``.
        """
        return self.predict_error_bound_batch_with_std(
            features, target_ratios, safety=safety
        )[0]

    def predict_error_bound_batch_with_std(
        self, features: np.ndarray, target_ratios, safety: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`predict_error_bound_with_std`.

        The one body that calls the regressor. Returns ``(error_bounds,
        stds)`` aligned with ``target_ratios``; the stds are the
        pre-``safety`` across-tree spreads from the same single ensemble
        pass that produced the error bounds. Model kinds without a spread —
        including a degenerate forest whose trees are all identical
        (``has_spread`` False), whose zero spread is degeneracy, not
        confidence — report ``nan`` per element. A ratio that is not
        positive and finite raises ``ValueError``: the forest would route
        it down some branch and return a bound that means nothing. So does
        a ``safety`` that is not finite, which would shift every bound to
        ``nan`` or to an end of the clamp range.
        """
        if self.forest is None:
            raise RuntimeError("model is not fitted")
        if not np.isfinite(safety):
            raise ValueError(f"safety must be finite, got {safety}")
        ratios = np.asarray(target_ratios, dtype=np.float64).ravel()
        if ratios.size == 0:
            return np.empty(0), np.empty(0)
        bad = ~(np.isfinite(ratios) & (ratios > 0))
        if bad.any():
            raise ValueError(
                f"target_ratio must be positive and finite, got {ratios[bad][:3].tolist()}"
            )
        F = np.asarray(features, dtype=np.float64)
        if F.ndim == 1:
            F = np.broadcast_to(F, (ratios.size, F.size))
        elif F.shape[0] != ratios.size:
            raise ValueError(
                f"features rows ({F.shape[0]}) must match target_ratios ({ratios.size})"
            )
        _require_finite_rows(F)
        X = np.column_stack((F, np.log(ratios)))
        if hasattr(self.forest, "predict_with_std") and getattr(
            self.forest, "has_spread", True
        ):
            mean, stds = self.forest.predict_with_std(X)
            log_eb = np.asarray(mean, dtype=np.float64)
            stds = np.asarray(stds, dtype=np.float64)
        else:
            log_eb = np.asarray(self.forest.predict(X), dtype=np.float64)
            stds = np.full(ratios.size, np.nan)
        if safety:
            shift = np.where(np.isfinite(stds), stds, 0.0)
            log_eb = log_eb + float(safety) * shift
        return np.clip(np.exp(log_eb), *self._eb_range), stds

    @property
    def checkpoint(self) -> list | None:
        return self.info.checkpoint if self.info else None
