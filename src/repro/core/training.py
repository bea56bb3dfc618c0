"""Model training for the frameworks (Section 5.3).

Two trainers over a pluggable model family (random forest by default, plus
the future-work alternatives in :mod:`repro.ml.models`):

- ``method="grid"`` — FXRZ's randomized grid search with k-fold CV;
- ``method="bayesopt"`` — CAROL's GP Bayesian optimization; accepts a
  checkpoint (observation list) from a previous run for warm-started
  incremental refinement.

Both return the refit winner plus a :class:`TrainingInfo` with timing and
search history so the Fig. 5 / Fig. 8 harnesses need no extra hooks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ml.bayesopt import BayesianOptimizer, BOResult
from repro.ml.kfold import KFold, cross_val_score
from repro.ml.models import default_space, make_model
from repro.ml.space import SearchSpace
from repro.obs import span


@dataclass
class TrainingInfo:
    method: str
    best_params: dict
    best_score: float
    elapsed: float
    n_evaluations: int
    checkpoint: list | None = None  # BO observations for warm restarts
    history: list = field(default_factory=list)
    model_kind: str = "forest"


def _cv_objective(X: np.ndarray, y: np.ndarray, cv: int, seed: int, kind: str):
    kfold = KFold(n_splits=cv, random_state=seed)

    def objective(params: dict) -> float:
        scores = cross_val_score(
            lambda: make_model(kind, random_state=seed, **params), X, y, cv=kfold
        )
        return float(scores.mean())

    return objective


def train_model(
    X: np.ndarray,
    y: np.ndarray,
    method: str = "bayesopt",
    model_kind: str = "forest",
    space: SearchSpace | None = None,
    n_iter: int = 10,
    cv: int = 3,
    seed: int = 0,
    checkpoint: list | None = None,
) -> tuple[object, TrainingInfo]:
    """Search hyper-parameters, refit the winner, return (model, info)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    cv = min(cv, X.shape[0])
    space = space if space is not None else default_space(model_kind)
    start = time.perf_counter()

    if method == "grid":
        from repro.ml.grid_search import RandomizedGridSearch

        search = RandomizedGridSearch(
            space, n_iter=n_iter, cv=cv, random_state=seed, model_kind=model_kind
        )
        with span("training.search", method="grid", model_kind=model_kind,
                  n_iter=n_iter, cv=cv, n_rows=X.shape[0]):
            result = search.fit(X, y)
        info = TrainingInfo(
            method="grid",
            best_params=result.best_params,
            best_score=result.best_score,
            elapsed=time.perf_counter() - start,
            n_evaluations=len(result.records),
            history=result.records,
            model_kind=model_kind,
        )
        return result.model, info

    if method == "bayesopt":
        optimizer = BayesianOptimizer(
            space,
            n_initial=max(min(n_iter // 2, 5), 2),
            random_state=seed,
            observations=checkpoint,
        )
        # A warm-started refresh needs fewer fresh evaluations — the paper's
        # "checkpointing of the training process".
        iters = max(n_iter // 2, 3) if checkpoint else n_iter
        with span("training.search", method="bayesopt", model_kind=model_kind,
                  n_iter=iters, cv=cv, n_rows=X.shape[0],
                  warm_start=checkpoint is not None):
            result: BOResult = optimizer.run(
                _cv_objective(X, y, cv, seed, model_kind), n_iter=iters
            )
        model = make_model(model_kind, random_state=seed, **result.best_params).fit(X, y)
        info = TrainingInfo(
            method="bayesopt",
            best_params=result.best_params,
            best_score=result.best_score,
            elapsed=time.perf_counter() - start,
            n_evaluations=len(result.history),
            checkpoint=optimizer.checkpoint(),
            history=result.history,
            model_kind=model_kind,
        )
        return model, info

    raise ValueError("method must be 'grid' or 'bayesopt'")
