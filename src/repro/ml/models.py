"""Model registry: the forest plus the future-work alternatives.

The paper's conclusion proposes "utilizing different machine learning
models"; this registry lets the frameworks swap the regressor while keeping
the same trainer (grid search or Bayesian optimization), since every model
exposes ``fit`` / ``predict`` / ``get_params`` (cross-validation scores
its predictions with :func:`repro.ml.kfold.r2_score`) and has a matching
hyper-parameter search space.
"""

from __future__ import annotations

from typing import Callable

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.space import Choice, IntRange, SCALED_SPACE, SearchSpace

MODEL_KINDS = ("forest", "gbt", "knn")

_FACTORIES: dict[str, Callable] = {
    "forest": RandomForestRegressor,
    "gbt": GradientBoostingRegressor,
    "knn": KNeighborsRegressor,
}

GBT_SPACE = SearchSpace(
    {
        "n_estimators": IntRange(20, 200, 20),
        "learning_rate": Choice((0.03, 0.1, 0.3)),
        "max_depth": IntRange(2, 6),
        "min_samples_leaf": Choice((1, 2, 4)),
        "subsample": Choice((0.6, 0.8, 1.0)),
    }
)

KNN_SPACE = SearchSpace(
    {
        "n_neighbors": IntRange(1, 25),
        "weights": Choice(("uniform", "distance")),
    }
)

_SPACES: dict[str, SearchSpace] = {
    "forest": SCALED_SPACE,
    "gbt": GBT_SPACE,
    "knn": KNN_SPACE,
}


def make_model(kind: str, **params):
    """Instantiate a regressor by kind name."""
    if kind not in _FACTORIES:
        raise KeyError(f"unknown model kind {kind!r}; available: {MODEL_KINDS}")
    if kind == "forest":
        # random_state is a constructor arg for the stochastic models
        return _FACTORIES[kind](**params)
    if kind == "gbt":
        return _FACTORIES[kind](**params)
    return _FACTORIES[kind](**{k: v for k, v in params.items() if k != "random_state"})


def default_space(kind: str) -> SearchSpace:
    """Default hyper-parameter space for a model kind."""
    if kind not in _SPACES:
        raise KeyError(f"unknown model kind {kind!r}; available: {MODEL_KINDS}")
    return _SPACES[kind]
