"""k-fold cross-validation (FXRZ's model-selection backbone)."""

from __future__ import annotations

from typing import Callable

import numpy as np


class KFold:
    """Shuffled k-fold splitter with deterministic seeding."""

    def __init__(
        self, n_splits: int = 5, shuffle: bool = True, random_state: int | None = 0
    ) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = int(n_splits)
        self.shuffle = bool(shuffle)
        self.random_state = random_state

    def split(self, n_samples: int):
        """Yield ``(train_idx, test_idx)`` pairs."""
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        idx = np.arange(n_samples)
        if self.shuffle:
            np.random.default_rng(self.random_state).shuffle(idx)
        folds = np.array_split(idx, self.n_splits)
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train, test


def cross_val_score(
    model_factory: Callable[[], object],
    X: np.ndarray,
    y: np.ndarray,
    cv: KFold | int = 5,
) -> np.ndarray:
    """Per-fold R^2 scores for models built by ``model_factory``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    splitter = cv if isinstance(cv, KFold) else KFold(n_splits=int(cv))
    scores = []
    for train, test in splitter.split(X.shape[0]):
        model = model_factory()
        model.fit(X[train], y[train])
        scores.append(r2_score(y[test], model.predict(X[test])))
    return np.array(scores)


def r2_score(y: np.ndarray, pred: np.ndarray) -> float:
    """Coefficient of determination R^2 of ``pred`` against float64 ``y``
    (higher is better; 0 when ``y`` is constant)."""
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
