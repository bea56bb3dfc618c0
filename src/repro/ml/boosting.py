"""Gradient-boosted regression trees.

One of the "different machine learning models" the paper's conclusion
proposes exploring as future work. Standard least-squares boosting: each
stage fits a shallow CART tree to the current residuals and is added with a
learning rate. Shares the tree learner with the random forest, so the whole
model family stays NumPy-only.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeRegressor


class GradientBoostingRegressor:
    """L2 gradient boosting over shallow CART trees."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.subsample = float(subsample)
        self.random_state = random_state
        self.trees: list[DecisionTreeRegressor] = []
        self.base_value = 0.0

    def get_params(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "subsample": self.subsample,
        }

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.size or X.shape[0] == 0:
            raise ValueError("X must be (n, d) matching non-empty y")
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        self.base_value = float(y.mean())
        pred = np.full(n, self.base_value)
        self.trees = []
        for _ in range(self.n_estimators):
            residual = y - pred
            if self.subsample < 1.0:
                idx = rng.choice(n, size=max(int(n * self.subsample), 2), replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=rng.integers(0, 2**31),
            )
            tree.fit(X[idx], residual[idx])
            pred += self.learning_rate * tree.predict(X)
            self.trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        out = np.full(X.shape[0], self.base_value)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
        return out[0] if single else out
