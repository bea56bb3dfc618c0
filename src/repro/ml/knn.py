"""k-nearest-neighbours regressor (alternative model, paper future work).

Simple but a strong baseline here: the error-bound prediction problem is
low-dimensional (five features + log target ratio) and the training rows
tile the feature x ratio plane densely, which suits local interpolation.
Features are standardized internally so the Euclidean metric is meaningful;
predictions optionally weight neighbours by inverse distance.
"""

from __future__ import annotations

import numpy as np


class KNeighborsRegressor:
    """Brute-force kNN with z-scored features."""

    def __init__(self, n_neighbors: int = 5, weights: str = "distance") -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if weights not in ("uniform", "distance"):
            raise ValueError("weights must be 'uniform' or 'distance'")
        self.n_neighbors = int(n_neighbors)
        self.weights = weights
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._mu: np.ndarray | None = None
        self._sigma: np.ndarray | None = None

    def get_params(self) -> dict:
        return {"n_neighbors": self.n_neighbors, "weights": self.weights}

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNeighborsRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.size or X.shape[0] == 0:
            raise ValueError("X must be (n, d) matching non-empty y")
        self._mu = X.mean(axis=0)
        self._sigma = X.std(axis=0)
        self._sigma[self._sigma == 0] = 1.0
        self._X = (X - self._mu) / self._sigma
        self._y = y
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._X is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        Q = (X - self._mu) / self._sigma
        # (q, n) squared distances, vectorized.
        d2 = ((Q[:, None, :] - self._X[None, :, :]) ** 2).sum(axis=2)
        k = min(self.n_neighbors, self._X.shape[0])
        idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
        rows = np.arange(Q.shape[0])[:, None]
        if self.weights == "uniform":
            out = self._y[idx].mean(axis=1)
        else:
            w = 1.0 / np.sqrt(d2[rows, idx] + 1e-12)
            out = (self._y[idx] * w).sum(axis=1) / w.sum(axis=1)
        return out[0:1][0] if single else out
