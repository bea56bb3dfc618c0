"""Gaussian-process regression with a Matérn 5/2 kernel.

The surrogate model behind CAROL's Bayesian-optimization trainer. Inputs
live in the unit hypercube (the encoded hyper-parameter space), outputs are
standardized internally. From three observations on, the kernel
hyper-parameters (lengthscale, signal and noise variance) are the point of
a fixed log grid with the lowest negative log marginal likelihood: no
restarts, no randomness, and milliseconds for the tens of observations BO
holds.
"""

from __future__ import annotations

import numpy as np

_SQRT5 = np.sqrt(5.0)
_JITTER = 1e-10
#: The hyper-parameter grid in natural-log space: lengthscale, signal
#: variance and noise variance, each axis evenly spaced over its box.
_LOG_LENGTHSCALE = np.linspace(-4.0, 2.0, 13)
_LOG_SIGNAL = np.linspace(-4.0, 4.0, 9)
_LOG_NOISE = np.linspace(-16.0, 0.0, 9)


def matern52(X1: np.ndarray, X2: np.ndarray, lengthscale: float) -> np.ndarray:
    """Matérn 5/2 correlation matrix between row sets ``X1`` and ``X2``."""
    d = np.sqrt(((X1[:, None, :] - X2[None, :, :]) ** 2).sum(axis=2)) / lengthscale
    return (1.0 + _SQRT5 * d + 5.0 / 3.0 * d * d) * np.exp(-_SQRT5 * d)


def _nll_stack(K: np.ndarray, y: np.ndarray) -> np.ndarray:
    """½‖L⁻¹y‖² + Σ log diag L for each matrix of the (g, n, n) stack ``K``;
    a matrix that is not positive definite scores +inf."""
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        # one failed factorization fails the whole call: score one by one
        if len(K) == 1:
            return np.array([np.inf])
        return np.concatenate([_nll_stack(k[None], y) for k in K])
    z = np.linalg.solve(L, y[None, :, None])[..., 0]
    return 0.5 * (z * z).sum(axis=-1) + np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=-1)


def _grid_nll(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Negative log marginal likelihood, constant dropped, at every grid point,
    shape (13, 9, 9); one lengthscale's 81 matrices are factorized at a time."""
    n = X.shape[0]
    signal = np.exp(_LOG_SIGNAL)[:, None, None, None]
    noise = (np.exp(_LOG_NOISE) + _JITTER)[:, None, None] * np.eye(n)
    nll = np.empty((_LOG_LENGTHSCALE.size, _LOG_SIGNAL.size * _LOG_NOISE.size))
    for i, lengthscale in enumerate(np.exp(_LOG_LENGTHSCALE)):
        K = signal * matern52(X, X, lengthscale) + noise
        nll[i] = _nll_stack(K.reshape(-1, n, n), y)
    return nll.reshape(_LOG_LENGTHSCALE.size, _LOG_SIGNAL.size, _LOG_NOISE.size)


class GaussianProcess:
    """Exact GP regressor; ``fit`` picks kernel hyper-parameters from the grid."""

    def __init__(
        self,
        lengthscale: float = 0.3,
        signal_var: float = 1.0,
        noise_var: float = 1e-4,
    ) -> None:
        self.lengthscale = float(lengthscale)
        self.signal_var = float(signal_var)
        self.noise_var = float(noise_var)
        self._X: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._chol = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.size or X.shape[0] == 0:
            raise ValueError("X must be (n, d) matching non-empty y")
        if not np.isfinite(y).all():
            raise ValueError("y must be finite; got non-finite y values")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        yn = (y - self._y_mean) / self._y_std

        if X.shape[0] >= 3:
            nll = _grid_nll(X, yn)
            i, j, k = np.unravel_index(int(np.argmin(nll)), nll.shape)
            self.lengthscale = float(np.exp(_LOG_LENGTHSCALE[i]))
            self.signal_var = float(np.exp(_LOG_SIGNAL[j]))
            self.noise_var = float(np.exp(_LOG_NOISE[k]))

        K = self.signal_var * matern52(X, X, self.lengthscale)
        K += (self.noise_var + _JITTER) * np.eye(X.shape[0])
        self._chol = np.linalg.cholesky(K)
        self._alpha = np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, yn))
        self._X = X
        return self

    def predict(self, X: np.ndarray, return_std: bool = False):
        if self._X is None:
            raise RuntimeError("GP is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        Ks = self.signal_var * matern52(X, self._X, self.lengthscale)
        mean = Ks @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = np.linalg.solve(self._chol, Ks.T)
        var = np.maximum(self.signal_var - (v * v).sum(axis=0), 1e-12)
        return mean, np.sqrt(var) * self._y_std
