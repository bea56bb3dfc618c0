"""Bayesian optimization over the hyper-parameter space (Section 5.3).

CAROL replaces FXRZ's randomized grid search with GP-based Bayesian
optimization: after an initial random design, each iteration fits a GP to
the observed (configuration, score) pairs and proposes the configuration
maximizing *expected improvement* over a candidate pool (exploration +
local perturbations of the incumbent = exploitation).

The optimizer's full state is its observation list, which makes
*checkpointing* trivial: ``checkpoint()`` / ``from_checkpoint()`` carry the
observations into a later training session, so model refreshes on new data
start warm instead of from scratch — the incremental-refinement behaviour
of Fig. 5a.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.ml.gp import GaussianProcess
from repro.ml.space import SearchSpace
from repro.obs import span


@dataclass
class BOIteration:
    """One objective evaluation."""

    params: dict
    score: float
    seconds: float
    kind: str  # "initial" | "warm" | "bo"


@dataclass
class BOResult:
    best_params: dict
    best_score: float
    history: list[BOIteration] = field(default_factory=list)
    elapsed: float = 0.0

    def trajectory(self, name: str) -> list:
        """Per-iteration values of one hyper-parameter (Fig. 5b series)."""
        return [it.params[name] for it in self.history]


def _expected_improvement(mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
    """EI of a Gaussian posterior over the incumbent ``best``; the standard
    normal's cdf is ``½·erfc(−z/√2)``, one ``math.erfc`` call per candidate
    (a pool is a few hundred), and its pdf ``exp(−z²/2)/√(2π)``."""
    z = (mean - best) / std
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    return (mean - best) * cdf + std * (np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi))


class BayesianOptimizer:
    """Expected-improvement BO over an encoded :class:`SearchSpace`."""

    def __init__(
        self,
        space: SearchSpace,
        n_initial: int = 5,
        n_candidates: int = 256,
        random_state: int | None = 0,
        observations: list[tuple[dict, float]] | None = None,
    ) -> None:
        self.space = space
        self.n_initial = int(n_initial)
        self.n_candidates = int(n_candidates)
        self._rng = np.random.default_rng(random_state)
        # Observations carried in from a checkpoint count as "warm" history.
        self._X: list[np.ndarray] = []
        self._y: list[float] = []
        self._warm = 0
        if observations:
            for params, score in observations:
                self._X.append(self.space.encode(params))
                self._y.append(float(score))
            self._warm = len(observations)

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> list[tuple[dict, float]]:
        """Serializable observation list (params dict, score)."""
        return [
            (self.space.decode(x), y) for x, y in zip(self._X, self._y)
        ]

    @classmethod
    def from_checkpoint(
        cls, space: SearchSpace, state: list[tuple[dict, float]], **kwargs
    ) -> "BayesianOptimizer":
        return cls(space, observations=state, **kwargs)

    # -- ask/tell --------------------------------------------------------------

    @property
    def n_observations(self) -> int:
        return len(self._y)

    def suggest(self) -> dict:
        """Next configuration to evaluate."""
        fresh = self.n_observations - self._warm
        if self.n_observations < max(self.n_initial, 2) and fresh < self.n_initial:
            if self._warm == 0 or fresh < max(self.n_initial - self._warm, 1):
                return self.space.sample(self._rng)
        return self._suggest_ei()

    def _suggest_ei(self) -> dict:
        X = np.vstack(self._X)
        y = np.array(self._y)
        # A non-finite score stays in the history but teaches the GP nothing.
        finite = np.isfinite(y)
        if not finite.any():
            return self.space.sample(self._rng)
        X, y = X[finite], y[finite]
        gp = GaussianProcess().fit(X, y)
        best = y.max()

        d = self.space.dim
        cand = self._rng.random((self.n_candidates, d))
        # Exploitation: jitter around the incumbent.
        incumbent = X[int(np.argmax(y))]
        local = np.clip(
            incumbent + 0.08 * self._rng.standard_normal((self.n_candidates // 4, d)),
            0.0,
            1.0,
        )
        cand = np.vstack((cand, local))
        mean, std = gp.predict(cand, return_std=True)
        ei = _expected_improvement(mean, std, best)
        return self.space.decode(cand[int(np.argmax(ei))])

    def observe(self, params: dict, score: float) -> None:
        self._X.append(self.space.encode(params))
        self._y.append(float(score))

    # -- driver ------------------------------------------------------------------

    def run(self, objective: Callable[[dict], float], n_iter: int = 10) -> BOResult:
        """Evaluate ``objective`` (higher = better) for ``n_iter`` iterations."""
        start = time.perf_counter()
        history: list[BOIteration] = []
        for i in range(n_iter):
            fresh = self.n_observations - self._warm
            kind = "initial" if (self._warm == 0 and fresh < self.n_initial) else "bo"
            if self._warm and i == 0:
                kind = "warm"
            with span("training.iteration", method="bayesopt", i=i, kind=kind) as sp:
                params = self.suggest()
                t0 = time.perf_counter()
                score = float(objective(params))
                sp.set(params=dict(params), score=score)
            history.append(
                BOIteration(params=params, score=score, seconds=time.perf_counter() - t0, kind=kind)
            )
            self.observe(params, score)
        y = np.array(self._y)
        best_idx = int(np.argmax(np.where(np.isfinite(y), y, -np.inf)))
        if not np.isfinite(y[best_idx]):
            raise ValueError(f"all {y.size} objective scores are non-finite")
        best_params = self.space.decode(self._X[best_idx])
        return BOResult(
            best_params=best_params,
            best_score=float(y[best_idx]),
            history=history,
            elapsed=time.perf_counter() - start,
        )
