"""FXRZ's randomized grid search with k-fold cross-validation.

Samples a fixed number of unique configurations (the paper uses 10) from
the hyper-parameter space, scores each by k-fold cross-validated R^2, and
refits the winner on all data. Per-configuration fit times and model
memory footprints are recorded so the Fig. 5a harness can model the
paper's parallel-training memory wall.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ml.models import make_model
from repro.ml.kfold import KFold, cross_val_score
from repro.ml.space import SearchSpace
from repro.obs import span


@dataclass
class SearchRecord:
    """One evaluated configuration."""

    params: dict
    score: float
    fit_seconds: float
    memory_bytes: int = 0


@dataclass
class SearchResult:
    best_params: dict
    best_score: float
    model: object
    records: list[SearchRecord] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def total_fit_seconds(self) -> float:
        return sum(r.fit_seconds for r in self.records)


class RandomizedGridSearch:
    """Randomized configuration sampling + CV scoring (FXRZ's trainer)."""

    def __init__(
        self,
        space: SearchSpace,
        n_iter: int = 10,
        cv: int = 5,
        random_state: int | None = 0,
        model_kind: str = "forest",
    ) -> None:
        self.space = space
        self.n_iter = int(n_iter)
        self.cv = int(cv)
        self.random_state = random_state
        self.model_kind = model_kind

    def _sample_unique(self, rng: np.random.Generator) -> list[dict]:
        seen: set[tuple] = set()
        out: list[dict] = []
        attempts = 0
        while len(out) < self.n_iter and attempts < 50 * self.n_iter:
            params = self.space.sample(rng)
            key = tuple(params[n] for n in self.space.names)
            attempts += 1
            if key not in seen:
                seen.add(key)
                out.append(params)
        return out

    def fit(self, X: np.ndarray, y: np.ndarray) -> SearchResult:
        rng = np.random.default_rng(self.random_state)
        start = time.perf_counter()
        records: list[SearchRecord] = []
        kfold = KFold(n_splits=self.cv, random_state=0)
        for i, params in enumerate(self._sample_unique(rng)):
            with span("training.iteration", method="grid", i=i) as sp:
                t0 = time.perf_counter()
                scores = cross_val_score(
                    lambda p=params: make_model(self.model_kind, random_state=0, **p),
                    X, y, cv=kfold,
                )
                fit_s = time.perf_counter() - t0
                sp.set(params=dict(params), score=float(scores.mean()))
            # Analytical footprint: ~2*n/min_samples_leaf nodes per tree,
            # seven 8-byte arrays per node (avoids an extra probe fit).
            nodes_per_tree = max(2 * X.shape[0] // params.get("min_samples_leaf", 1), 3)
            mem = params.get("n_estimators", 1) * nodes_per_tree * 7 * 8
            records.append(
                SearchRecord(
                    params=params,
                    score=float(scores.mean()),
                    fit_seconds=fit_s,
                    memory_bytes=int(mem),
                )
            )
        best = max(records, key=lambda r: r.score)
        model = make_model(self.model_kind, random_state=0, **best.params).fit(X, y)
        return SearchResult(
            best_params=best.params,
            best_score=best.score,
            model=model,
            records=records,
            elapsed=time.perf_counter() - start,
        )
