"""Bagging random-forest regressor (FXRZ's model class).

Hyper-parameters mirror scikit-learn's names because the paper specifies
its search space in those terms (Section 5.3): ``n_estimators``,
``max_features`` ("auto"/"sqrt"), ``max_depth``, ``min_samples_split``,
``min_samples_leaf``, ``bootstrap``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import (
    _LEAF,
    DecisionTreeRegressor,
    check_training_data,
    fit_trees,
)
from repro.obs import span

# (row, tree) pairs walked at once: keeps the traversal's temporaries at a
# few MiB however many rows one call brings.
_WALK_PAIRS = 1 << 16


class _FlatForest:
    """Every tree's node arrays concatenated, for one lockstep traversal.

    Child indices are offset into the concatenation and a leaf is its own
    child on both sides, so walking every ``(row, tree)`` pair for
    ``depth`` steps needs no per-pair "already at a leaf" bookkeeping.
    """

    def __init__(self, trees: list[DecisionTreeRegressor]) -> None:
        sizes = np.array([t.node_count for t in trees])
        self.roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        feature = np.concatenate([t.feature for t in trees])
        own = np.arange(feature.size)
        leaf = feature == _LEAF
        offsets = np.repeat(self.roots, sizes)
        self.left = np.where(leaf, own, np.concatenate([t.left for t in trees]) + offsets)
        self.right = np.where(leaf, own, np.concatenate([t.right for t in trees]) + offsets)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.value = np.concatenate([t.value for t in trees])
        self.depth = 0
        frontier = self.roots
        while True:
            frontier = frontier[~leaf[frontier]]
            if frontier.size == 0:
                break
            frontier = np.concatenate((self.left[frontier], self.right[frontier]))
            self.depth += 1

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(rows, trees)`` matrix of each tree's prediction per row of
        ``X`` — column ``k`` is ``trees[k].predict(X)`` bit for bit (same
        ``<=`` test, so a NaN feature goes right here as it does there)."""
        n_features = X.shape[1]
        flat = X.ravel()
        base = (np.arange(X.shape[0]) * n_features)[:, None]
        node = np.broadcast_to(self.roots, (X.shape[0], self.roots.size))
        for _ in range(self.depth):
            go_left = flat[base + self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]


class RandomForestRegressor:
    """Mean-aggregated ensemble of CART trees."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_features: int | str | None = "auto",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        bootstrap: bool = True,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = int(n_estimators)
        self.max_features = max_features
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.bootstrap = bool(bootstrap)
        self.random_state = random_state
        self.trees = []

    @property
    def trees(self) -> list[DecisionTreeRegressor]:
        """The fitted trees. Assigning the list (``fit``, model loading)
        drops the flat traversal arrays derived from the previous one."""
        return self._trees

    @trees.setter
    def trees(self, trees: list[DecisionTreeRegressor]) -> None:
        self._trees = trees
        self._flat: _FlatForest | None = None

    def get_params(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "max_features": self.max_features,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "bootstrap": self.bootstrap,
        }

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = check_training_data(X, y)
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        trees, rows = [], np.empty((self.n_estimators, n), dtype=np.intp)
        for t in range(self.n_estimators):
            # one seed, then one bootstrap draw, per tree: the stream order
            # a forest fitting its trees one after another consumes
            trees.append(
                DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=self.max_features,
                    random_state=rng.integers(0, 2**31),
                )
            )
            rows[t] = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
        with span("training.forest_fit", trees=self.n_estimators, rows=n) as sp:
            growth = fit_trees(trees, X, y, rows)
            sp.set(nodes=growth.nodes, rounds=growth.rounds,
                   widest_round=growth.widest_round, draws=growth.draws)
        self.trees = trees
        return self

    @property
    def has_spread(self) -> bool:
        """Whether the across-tree spread is a real uncertainty signal.

        With ``bootstrap=False`` and every feature considered at every
        split (``max_features`` None/"auto"), all trees solve the
        identical problem and agree exactly — a zero spread then means
        *degenerate ensemble*, not *confident ensemble*. Consumers of
        ``predict_with_std`` treat such a forest as exposing no spread
        at all (``nan``), the same as non-ensemble model kinds.
        """
        subsampled = self.max_features is not None and self.max_features != "auto"
        return self.bootstrap or subsampled

    def _reduce(self, X: np.ndarray, std: bool):
        """One forest traversal per block of rows, reduced to the across-tree
        mean and, when ``std`` asks for it, the spread (else ``None``).

        The reductions are the per-tree loops' own arithmetic: the mean
        accumulates tree by tree in ``trees`` order, the spread reduces the
        contiguous last axis of the ``(rows, trees)`` matrix. A row's result
        therefore does not depend on which rows share its call or its block,
        and equals what summing ``tree.predict`` over the trees gives.
        """
        if not self.trees:
            raise RuntimeError("forest is not fitted")
        if self._flat is None:
            self._flat = _FlatForest(self.trees)
        n, n_trees = X.shape[0], len(self.trees)
        means = np.zeros(n)
        stds = np.empty(n) if std else None
        block = max(_WALK_PAIRS // n_trees, 1)
        for start in range(0, n, block):
            rows = slice(start, start + block)
            preds = self._flat.leaf_values(X[rows])
            acc = means[rows]
            for k in range(n_trees):
                acc += preds[:, k]
            if std:
                stds[rows] = preds.std(axis=-1)
        means /= n_trees
        return means, stds

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        out, _ = self._reduce(X, std=False)
        return out[0] if single else out

    def predict_with_std(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean prediction and across-tree standard deviation from ONE
        ensemble pass; the mean is bitwise-identical to :meth:`predict`.

        The spread is a cheap epistemic-uncertainty proxy: where the trees
        disagree, the training data underdetermines the answer.
        :class:`repro.core.prediction.ErrorBoundModel` reports it with each
        predicted bound and shifts the bound by it under ``safety``.
        """
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        mean, std = self._reduce(X, std=True)
        return (mean[0], std[0]) if single else (mean, std)
