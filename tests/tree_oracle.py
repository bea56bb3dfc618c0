"""The per-node tree builder ``repro.ml.tree`` shipped before the lockstep
one, kept verbatim as the test-side reference.

``reference_tree`` is the old ``DecisionTreeRegressor.fit`` (one stack
loop, one ``_best_split`` per node) and ``reference_forest`` the old
``RandomForestRegressor.fit`` around it. The builder under ``src/`` must
reproduce their seven arrays per tree bit for bit, node numbering
included; nothing here is imported by the package.
"""

from __future__ import annotations

import numpy as np

_LEAF = -1
ARRAYS = ("feature", "threshold", "left", "right", "value", "n_samples", "mse")


def _n_candidate_features(max_features, n_features: int) -> int:
    if max_features is None or max_features == "auto":
        return n_features
    if max_features == "sqrt":
        return max(int(np.sqrt(n_features)), 1)
    return max(min(int(max_features), n_features), 1)


def reference_tree(X, y, *, max_depth=None, min_samples_split=2, min_samples_leaf=1,
                   max_features=None, random_state=None) -> dict[str, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be (n_samples, n_features) matching y")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    rng = (
        random_state
        if isinstance(random_state, np.random.Generator)
        else np.random.default_rng(random_state)
    )
    n, f = X.shape
    k = _n_candidate_features(max_features, f)
    max_depth = max_depth if max_depth is not None else np.inf

    feature, threshold, left, right, value, counts, mses = [], [], [], [], [], [], []

    def new_node() -> int:
        for lst, fill in (
            (feature, _LEAF),
            (threshold, 0.0),
            (left, _LEAF),
            (right, _LEAF),
            (value, 0.0),
            (counts, 0),
            (mses, 0.0),
        ):
            lst.append(fill)
        return len(feature) - 1

    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
    msl = min_samples_leaf
    while stack:
        node, idx, depth = stack.pop()
        yn = y[idx]
        m = idx.size
        value[node] = float(yn.mean())
        counts[node] = m
        mses[node] = float(yn.var())
        if (
            m < min_samples_split
            or m < 2 * msl
            or depth >= max_depth
            or mses[node] <= 1e-30
        ):
            continue
        feat_ids = (
            np.arange(f) if k >= f else rng.choice(f, size=k, replace=False)
        )
        split = _best_split(X, yn, idx, feat_ids, msl)
        if split is None:
            continue
        fid, thr, left_mask = split
        feature[node] = int(fid)
        threshold[node] = float(thr)
        l_id, r_id = new_node(), new_node()
        left[node] = l_id
        right[node] = r_id
        stack.append((l_id, idx[left_mask], depth + 1))
        stack.append((r_id, idx[~left_mask], depth + 1))

    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "value": np.array(value),
        "n_samples": np.array(counts, dtype=np.int64),
        "mse": np.array(mses),
    }


def _best_split(
    X: np.ndarray, yn: np.ndarray, idx: np.ndarray, feat_ids: np.ndarray, msl: int
):
    """Minimize child SSE over all (feature, threshold) candidates."""
    Xn = X[np.ix_(idx, feat_ids)]  # (m, k)
    m = Xn.shape[0]
    order = np.argsort(Xn, axis=0, kind="stable")
    Xs = np.take_along_axis(Xn, order, axis=0)
    ys = yn[order]  # (m, k): y sorted per feature
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    total_sum = csum[-1]
    total_sq = csq[-1]

    sizes = np.arange(1, m, dtype=np.float64)[:, None]  # left sizes 1..m-1
    left_sum = csum[:-1]
    left_sq = csq[:-1]
    right_sum = total_sum[None, :] - left_sum
    right_sq = total_sq[None, :] - left_sq
    left_sse = left_sq - left_sum**2 / sizes
    right_sse = right_sq - right_sum**2 / (m - sizes)
    score = left_sse + right_sse

    valid = Xs[1:] != Xs[:-1]
    if msl > 1:
        pos = np.arange(1, m)[:, None]
        valid &= (pos >= msl) & (m - pos >= msl)
    if not valid.any():
        return None
    score = np.where(valid, score, np.inf)
    flat = int(np.argmin(score))
    row, col = np.unravel_index(flat, score.shape)
    thr = 0.5 * (Xs[row, col] + Xs[row + 1, col])
    fid = int(feat_ids[col])
    left_mask = X[idx, fid] <= thr
    # Guard against degenerate masks from midpoint rounding.
    ls = int(left_mask.sum())
    if ls == 0 or ls == m:
        left_mask = X[idx, fid] <= Xs[row, col]
        ls = int(left_mask.sum())
        if ls == 0 or ls == m:
            return None
        thr = Xs[row, col]
    return fid, thr, left_mask


def reference_forest(X, y, *, n_estimators, max_features="auto", max_depth=None,
                     min_samples_split=2, min_samples_leaf=1, bootstrap=True,
                     random_state=None) -> list[dict[str, np.ndarray]]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    rng = np.random.default_rng(random_state)
    n = X.shape[0]
    trees = []
    for _ in range(n_estimators):
        seed = rng.integers(0, 2**31)
        rows = rng.integers(0, n, size=n) if bootstrap else slice(None)
        trees.append(
            reference_tree(
                X[rows], y[rows],
                max_depth=max_depth,
                min_samples_split=min_samples_split,
                min_samples_leaf=min_samples_leaf,
                max_features=max_features,
                random_state=seed,
            )
        )
    return trees
