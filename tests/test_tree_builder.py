"""The lockstep builder against the node-at-a-time one it replaced.

``tests/tree_oracle.py`` is that builder, verbatim. Everything here asks
one question: does ``repro.ml.tree`` still train the same trees — the
seven arrays per tree equal in dtype, shape and every bit, node numbering
included.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.ml import tree as tree_module
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from tests.tree_oracle import ARRAYS, reference_forest, reference_tree


def differing(tree: DecisionTreeRegressor, ref: dict[str, np.ndarray]) -> list[str]:
    """Names of the arrays of ``tree`` that are not ``ref``'s, bit for bit."""
    return [
        name
        for name in ARRAYS
        if getattr(tree, name).dtype != ref[name].dtype
        or getattr(tree, name).shape != ref[name].shape
        or getattr(tree, name).tobytes() != ref[name].tobytes()
    ]


def arrays_of(tree: DecisionTreeRegressor) -> dict[str, np.ndarray]:
    return {name: getattr(tree, name) for name in ARRAYS}


def forest_differences(X, y, **params) -> list[tuple[int, str]]:
    got = RandomForestRegressor(**params).fit(X, y)
    ref = reference_forest(X, y, **params)
    assert len(got.trees) == len(ref)
    return [(t, name) for t, tree in enumerate(got.trees) for name in differing(tree, ref[t])]


def problem(n: int, f: int, tied: bool, seed: int = 0):
    rng = np.random.default_rng(seed + 31 * n + f)
    X = rng.random((n, f))
    y = rng.random(n) + X[:, 0]
    if tied:  # few distinct values: equal keys, equal scores, constant nodes
        X = np.round(X * 4) / 4
        y = np.round(y * 8) / 8
    return X, y


GRID = list(
    itertools.product(
        ("auto", "sqrt", 1),  # max_features
        (None, 1, 4, 10),  # max_depth
        (2, 10),  # min_samples_split
        (1, 4),  # min_samples_leaf
        (True, False),  # bootstrap
    )
)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 60, 420])
def test_reference_matrix(n):
    """6 row counts x 3 widths x tied or not x 96 settings = 3 456 forests."""
    bad = []
    for f, tied in itertools.product((1, 3, 6), (False, True)):
        X, y = problem(n, f, tied)
        for mf, depth, mss, msl, boot in GRID:
            params = dict(
                n_estimators=2, max_features=mf, max_depth=depth, min_samples_split=mss,
                min_samples_leaf=msl, bootstrap=boot, random_state=7,
            )
            bad += [(f, tied, params, diff) for diff in forest_differences(X, y, **params)]
    assert bad == []


@pytest.mark.parametrize("block, padding", [(1, 0), (64, 8), (1 << 10, 1 << 30)])
def test_block_constants_decide_speed_only(monkeypatch, block, padding):
    """However a round is cut into blocks — every node alone, nodes
    larger than a block, no cap on padding — the trees are the same."""
    monkeypatch.setattr(tree_module, "_BLOCK_ELEMS", block)
    monkeypatch.setattr(tree_module, "_PAD_ELEMS", padding)
    X, y = problem(200, 5, tied=True)
    for mf, boot in itertools.product(("auto", "sqrt"), (True, False)):
        assert forest_differences(
            X, y, n_estimators=6, max_features=mf, bootstrap=boot, random_state=2
        ) == []


@pytest.mark.parametrize("max_features", [None, "sqrt", 2])
def test_generator_as_random_state_is_consumed_alike(max_features):
    X, y = problem(90, 5, tied=False)
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    tree = DecisionTreeRegressor(max_features=max_features, random_state=ours).fit(X, y)
    ref = reference_tree(X, y, max_features=max_features, random_state=theirs)
    assert differing(tree, ref) == []
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize(
    "X, y",
    [
        (np.array([[1.0, 2.0]]), np.array([5.0])),  # one row
        (np.random.default_rng(0).random((40, 3)), np.full(40, 2.5)),  # constant y
        (np.ones((25, 2)), np.arange(25.0)),  # all-equal X: nothing to cut
        (np.repeat(np.arange(4.0), 5)[:, None], np.arange(20.0) % 3),  # ties only
        (np.empty((6, 0)), np.arange(6.0)),  # no feature at all
    ],
    ids=["one-row", "constant-y", "constant-X", "ties", "no-features"],
)
@pytest.mark.parametrize("max_features", ["auto", "sqrt"])
def test_degenerate_inputs(X, y, max_features):
    for boot in (True, False):
        assert forest_differences(
            X, y, n_estimators=4, max_features=max_features, bootstrap=boot, random_state=3
        ) == []


@pytest.mark.parametrize("max_features", ["auto", "sqrt"])
def test_non_finite_features(max_features):
    """NaN sorts last and never equals itself; infinities are ordinary
    values; -0.0 ties with 0.0. The old builder trained on all of it."""
    rng = np.random.default_rng(5)
    X, y = problem(80, 4, tied=True)
    X[rng.random(X.shape) < 0.15] = np.nan
    X[rng.random(X.shape) < 0.08] = np.inf
    X[rng.random(X.shape) < 0.08] = -np.inf
    X[X == 0] = -0.0
    X[::2][X[::2] == 0] = 0.0
    for boot, msl in itertools.product((True, False), (1, 3)):
        assert forest_differences(
            X, y, n_estimators=4, max_features=max_features, bootstrap=boot,
            min_samples_leaf=msl, random_state=9,
        ) == []


def test_depth_zero_and_leaf_size_zero():
    X, y = problem(50, 3, tied=False)
    for params in (dict(max_depth=0), dict(min_samples_leaf=0, min_samples_split=1)):
        assert forest_differences(X, y, n_estimators=2, random_state=1, **params) == []


@pytest.mark.parametrize("max_features", ["auto", "sqrt"])
def test_forest_tree_is_the_tree_fitted_alone(max_features):
    """Growing with the others changes nothing: tree ``t`` is what a
    DecisionTreeRegressor with the seed the forest drew fits on the
    bootstrap rows the forest drew."""
    X, y = problem(150, 6, tied=False)
    forest = RandomForestRegressor(
        n_estimators=5, max_features=max_features, bootstrap=True, random_state=21
    ).fit(X, y)
    rng = np.random.default_rng(21)
    for tree in forest.trees:
        seed = rng.integers(0, 2**31)
        rows = rng.integers(0, len(y), size=len(y))
        assert tree.random_state == seed
        alone = DecisionTreeRegressor(max_features=max_features, random_state=seed)
        alone.fit(X[rows], y[rows])
        assert differing(tree, arrays_of(alone)) == []


@pytest.mark.parametrize("subsample", [1.0, 0.6])
def test_boosting_stages(subsample):
    """Boosting fits one tree at a time through the same builder: same
    trees as stages built on the reference, same predictions."""
    X, y = problem(200, 4, tied=False)
    params = dict(
        n_estimators=12, learning_rate=0.3, max_depth=3, min_samples_leaf=2, subsample=subsample
    )
    model = GradientBoostingRegressor(random_state=4, **params).fit(X, y)

    expected = GradientBoostingRegressor(random_state=4, **params)
    expected.base_value = float(y.mean())
    rng = np.random.default_rng(4)
    n = len(y)
    pred = np.full(n, expected.base_value)
    for _ in range(params["n_estimators"]):
        residual = y - pred
        if subsample < 1.0:
            idx = rng.choice(n, size=max(int(n * subsample), 2), replace=False)
        else:
            idx = np.arange(n)
        stage = DecisionTreeRegressor()
        ref = reference_tree(
            X[idx], residual[idx], max_depth=3, min_samples_leaf=2,
            random_state=rng.integers(0, 2**31),
        )
        for name in ARRAYS:
            setattr(stage, name, ref[name])
        pred += params["learning_rate"] * stage.predict(X)
        expected.trees.append(stage)

    assert len(model.trees) == len(expected.trees)
    for tree, stage in zip(model.trees, expected.trees):
        assert differing(tree, arrays_of(stage)) == []
    assert model.predict(X).tobytes() == expected.predict(X).tobytes()


def test_leading_zero_reduceat_is_ndarray_sum():
    """What the builder's node means and variances stand on:
    ``np.add.reduceat`` over segments laid out behind one leading 0.0 each
    gives ``0 + pairwise(segment)``, bit for bit ``segment.sum()``. A NumPy
    whose pairwise blocking changes fails here, by name, rather than as
    silent model drift."""
    rng = np.random.default_rng(0)
    lengths = np.repeat(np.arange(1, 301), 3)
    segments = [rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) for n in lengths]
    laid_out = np.concatenate([np.concatenate(([0.0], seg)) for seg in segments])
    heads = np.cumsum(lengths + 1) - (lengths + 1)
    sums = np.add.reduceat(laid_out, heads)
    wrong = [int(n) for n, seg, s in zip(lengths, segments, sums) if seg.sum() != s]
    assert wrong == []
