"""Random-forest regressor unit tests."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor


class TestFit:
    def test_basic_regression(self, rng):
        X = rng.random((300, 4))
        y = 2 * X[:, 0] - X[:, 1] + 0.1 * rng.standard_normal(300)
        rf = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        assert rf.score(X, y) > 0.9

    def test_reproducible_with_seed(self, rng):
        X = rng.random((100, 3))
        y = rng.random(100)
        a = RandomForestRegressor(n_estimators=5, random_state=7).fit(X, y)
        b = RandomForestRegressor(n_estimators=5, random_state=7).fit(X, y)
        Xt = rng.random((20, 3))
        np.testing.assert_array_equal(a.predict(Xt), b.predict(Xt))

    def test_no_bootstrap_deterministic_trees(self, rng):
        X = rng.random((80, 3))
        y = X.sum(axis=1)
        rf = RandomForestRegressor(
            n_estimators=3, bootstrap=False, max_features=None, random_state=0
        ).fit(X, y)
        p0 = rf.trees[0].predict(X)
        p1 = rf.trees[1].predict(X)
        np.testing.assert_allclose(p0, p1)  # identical trees without bagging

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_unfitted_predict(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.ones((1, 2)))

    # The forest checks its input at its own door, bootstrap or not: a
    # bootstrap used to index X and y before anything had compared them.
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("n_targets", [4, 6], ids=["short-y", "long-y"])
    def test_mismatched_rows_rejected(self, bootstrap, n_targets):
        rf = RandomForestRegressor(n_estimators=3, bootstrap=bootstrap, random_state=0)
        with pytest.raises(ValueError, match="matching y"):
            rf.fit(np.ones((5, 3)), np.arange(float(n_targets)))

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_not_two_dimensional_rejected(self, bootstrap):
        rf = RandomForestRegressor(n_estimators=3, bootstrap=bootstrap, random_state=0)
        with pytest.raises(ValueError, match="matching y"):
            rf.fit(np.ones(5), np.ones(5))

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_empty_rejected(self, bootstrap):
        rf = RandomForestRegressor(n_estimators=3, bootstrap=bootstrap, random_state=0)
        with pytest.raises(ValueError, match="empty dataset"):
            rf.fit(np.zeros((0, 3)), np.zeros(0))


class TestPrediction:
    def test_single_vector_prediction(self, rng):
        X = rng.random((50, 3))
        y = X[:, 0]
        rf = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, y)
        out = rf.predict(X[0])
        assert np.isscalar(out) or out.ndim == 0

    def test_averaging_reduces_variance(self, rng):
        X = rng.random((400, 3))
        y = np.sin(5 * X[:, 0]) + 0.3 * rng.standard_normal(400)
        Xt = rng.random((200, 3))
        yt = np.sin(5 * Xt[:, 0])
        one = RandomForestRegressor(n_estimators=1, random_state=0).fit(X, y)
        many = RandomForestRegressor(n_estimators=30, random_state=0).fit(X, y)
        err_one = ((one.predict(Xt) - yt) ** 2).mean()
        err_many = ((many.predict(Xt) - yt) ** 2).mean()
        assert err_many < err_one

    def test_score_r2_bounds(self, rng):
        X = rng.random((100, 2))
        y = X[:, 0]
        rf = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        assert rf.score(X, y) <= 1.0


def _per_tree(rf, X):
    """The reference the flat traversal must match bit for bit: one
    ``tree.predict`` per tree, mean summed tree by tree, spread over the
    stacked last axis."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    preds = np.stack([tree.predict(X) for tree in rf.trees], axis=-1)
    mean = np.zeros(X.shape[0])
    for k in range(preds.shape[-1]):
        mean += preds[..., k]
    return mean / len(rf.trees), preds.std(axis=-1)


class TestFlatTraversal:
    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((400, 6))
        y = np.sin(X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(400)
        Q = rng.standard_normal((300, 6))
        Q[3, 2] = np.nan  # a NaN feature goes right at every split on it
        Q[7] = np.nan
        return X, y, Q

    @pytest.mark.parametrize(
        "params",
        [
            dict(n_estimators=15),
            dict(n_estimators=1),
            dict(n_estimators=7, max_depth=0),  # every tree a single leaf
            dict(n_estimators=200, max_depth=3),
            dict(n_estimators=30, bootstrap=False, max_features="sqrt"),
            dict(n_estimators=3, bootstrap=False, max_features=None),
            dict(n_estimators=40, min_samples_leaf=5),
        ],
        ids=lambda p: "-".join(f"{k}={v}" for k, v in p.items()),
    )
    def test_bitwise_equal_to_per_tree_prediction(self, problem, params, monkeypatch):
        X, y, Q = problem
        rf = RandomForestRegressor(random_state=1, **params).fit(X, y)
        mean, std = _per_tree(rf, Q)

        def check_batch_of_300():
            np.testing.assert_array_equal(rf.predict(Q), mean)
            np.testing.assert_array_equal(rf.predict_std(Q), std)
            both = rf.predict_with_std(Q)
            np.testing.assert_array_equal(both[0], mean)
            np.testing.assert_array_equal(both[1], std)

        check_batch_of_300()
        monkeypatch.setattr("repro.ml.forest._WALK_PAIRS", 2 * rf.n_estimators)
        check_batch_of_300()  # walked two rows at a time: same bits
        # batch of 1 vs batch of 300
        for i in (0, 3, 7, 299):
            assert np.array_equal(rf.predict(Q[i]), mean[i], equal_nan=True)
            assert np.array_equal(rf.predict_std(Q[i])[0], std[i], equal_nan=True)
            one = rf.predict_with_std(Q[i : i + 1])
            assert np.array_equal(one[0][0], mean[i], equal_nan=True)
            assert np.array_equal(one[1][0], std[i], equal_nan=True)

    def test_flat_arrays_follow_the_trees(self, problem):
        X, y, Q = problem
        rf = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, y)
        before = rf.predict(Q)
        rf.fit(X, -y)  # refit: the arrays derived from the old trees are dropped
        np.testing.assert_array_equal(rf.predict(Q), _per_tree(rf, Q)[0])
        assert not np.array_equal(rf.predict(Q), before)
        other = RandomForestRegressor(n_estimators=5, random_state=3).fit(X, y)
        rf.trees = other.trees  # what model loading does
        np.testing.assert_array_equal(rf.predict(Q), other.predict(Q))


class TestParams:
    def test_get_params_round_trip(self):
        rf = RandomForestRegressor(
            n_estimators=12, max_features="sqrt", max_depth=7,
            min_samples_split=5, min_samples_leaf=2, bootstrap=False,
        )
        p = rf.get_params()
        rf2 = RandomForestRegressor(**p)
        assert rf2.get_params() == p

    def test_memory_footprint_positive(self, rng):
        X = rng.random((60, 3))
        y = rng.random(60)
        rf = RandomForestRegressor(n_estimators=4, random_state=0).fit(X, y)
        assert rf.memory_footprint_bytes() > 0

    def test_memory_footprint_counts_every_node_array(self, rng):
        X = rng.random((60, 3))
        y = rng.random(60)
        rf = RandomForestRegressor(n_estimators=4, random_state=0).fit(X, y)
        arrays = ("feature", "threshold", "left", "right", "value", "n_samples", "mse")
        held = sum(getattr(tree, name).nbytes for tree in rf.trees for name in arrays)
        assert rf.memory_footprint_bytes() == held
        assert held == 7 * 8 * sum(tree.node_count for tree in rf.trees)
