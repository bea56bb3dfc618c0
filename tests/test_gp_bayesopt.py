"""Gaussian process and Bayesian optimization unit tests."""

import math

import numpy as np
import pytest

from repro.ml.bayesopt import BayesianOptimizer, _expected_improvement
from repro.ml.gp import GaussianProcess, matern52
from repro.ml.space import Choice, IntRange, SearchSpace


class TestKernel:
    def test_diagonal_is_one(self, rng):
        X = rng.random((10, 3))
        K = matern52(X, X, 0.5)
        np.testing.assert_allclose(np.diag(K), 1.0)

    def test_decays_with_distance(self):
        X1 = np.array([[0.0]])
        X2 = np.array([[0.0], [0.5], [2.0]])
        K = matern52(X1, X2, 0.5)[0]
        assert K[0] > K[1] > K[2] > 0

    def test_symmetric_psd(self, rng):
        X = rng.random((15, 2))
        K = matern52(X, X, 0.3)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-8


class TestGP:
    def test_interpolates_clean_data(self, rng):
        X = rng.random((25, 1))
        y = np.sin(6 * X[:, 0])
        gp = GaussianProcess().fit(X, y)
        pred = gp.predict(X)
        np.testing.assert_allclose(pred, y, atol=0.05)

    def test_uncertainty_grows_off_data(self, rng):
        X = rng.random((20, 1)) * 0.5  # observations in [0, 0.5]
        y = X[:, 0]
        gp = GaussianProcess().fit(X, y)
        _, std_on = gp.predict(np.array([[0.25]]), return_std=True)
        _, std_off = gp.predict(np.array([[0.95]]), return_std=True)
        assert std_off[0] > std_on[0]

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.ones((1, 2)))

    def test_bad_input_shapes(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.ones((3, 2)), np.ones(5))

    def test_constant_targets_handled(self, rng):
        X = rng.random((10, 2))
        gp = GaussianProcess().fit(X, np.full(10, 3.0))
        pred = gp.predict(X)
        np.testing.assert_allclose(pred, 3.0, atol=1e-6)


class TestExpectedImprovement:
    """The acquisition writes the normal cdf / pdf out instead of loading
    ``scipy.stats`` for them; pinned against the textbook closed form."""

    def test_matches_closed_form(self):
        z = np.concatenate((np.linspace(-30.0, 30.0, 601), [0.0, -0.0, 1e-300, -1e-300]))
        cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])
        pdf = np.array([math.exp(-v * v / 2.0) / math.sqrt(2.0 * math.pi) for v in z])
        for std in (1.0, 0.37, 5e3):
            got = _expected_improvement(z * std, np.full(z.size, std), 0.0)
            # z * cdf cancels against pdf in the lower tail, so the error is
            # judged against the terms, not against their difference
            tol = 1e-12 * std * (np.abs(z) * cdf + pdf)
            assert np.all(np.abs(got - std * (z * cdf + pdf)) <= tol)

    def test_non_finite_scores(self):
        mean = np.array([np.inf, -np.inf, np.nan, 0.0])
        with np.errstate(invalid="ignore"):
            ei = _expected_improvement(mean, np.ones(4), 0.0)
        # +inf improves without bound; -inf is 0 * inf, nan stays nan (both
        # lose every argmax to a finite candidate); z = 0 is the pdf's peak
        assert ei[0] == np.inf and np.isnan(ei[1]) and np.isnan(ei[2])
        assert ei[3] == 1.0 / math.sqrt(2.0 * math.pi)


class TestBayesOpt:
    @pytest.fixture()
    def simple_space(self):
        return SearchSpace({"x": IntRange(0, 100), "flag": Choice((True, False))})

    def test_finds_optimum_region(self, simple_space):
        def objective(params):
            return -((params["x"] - 70) ** 2) / 100.0 + (1.0 if params["flag"] else 0.0)

        bo = BayesianOptimizer(simple_space, n_initial=4, random_state=0)
        res = bo.run(objective, n_iter=18)
        assert abs(res.best_params["x"] - 70) <= 20
        assert res.best_params["flag"] is True

    def test_history_and_trajectory(self, simple_space):
        bo = BayesianOptimizer(simple_space, n_initial=2, random_state=0)
        res = bo.run(lambda p: float(p["x"]), n_iter=5)
        assert len(res.history) == 5
        assert len(res.trajectory("x")) == 5
        assert res.best_score == max(h.score for h in res.history)

    def test_checkpoint_round_trip(self, simple_space):
        bo = BayesianOptimizer(simple_space, n_initial=2, random_state=0)
        bo.run(lambda p: float(p["x"]), n_iter=4)
        state = bo.checkpoint()
        assert len(state) == 4
        warm = BayesianOptimizer.from_checkpoint(simple_space, state, random_state=1)
        assert warm.n_observations == 4
        res = warm.run(lambda p: float(p["x"]), n_iter=2)
        assert warm.n_observations == 6
        # warm restart retains the previous best
        assert res.best_score >= max(s for _, s in state)

    def test_warm_start_skips_random_phase(self, simple_space):
        """With enough prior observations, the first fresh suggestion is
        model-guided (exploitation) rather than uniform random."""
        state = [({"x": x, "flag": True}, -(x - 80) ** 2 / 10.0) for x in (0, 20, 40, 60, 80, 100)]
        warm = BayesianOptimizer.from_checkpoint(simple_space, state, random_state=0)
        suggestion = warm.suggest()
        assert abs(suggestion["x"] - 80) <= 25

    def test_observe_then_suggest(self, simple_space):
        bo = BayesianOptimizer(simple_space, n_initial=1, random_state=0)
        for x in (10, 50, 90):
            bo.observe({"x": x, "flag": False}, -abs(x - 50))
        params = bo.suggest()
        assert 0 <= params["x"] <= 100
