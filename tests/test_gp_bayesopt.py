"""Gaussian process and Bayesian optimization unit tests."""

import math

import numpy as np
import pytest

from repro.ml import gp as gp_module
from repro.ml.bayesopt import BayesianOptimizer, _expected_improvement
from repro.ml.gp import GaussianProcess, matern52
from repro.ml.space import Choice, IntRange, SearchSpace

# predict(..., return_std=True) of the 2-observation fit in
# TestHyperparameterGrid, recorded from the L-BFGS-B implementation the
# grid replaced
TWO_POINT_MEAN = (
    0.5401624437926067,
    1.425812587748763,
    0.678372296104663,
    0.24230706713074324,
    0.6182381553276316,
)
TWO_POINT_STD = (
    0.8902697710802467,
    0.2617696052775336,
    0.7718024277323221,
    0.8188054743269239,
    0.8993285298088403,
)


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

    def test_non_finite_targets_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite y"):
                GaussianProcess().fit(np.eye(3), np.array([1.0, bad, 0.0]))


class TestHyperparameterGrid:
    """With three or more observations ``fit`` takes the grid point of
    lowest negative log marginal likelihood; below three it keeps the
    constructor's hyper-parameters."""

    @staticmethod
    def _brute_force(X, y):
        """One Cholesky per grid point, in a plain loop."""
        yn = (y - y.mean()) / (y.std() or 1.0)
        best, best_nll = None, np.inf
        for ls in gp_module._LOG_LENGTHSCALE:
            for sv in gp_module._LOG_SIGNAL:
                for nv in gp_module._LOG_NOISE:
                    K = np.exp(sv) * matern52(X, X, np.exp(ls))
                    K += (np.exp(nv) + gp_module._JITTER) * np.eye(len(X))
                    try:
                        L = np.linalg.cholesky(K)
                    except np.linalg.LinAlgError:
                        continue
                    z = np.linalg.solve(L, yn)
                    nll = 0.5 * z @ z + np.log(np.diag(L)).sum()
                    if nll < best_nll:
                        best, best_nll = (np.exp(ls), np.exp(sv), np.exp(nv)), nll
        return best

    @pytest.mark.parametrize("n, d", [(3, 1), (5, 2), (9, 3), (16, 6)])
    def test_choice_matches_brute_force(self, rng, n, d):
        X = rng.random((n, d))
        y = np.sin(5.0 * X.sum(axis=1)) + 0.1 * rng.standard_normal(n)
        gp = GaussianProcess().fit(X, y)
        assert (gp.lengthscale, gp.signal_var, gp.noise_var) == self._brute_force(X, y)

    def test_duplicate_rows_and_constant_targets_fit(self, rng):
        X = np.repeat(rng.random((3, 2)), 3, axis=0)
        for y in (np.arange(9.0) % 3, np.full(9, -2.5)):
            mean, std = GaussianProcess().fit(X, y).predict(X, return_std=True)
            assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))

    def test_two_observations_keep_the_defaults(self):
        """Below three observations neither implementation searched; the
        ledger's own fits take this path, so it must not move."""
        X = np.array([[0.2, 0.7], [0.6, 0.1]])
        Xs = np.array([[0.0, 0.0], [0.25, 0.65], [0.5, 0.5], [0.9, 0.3], [1.0, 1.0]])
        gp = GaussianProcess().fit(X, np.array([1.5, -0.3]))
        assert (gp.lengthscale, gp.signal_var, gp.noise_var) == (0.3, 1.0, 1e-4)
        mean, std = gp.predict(Xs, return_std=True)
        np.testing.assert_allclose(mean, TWO_POINT_MEAN, rtol=1e-12)
        np.testing.assert_allclose(std, TWO_POINT_STD, rtol=1e-12)


class TestExpectedImprovement:
    """The acquisition writes the normal cdf / pdf out; pinned against the
    textbook closed form."""

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
        warm = BayesianOptimizer(simple_space, observations=state, random_state=1)
        assert warm.n_observations == 4
        res = warm.run(lambda p: float(p["x"]), n_iter=2)
        assert warm.n_observations == 6
        # warm restart retains the previous best
        assert res.best_score >= max(s for _, s in state)

    def test_warm_start_skips_random_phase(self, simple_space):
        """With enough prior observations, the first fresh suggestion is
        model-guided (exploitation) rather than uniform random."""
        state = [({"x": x, "flag": True}, -(x - 80) ** 2 / 10.0) for x in (0, 20, 40, 60, 80, 100)]
        warm = BayesianOptimizer(simple_space, observations=state, random_state=0)
        suggestion = warm.suggest()
        assert abs(suggestion["x"] - 80) <= 25

    def test_non_finite_score_is_kept_out_of_the_model(self):
        space = SearchSpace({"x": IntRange(0, 100)})
        calls = []

        def objective(params):
            calls.append(params["x"])
            return np.nan if len(calls) == 2 else -abs(params["x"] - 60) / 10.0

        bo = BayesianOptimizer(space, n_initial=3, random_state=0)
        res = bo.run(objective, n_iter=8)
        scores = [h.score for h in res.history]
        assert len(scores) == 8 and np.isnan(scores[1])
        assert res.best_score == max(s for s in scores if np.isfinite(s))
        assert res.best_params == {"x": calls[scores.index(res.best_score)]}

    def test_all_scores_non_finite_raises(self, simple_space):
        bo = BayesianOptimizer(simple_space, n_initial=2, random_state=0)
        with pytest.raises(ValueError, match="non-finite"):
            bo.run(lambda p: np.inf, n_iter=3)

    def test_observe_then_suggest(self, simple_space):
        bo = BayesianOptimizer(simple_space, n_initial=1, random_state=0)
        for x in (10, 50, 90):
            bo.observe({"x": x, "flag": False}, -abs(x - 50))
        params = bo.suggest()
        assert 0 <= params["x"] <= 100
