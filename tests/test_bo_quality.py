"""Bayesian-optimization quality: does the GP guidance actually help?

The paper's claim behind core contribution 3 is that BO's targeted search
converges with fewer evaluations than random sampling. These tests check
that statistically on synthetic objectives (seed-averaged to be stable).
"""

import numpy as np

from repro.ml.bayesopt import BayesianOptimizer
from repro.ml.space import Choice, IntRange, SearchSpace


def _space():
    return SearchSpace(
        {
            "x": IntRange(0, 200),
            "y": IntRange(0, 200),
            "flag": Choice((True, False)),
        }
    )


def _objective(params):
    # smooth unimodal objective with a categorical bonus
    return (
        -((params["x"] - 140) ** 2) / 400.0
        - ((params["y"] - 60) ** 2) / 400.0
        + (5.0 if params["flag"] else 0.0)
    )


class TestBOvsRandom:
    def test_bo_beats_random_on_average(self):
        budget = 14
        bo_scores, rnd_scores = [], []
        for seed in range(5):
            space = _space()
            bo = BayesianOptimizer(space, n_initial=4, random_state=seed)
            res = bo.run(_objective, n_iter=budget)
            bo_scores.append(res.best_score)

            rng = np.random.default_rng(seed)
            rnd_scores.append(
                max(_objective(space.sample(rng)) for _ in range(budget))
            )
        assert np.mean(bo_scores) >= np.mean(rnd_scores) - 1e-9

    def test_bo_improves_over_its_own_initial_phase(self):
        space = _space()
        bo = BayesianOptimizer(space, n_initial=4, random_state=0)
        res = bo.run(_objective, n_iter=16)
        initial_best = max(h.score for h in res.history[:4])
        assert res.best_score >= initial_best

    def test_suggestions_concentrate_near_optimum_late(self):
        space = _space()
        bo = BayesianOptimizer(space, n_initial=4, random_state=1)
        res = bo.run(_objective, n_iter=20)
        late = res.history[-5:]
        dist = np.mean([abs(h.params["x"] - 140) + abs(h.params["y"] - 60) for h in late])
        early = res.history[:5]
        dist_early = np.mean(
            [abs(h.params["x"] - 140) + abs(h.params["y"] - 60) for h in early]
        )
        assert dist <= dist_early + 20  # exploitation pulls toward the optimum


class TestWarmStartValue:
    def test_warm_start_matches_cold_with_fewer_evals(self):
        """Warm-started BO with half the budget reaches (at least) the cold
        run's quality — the incremental-refinement payoff."""
        space = _space()
        cold = BayesianOptimizer(space, n_initial=4, random_state=2)
        cold_res = cold.run(_objective, n_iter=14)

        warm = BayesianOptimizer(space, observations=cold.checkpoint(), random_state=3)
        warm_res = warm.run(_objective, n_iter=6)
        assert warm_res.best_score >= cold_res.best_score - 1e-9
