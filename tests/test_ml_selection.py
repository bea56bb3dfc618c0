"""KFold, search space, grid search unit tests."""

import numpy as np
import pytest

from repro.ml.grid_search import RandomizedGridSearch
from repro.ml.kfold import KFold, cross_val_score
from repro.ml.forest import RandomForestRegressor
from repro.ml.space import PAPER_SPACE, SCALED_SPACE, Choice, IntRange, SearchSpace


class TestKFold:
    def test_partitions_disjoint_and_complete(self):
        kf = KFold(n_splits=4, random_state=0)
        seen = []
        for train, test in kf.split(23):
            assert np.intersect1d(train, test).size == 0
            seen.append(test)
        all_test = np.concatenate(seen)
        np.testing.assert_array_equal(np.sort(all_test), np.arange(23))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(3))

    def test_invalid_n_splits(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)

    def test_deterministic_shuffle(self):
        a = [t.tolist() for _, t in KFold(3, random_state=1).split(12)]
        b = [t.tolist() for _, t in KFold(3, random_state=1).split(12)]
        assert a == b

    def test_cross_val_score_shape(self, rng):
        X = rng.random((60, 3))
        y = X[:, 0]
        scores = cross_val_score(
            lambda: RandomForestRegressor(n_estimators=3, random_state=0), X, y, cv=3
        )
        assert scores.shape == (3,)
        assert (scores <= 1.0).all()


class TestSpace:
    def test_int_range_encode_decode(self):
        spec = IntRange(90, 1200, 10)
        for v in (90, 500, 1200):
            assert spec.decode(spec.encode(v)) == v

    def test_choice_encode_decode(self):
        spec = Choice(("auto", "sqrt"))
        for v in ("auto", "sqrt"):
            assert spec.decode(spec.encode(v)) == v

    def test_decode_clamps(self):
        spec = IntRange(10, 20)
        assert spec.decode(-0.5) == 10
        assert spec.decode(1.5) == 20

    def test_paper_space_cardinality(self):
        # six axes; the paper quotes ~396 000 unique configurations
        assert 300_000 < PAPER_SPACE.size() < 500_000

    def test_sample_in_bounds(self, rng):
        for _ in range(20):
            params = PAPER_SPACE.sample(rng)
            assert 90 <= params["n_estimators"] <= 1200
            assert params["max_features"] in ("auto", "sqrt")
            assert 10 <= params["max_depth"] <= 110
            assert params["min_samples_split"] in (2, 5, 10)
            assert params["min_samples_leaf"] in (1, 2, 4)
            assert isinstance(params["bootstrap"], bool)

    def test_vector_round_trip(self, rng):
        params = SCALED_SPACE.sample(rng)
        vec = SCALED_SPACE.encode(params)
        assert ((0 <= vec) & (vec <= 1)).all()
        assert SCALED_SPACE.decode(vec) == params

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace({})


class TestGridSearch:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(3)
        X = rng.random((90, 6))
        y = 3 * X[:, 0] + np.sin(5 * X[:, 1])
        return X, y

    def test_finds_reasonable_model(self, data):
        X, y = data
        res = RandomizedGridSearch(SCALED_SPACE, n_iter=3, cv=3, random_state=0).fit(X, y)
        assert res.best_score > 0.3
        assert len(res.records) == 3
        assert res.model.predict(X).shape == (90,)

    def test_unique_configurations(self, data):
        X, y = data
        res = RandomizedGridSearch(SCALED_SPACE, n_iter=5, cv=3, random_state=0).fit(X, y)
        keys = [tuple(sorted(r.params.items())) for r in res.records]
        assert len(set(keys)) == len(keys)

    def test_records_have_timing_and_memory(self, data):
        X, y = data
        res = RandomizedGridSearch(SCALED_SPACE, n_iter=2, cv=3).fit(X, y)
        for rec in res.records:
            assert rec.fit_seconds > 0
            assert rec.memory_bytes > 0
        assert res.total_fit_seconds <= res.elapsed + 1e-6
