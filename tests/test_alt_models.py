"""Alternative ML models (boosting, kNN) and the model registry."""

import numpy as np
import pytest

from repro.core.collection import TrainingCollector
from repro.core.prediction import ErrorBoundModel
from repro.core.training import train_model
from repro.data import load_dataset
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.kfold import r2_score
from repro.ml.knn import KNeighborsRegressor
from repro.ml.models import MODEL_KINDS, default_space, make_model


@pytest.fixture(scope="module")
def xy():
    rng = np.random.default_rng(1)
    X = rng.random((250, 4))
    y = np.sin(4 * X[:, 0]) + X[:, 1] ** 2 + 0.05 * rng.standard_normal(250)
    return X, y


class TestBoosting:
    def test_fits_nonlinear_function(self, xy):
        X, y = xy
        m = GradientBoostingRegressor(n_estimators=80, learning_rate=0.2, random_state=0)
        m.fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.9

    def test_more_stages_monotone_train_score(self, xy):
        X, y = xy
        m = GradientBoostingRegressor(n_estimators=50, learning_rate=0.2, random_state=0).fit(X, y)
        pred = np.full(len(y), m.base_value)
        ss_tot = ((y - y.mean()) ** 2).sum()
        staged = []
        for tree in m.trees:
            pred += m.learning_rate * tree.predict(X)
            staged.append(1.0 - ((y - pred) ** 2).sum() / ss_tot)
        assert staged[-1] > staged[0]
        assert staged[-1] == pytest.approx(r2_score(y, m.predict(X)), abs=1e-9)

    def test_subsample(self, xy):
        X, y = xy
        m = GradientBoostingRegressor(n_estimators=20, subsample=0.5, random_state=0).fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.5

    @pytest.mark.parametrize(
        "bad", [{"n_estimators": 0}, {"learning_rate": 0.0}, {"subsample": 1.5}]
    )
    def test_invalid_params(self, bad):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(**bad)

    def test_unfitted_predict(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.ones((1, 2)))


class TestKNN:
    def test_exact_on_training_points_k1(self, xy):
        X, y = xy
        m = KNeighborsRegressor(n_neighbors=1).fit(X, y)
        np.testing.assert_allclose(m.predict(X), y, atol=1e-9)

    def test_interpolates_smooth_function(self, rng):
        X = rng.random((400, 2))
        y = X[:, 0] + 2 * X[:, 1]
        m = KNeighborsRegressor(n_neighbors=5).fit(X, y)
        Xt = rng.random((50, 2))
        yt = Xt[:, 0] + 2 * Xt[:, 1]
        assert np.abs(m.predict(Xt) - yt).max() < 0.2

    def test_uniform_vs_distance_weights(self, xy):
        X, y = xy
        u = KNeighborsRegressor(n_neighbors=5, weights="uniform").fit(X, y)
        d = KNeighborsRegressor(n_neighbors=5, weights="distance").fit(X, y)
        assert not np.allclose(u.predict(X[:10]), d.predict(X[:10]))

    def test_k_clamped_to_n(self):
        m = KNeighborsRegressor(n_neighbors=10).fit(np.ones((3, 1)), np.arange(3.0))
        assert np.isfinite(m.predict(np.ones((1, 1)))).all()

    def test_constant_feature_handled(self, rng):
        X = np.ones((20, 3))
        X[:, 0] = rng.random(20)
        m = KNeighborsRegressor().fit(X, X[:, 0])
        assert np.isfinite(m.predict(X)).all()

    @pytest.mark.parametrize("bad", [{"n_neighbors": 0}, {"weights": "cosine"}])
    def test_invalid_params(self, bad):
        with pytest.raises(ValueError):
            KNeighborsRegressor(**bad)


class TestRegistry:
    def test_all_kinds_construct_and_fit(self, xy):
        X, y = xy
        for kind in MODEL_KINDS:
            space = default_space(kind)
            params = space.sample(np.random.default_rng(0))
            model = make_model(kind, random_state=0, **params)
            model.fit(X, y)
            assert model.predict(X).shape == (X.shape[0],)

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            make_model("svm")
        with pytest.raises(KeyError):
            default_space("svm")


class TestTrainModelKinds:
    @pytest.mark.parametrize("kind", ["gbt", "knn"])
    def test_bayesopt_over_alternative_models(self, xy, kind):
        X, y = xy
        model, info = train_model(X, y, method="bayesopt", model_kind=kind, n_iter=4, cv=2)
        assert info.model_kind == kind
        assert r2_score(y, model.predict(X)) > 0.3

    def test_grid_over_knn(self, xy):
        X, y = xy
        model, info = train_model(X, y, method="grid", model_kind="knn", n_iter=3, cv=2)
        assert info.method == "grid"
        assert model.get_params()["n_neighbors"] >= 1


class TestErrorBoundModelKinds:
    @pytest.mark.parametrize("kind", ["forest", "gbt", "knn"])
    def test_end_to_end_prediction(self, kind):
        fields = load_dataset("miranda", shape=(12, 16, 16))[:3]
        data = TrainingCollector(
            "szx", mode="secre", rel_error_bounds=np.geomspace(1e-3, 1e-1, 5)
        ).collect(fields)
        model = ErrorBoundModel().fit(data, method="bayesopt", n_iter=3, cv=2, model_kind=kind)
        rec = data.records[0]
        eb = model.predict_error_bound(rec.features, float(rec.ratios[2]))
        assert rec.error_bounds[0] * 0.1 <= eb <= rec.error_bounds[-1] * 10
