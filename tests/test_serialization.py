"""Model/framework persistence tests."""

import json

import numpy as np
import pytest

from repro import CarolFramework, FxrzFramework, load_dataset, load_field
from repro.api import load, save
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.models import MODEL_KINDS
from repro.utils.serialization import (
    load_model,
    load_framework,
    save_model,
    save_framework,
)

SHAPE = (12, 16, 16)
REL = np.geomspace(1e-3, 1e-1, 5)


class TestForestIO:
    def test_round_trip_predictions(self, rng, tmp_path):
        X = rng.random((60, 4))
        y = X[:, 0] * 3 - X[:, 2]
        rf = RandomForestRegressor(n_estimators=6, random_state=0).fit(X, y)
        path = save_model(tmp_path / "model.npz", rf, extra={"note": "hi"})
        loaded, extra = load_model(path)
        assert extra == {"note": "hi"}
        np.testing.assert_array_equal(loaded.predict(X), rf.predict(X))

    def test_params_preserved(self, rng, tmp_path):
        X = rng.random((30, 2))
        y = X.sum(axis=1)
        rf = RandomForestRegressor(
            n_estimators=3, max_depth=4, min_samples_leaf=2, bootstrap=False,
            max_features="sqrt", random_state=1,
        ).fit(X, y)
        loaded, _ = load_model(save_model(tmp_path / "m.npz", rf))
        assert loaded.get_params() == rf.get_params()

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_model(tmp_path / "m.npz", RandomForestRegressor())

    def test_suffix_added(self, rng, tmp_path):
        X = rng.random((20, 2))
        rf = RandomForestRegressor(n_estimators=2, random_state=0).fit(X, X[:, 0])
        path = save_model(tmp_path / "model", rf)
        assert path.suffix == ".npz"
        assert path.exists()


class TestFrameworkIO:
    @pytest.fixture(scope="class")
    def fitted(self):
        fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=4, cv=2)
        fw.fit(load_dataset("miranda", shape=SHAPE)[:3])
        return fw

    def test_round_trip_prediction_identical(self, fitted, tmp_path):
        field = load_field("miranda/viscosity", shape=SHAPE, seed=5)
        path = save_framework(tmp_path / "carol.npz", fitted)
        loaded = load_framework(path)
        a = fitted.predict_error_bound(field.data, 6.0)
        b = loaded.predict_error_bound(field.data, 6.0)
        assert a.error_bound == pytest.approx(b.error_bound)
        assert loaded.name == "carol"
        assert loaded.compressor_name == "szx"

    def test_checkpoint_survives(self, fitted, tmp_path):
        path = save_framework(tmp_path / "carol.npz", fitted)
        loaded = load_framework(path)
        assert loaded.model.checkpoint is not None
        assert len(loaded.model.checkpoint) == len(fitted.model.checkpoint)

    def test_loaded_framework_can_refine(self, fitted, tmp_path):
        path = save_framework(tmp_path / "carol.npz", fitted)
        loaded = load_framework(path)
        rep = loaded.refine(load_dataset("miranda", shape=SHAPE, seed=9)[:2])
        assert rep.n_rows > 0

    def test_fxrz_round_trip(self, tmp_path):
        fw = FxrzFramework(compressor="zfp", rel_error_bounds=REL, n_iter=2, cv=2)
        fw.fit(load_dataset("miranda", shape=SHAPE)[:2])
        loaded = load_framework(save_framework(tmp_path / "f.npz", fw))
        assert loaded.name == "fxrz"
        field = load_field("miranda/density", shape=SHAPE)
        assert loaded.predict_error_bound(field.data, 3.0).error_bound > 0

    def test_unfitted_framework_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_framework(tmp_path / "x.npz", CarolFramework(compressor="szx"))


class TestModelIO:
    """save_model / load_model round-trip every supported model class."""

    def test_gbt_round_trip(self, rng, tmp_path):
        X = rng.random((50, 3))
        y = X[:, 0] - 2 * X[:, 1]
        gbt = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(X, y)
        loaded, extra = load_model(save_model(tmp_path / "g.npz", gbt, {"k": 1}))
        assert isinstance(loaded, GradientBoostingRegressor)
        assert extra == {"k": 1}
        assert loaded.base_value == gbt.base_value
        np.testing.assert_array_equal(loaded.predict(X), gbt.predict(X))

    def test_knn_round_trip(self, rng, tmp_path):
        X = rng.random((40, 4))
        y = X.sum(axis=1)
        knn = KNeighborsRegressor(n_neighbors=3).fit(X, y)
        loaded, _ = load_model(save_model(tmp_path / "k.npz", knn))
        assert isinstance(loaded, KNeighborsRegressor)
        np.testing.assert_array_equal(loaded.predict(X), knn.predict(X))

    def test_unfitted_models_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_model(tmp_path / "g.npz", GradientBoostingRegressor())
        with pytest.raises(ValueError):
            save_model(tmp_path / "k.npz", KNeighborsRegressor())

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(tmp_path / "x.npz", object())

    def test_load_model_rejects_unknown_kind(self, rng, tmp_path):
        """The "rejects other kinds" case, on ``load_model``'s own kind
        check (``load_forest`` went with the other back-compat wrappers)."""
        X = rng.random((30, 2))
        gbt = GradientBoostingRegressor(n_estimators=2, random_state=0).fit(
            X, X[:, 0]
        )
        path = save_model(tmp_path / "g.npz", gbt)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(arrays["meta_json"].tobytes().decode())
        meta["kind"] = "svm"
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="unknown serialized model kind 'svm'"):
            load_model(path)


class TestAllModelKindsRoundTrip:
    """api.save / api.load across every model_kind x both frameworks.

    The registry (and hence the serving layer) must be able to host any
    trained configuration; a loaded framework must predict identically.
    """

    @pytest.fixture(scope="class")
    def fields(self):
        return load_dataset("miranda", shape=(10, 12, 12))[:2]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("cls", [CarolFramework, FxrzFramework])
    def test_round_trip_identical_predictions(self, cls, kind, fields, tmp_path):
        fw = cls(
            compressor="szx",
            rel_error_bounds=REL,
            n_iter=2,
            cv=2,
            model_kind=kind,
        )
        fw.fit(fields)
        loaded = load(save(tmp_path / f"{cls.__name__}-{kind}.npz", fw))
        assert loaded.name == fw.name
        assert loaded.model_kind == kind
        probe = load_field("miranda/density", shape=(10, 12, 12), seed=3)
        for ratio in (3.0, 8.0, 20.0):
            a = fw.predict_error_bound(probe.data, ratio)
            b = loaded.predict_error_bound(probe.data, ratio)
            assert a.error_bound == b.error_bound
        batch_a = fw.predict_error_bound_batch(probe.data, [4.0, 9.0])
        batch_b = loaded.predict_error_bound_batch(probe.data, [4.0, 9.0])
        np.testing.assert_array_equal(batch_a.error_bounds, batch_b.error_bounds)
