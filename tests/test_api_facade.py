"""The repro.api facade and the redesigned framework surface."""

import numpy as np
import pytest

from repro.api import (
    BatchPrediction,
    Carol,
    Catalog,
    CatalogOptions,
    Fxrz,
    Gateway,
    GatewayOptions,
    ModelRegistry,
    Service,
    ServiceOptions,
    StoreOptions,
    load,
    save,
)

SHAPE = (10, 14, 14)
REL = np.geomspace(1e-3, 1e-1, 5)


@pytest.fixture(scope="module")
def train_fields():
    from repro import load_dataset

    return load_dataset("miranda", shape=SHAPE)[:3]


@pytest.fixture(scope="module")
def fitted(train_fields):
    fw = Carol(compressor="szx", rel_error_bounds=REL, n_iter=3, cv=2)
    fw.fit(train_fields)
    return fw


class TestFacadeImports:
    def test_top_level_reexports(self):
        import repro

        assert repro.Carol is Carol
        assert repro.Fxrz is Fxrz
        assert repro.load is load
        assert repro.save is save

    def test_serving_reexports(self):
        import repro
        from repro.serve import ModelRegistry as deep_reg
        from repro.serve import PredictionService, ServiceOptions as deep_opts

        assert repro.Service is Service is PredictionService
        assert repro.ServiceOptions is ServiceOptions is deep_opts
        assert repro.ModelRegistry is ModelRegistry is deep_reg

    def test_facade_is_the_framework(self):
        from repro.core.carol import CarolFramework
        from repro.core.fxrz import FxrzFramework

        assert Carol is CarolFramework
        assert Fxrz is FxrzFramework

    def test_catalog_reexports(self):
        import repro
        from repro.store import CatalogOptions as deep_opts
        from repro.store import StoreCatalog

        assert repro.Catalog is Catalog is StoreCatalog
        assert repro.CatalogOptions is CatalogOptions is deep_opts

    def test_gateway_reexports(self):
        import repro
        from repro.load import Gateway as deep_gw
        from repro.load import GatewayOptions as deep_opts

        assert repro.Gateway is Gateway is deep_gw
        assert repro.GatewayOptions is GatewayOptions is deep_opts

    def test_all_lists_every_entry_point_once(self):
        import importlib

        import repro
        import repro.api
        import repro.serve
        import repro.store

        # the facade function ``repro.load`` shadows the subpackage as an
        # attribute, so fetch the module itself through the import system
        load_pkg = importlib.import_module("repro.load")
        for mod in (repro, repro.api, load_pkg, repro.serve, repro.store):
            assert len(mod.__all__) == len(set(mod.__all__)), mod.__name__
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"
        # the documented facade pairs are all on repro.api
        for name in ("Catalog", "CatalogOptions", "Store", "StoreOptions",
                     "Service", "ServiceOptions", "Carol", "Gateway",
                     "GatewayOptions"):
            assert name in repro.api.__all__

    def test_options_are_keyword_only(self):
        for cls, arg in (
            (ServiceOptions, 8),
            (StoreOptions, (8, 8, 8)),
            (CatalogOptions, 1024),
            (GatewayOptions, 8),
        ):
            with pytest.raises(TypeError):
                cls(arg)

    def test_deprecated_paths_still_work(self):
        # the pre-facade import surface must keep working verbatim
        from repro import CarolFramework, FxrzFramework
        from repro.core import CarolFramework as deep_carol
        from repro.utils.serialization import load_framework, save_framework

        assert CarolFramework is Carol and FxrzFramework is Fxrz
        assert deep_carol is Carol
        assert callable(load_framework) and callable(save_framework)


class TestKeywordOnly:
    def test_positional_config_rejected(self):
        with pytest.raises(TypeError):
            Carol("sz3", REL)
        with pytest.raises(TypeError):
            Fxrz("sz3", 4)

    def test_compressor_may_be_positional(self):
        assert Carol("szx").compressor_name == "szx"
        assert Fxrz("szx", feature_stride=2).feature_stride == 2


class TestSaveLoad:
    def test_roundtrip_via_facade(self, fitted, tmp_path, train_fields):
        path = save(tmp_path / "model.npz", fitted)
        loaded = load(path)
        assert type(loaded) is Carol
        data = train_fields[0].data
        eb_orig = fitted.predict_error_bound(data, 5.0).error_bound
        eb_loaded = loaded.predict_error_bound(data, 5.0).error_bound
        assert eb_loaded == pytest.approx(eb_orig)


class TestUnifiedRefine:
    def test_fxrz_refine_merges_on_base_class(self, train_fields):
        fw = Fxrz(compressor="szx", rel_error_bounds=REL, n_iter=2, cv=2)
        fw.fit(train_fields[:2])
        rows_before = fw.training_data.n_rows
        rep = fw.refine(train_fields[2:3])
        assert fw.training_data.n_rows == rows_before + REL.size
        assert rep.n_rows == fw.training_data.n_rows
        assert fw.model.info.method == "grid"  # re-searched, not warm-started

    def test_refine_without_fit_falls_back(self, train_fields):
        fw = Fxrz(compressor="szx", rel_error_bounds=REL, n_iter=2, cv=2)
        rep = fw.refine(train_fields[:2])
        assert rep.n_rows == 2 * REL.size


class TestInferenceSurface:
    def test_evaluate_targets_accepts_safety(self, fitted, train_fields):
        data = train_fields[0].data
        plain = fitted.evaluate_targets(data, [4.0, 8.0])
        safe = fitted.evaluate_targets(data, [4.0, 8.0], safety=1.5)
        # positive safety biases toward larger error bounds, matching
        # predict_error_bound's convention
        assert (safe.predicted_ebs >= plain.predicted_ebs).all()
        eb_direct = fitted.predict_error_bound(data, 4.0, safety=1.5).error_bound
        assert safe.predicted_ebs[0] == pytest.approx(eb_direct)

    def test_feature_seconds_on_report_not_first_prediction(self, fitted, train_fields):
        rep = fitted.evaluate_targets(train_fields[0].data, [4.0, 8.0, 12.0])
        assert rep.feature_seconds > 0
        assert all(p.feature_seconds == 0.0 for p in rep.predictions)
        assert rep.inference_seconds == pytest.approx(
            rep.feature_seconds + sum(p.inference_seconds for p in rep.predictions)
        )

    def test_predict_error_bound_batch_surface(self, fitted, train_fields):
        data = train_fields[0].data
        batch = fitted.predict_error_bound_batch(data, [4.0, 8.0, 16.0])
        assert isinstance(batch, BatchPrediction)
        assert len(batch) == 3
        assert [p.target_ratio for p in batch] == [4.0, 8.0, 16.0]
        assert batch.error_bounds.shape == (3,)
        assert batch.feature_seconds > 0

    def test_batch_matches_sequential_bitwise(self, fitted, train_fields):
        data = train_fields[0].data
        ratios = [3.0, 7.0, 11.0, 29.0]
        for safety in (0.0, 1.5):
            batch = fitted.predict_error_bound_batch(data, ratios, safety=safety)
            sequential = [
                fitted.predict_error_bound(data, r, safety=safety).error_bound
                for r in ratios
            ]
            assert batch.error_bounds.tolist() == sequential

    def test_precomputed_features_skip_extraction(self, fitted, train_fields):
        data = train_fields[0].data
        feats = fitted.extract_features(data)
        pred = fitted.predict_error_bound(data, 5.0, features=feats)
        assert pred.feature_seconds == 0.0
        assert pred.error_bound == fitted.predict_error_bound(data, 5.0).error_bound

    def test_extract_features_many_matches_single(self, fitted, train_fields):
        datas = [f.data for f in train_fields]
        many = fitted.extract_features_many(datas)
        for row, data in zip(many, datas):
            np.testing.assert_array_equal(row, fitted.extract_features(data))

    def test_batch_invalid_ratios_rejected(self, fitted, train_fields):
        with pytest.raises(ValueError):
            fitted.predict_error_bound_batch(train_fields[0].data, [4.0, -1.0])
