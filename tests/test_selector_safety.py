"""Uncertainty-aware safety margins."""

import numpy as np
import pytest

from repro import CarolFramework, load_dataset, load_field

SHAPE = (14, 20, 20)
REL = np.geomspace(1e-3, 1e-1, 6)


@pytest.fixture(scope="module")
def train_fields():
    return load_dataset("miranda", shape=SHAPE)[:3]


@pytest.fixture(scope="module")
def test_field():
    return load_field("miranda/density", shape=SHAPE, seed=55)


class TestSafetyMargin:
    @pytest.fixture(scope="class")
    def fitted(self, train_fields):
        fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=4, cv=2)
        fw.fit(train_fields)
        return fw

    def test_positive_safety_increases_eb(self, fitted, test_field):
        base = fitted.predict_error_bound(test_field.data, 6.0).error_bound
        safe = fitted.predict_error_bound(test_field.data, 6.0, safety=2.0).error_bound
        assert safe >= base

    def test_negative_safety_decreases_eb(self, fitted, test_field):
        base = fitted.predict_error_bound(test_field.data, 6.0).error_bound
        tight = fitted.predict_error_bound(test_field.data, 6.0, safety=-2.0).error_bound
        assert tight <= base

    def test_safety_biases_achieved_ratio_up(self, fitted, test_field):
        plain, _ = fitted.compress_to_ratio(test_field.data, 6.0)
        safe, _ = fitted.compress_to_ratio(test_field.data, 6.0, safety=2.0)
        assert safe.ratio >= plain.ratio

    def test_non_forest_model_ignores_safety(self, train_fields, test_field):
        fw = CarolFramework(
            compressor="szx", rel_error_bounds=REL, n_iter=3, cv=2, model_kind="knn"
        )
        fw.fit(train_fields)
        a = fw.predict_error_bound(test_field.data, 6.0, safety=3.0).error_bound
        b = fw.predict_error_bound(test_field.data, 6.0).error_bound
        assert a == pytest.approx(b)

    def test_predict_std_shapes(self, fitted, test_field):
        forest = fitted.model.forest
        x = np.concatenate((fitted.predict_error_bound(test_field.data, 6.0).features,
                            [np.log(6.0)]))
        std = forest.predict_std(x[None, :])
        assert std.shape == (1,)
        assert std[0] >= 0
