"""Training-data collection + model-training stage tests."""

import numpy as np
import pytest

from repro.core.collection import DEFAULT_REL_EBS, TrainingCollector, TrainingData
from repro.core.prediction import ErrorBoundModel, invert_curve
from repro.core.training import train_model
from repro.data import load_dataset

SHAPE = (16, 20, 20)
REL = np.geomspace(1e-3, 1e-1, 5)


@pytest.fixture(scope="module")
def fields():
    return load_dataset("miranda", shape=SHAPE)[:3]


class TestCollector:
    def test_full_mode(self, fields):
        col = TrainingCollector("szx", mode="full", rel_error_bounds=REL)
        data = col.collect(fields)
        assert data.n_rows == 3 * REL.size
        for rec in data.records:
            assert rec.source == "full"
            assert (rec.ratios > 0).all()
            assert rec.features.shape == (5,)
            assert rec.calibration is None

    def test_secre_mode_faster(self, fields):
        full = TrainingCollector("sperr", mode="full", rel_error_bounds=REL)
        fast = TrainingCollector("sperr", mode="secre", rel_error_bounds=REL)
        d_full = full.collect(fields)
        d_fast = fast.collect(fields)
        assert sum(r.collect_seconds for r in d_fast.records) < sum(
            r.collect_seconds for r in d_full.records
        )

    def test_calibrated_mode_attaches_info(self, fields):
        col = TrainingCollector(
            "sperr", mode="calibrated", rel_error_bounds=REL, calibration_points=3
        )
        data = col.collect(fields[:1])
        rec = data.records[0]
        assert rec.calibration is not None
        assert rec.calibration.n_points == 3

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            TrainingCollector("szx", mode="psychic")

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            TrainingCollector("szx", rel_error_bounds=np.array([0.1, 0.01]))

    def test_default_grid_is_35_points(self):
        assert DEFAULT_REL_EBS.size == 35  # the paper's sample size


class TestTrainingData:
    def test_design_matrix_shapes(self, fields):
        data = TrainingCollector("szx", mode="secre", rel_error_bounds=REL).collect(fields)
        X, y = data.design_matrix()
        assert X.shape == (3 * REL.size, 6)
        assert y.shape == (3 * REL.size,)
        assert np.isfinite(X).all() and np.isfinite(y).all()

    def test_feature_names(self, fields):
        data = TrainingCollector("szx", mode="secre", rel_error_bounds=REL).collect(fields[:1])
        assert data.feature_names == ["mean", "range", "mnd", "mld", "msd", "log_ratio"]

    def test_merge(self, fields):
        col = TrainingCollector("szx", mode="secre", rel_error_bounds=REL)
        a = col.collect(fields[:1])
        b = col.collect(fields[1:2])
        m = a.merge(b)
        assert m.n_rows == a.n_rows + b.n_rows

    def test_merge_compressor_mismatch(self, fields):
        a = TrainingCollector("szx", mode="secre", rel_error_bounds=REL).collect(fields[:1])
        b = TrainingCollector("zfp", mode="secre", rel_error_bounds=REL).collect(fields[:1])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_design_matrix_rejected(self):
        with pytest.raises(ValueError):
            TrainingData(compressor="szx").design_matrix()


class TestTrainForest:
    @pytest.fixture(scope="class")
    def xy(self):
        rng = np.random.default_rng(0)
        X = rng.random((80, 6))
        y = X[:, 0] + 2 * X[:, 5]
        return X, y

    def test_grid_method(self, xy):
        model, info = train_model(*xy, model_kind="forest", method="grid", n_iter=2, cv=3)
        assert info.method == "grid"
        assert info.n_evaluations == 2
        assert model.predict(xy[0]).shape == (80,)

    def test_bayesopt_method_with_checkpoint(self, xy):
        model, info = train_model(*xy, model_kind="forest", method="bayesopt", n_iter=4, cv=3)
        assert info.checkpoint is not None
        assert len(info.checkpoint) == 4
        # warm restart runs fewer evaluations
        _, info2 = train_model(*xy, model_kind="forest", method="bayesopt", n_iter=4, cv=3,
                                checkpoint=info.checkpoint)
        assert info2.n_evaluations < info.n_evaluations + len(info.checkpoint)

    def test_unknown_method(self, xy):
        with pytest.raises(ValueError):
            train_model(*xy, model_kind="forest", method="gradient-descent")


class TestInvertCurve:
    def test_exact_inverse_on_powerlaw(self):
        ebs = np.geomspace(1e-4, 1e-1, 20)
        ratios = 100 * ebs**0.5
        target = 100 * (1e-2) ** 0.5
        eb = invert_curve(ebs, ratios, target)
        assert eb == pytest.approx(1e-2, rel=1e-6)

    def test_handles_non_monotone_noise(self):
        ebs = np.geomspace(1e-3, 1e-1, 10)
        ratios = np.array([2, 3, 2.9, 4, 5, 4.8, 7, 9, 12, 15.0])
        eb = invert_curve(ebs, ratios, 6.0)
        assert ebs[0] <= eb <= ebs[-1]

    def test_out_of_range_clamps(self):
        ebs = np.array([1e-3, 1e-2, 1e-1])
        ratios = np.array([2.0, 4.0, 8.0])
        assert invert_curve(ebs, ratios, 100.0) == pytest.approx(1e-1)
        assert invert_curve(ebs, ratios, 0.5) == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            invert_curve([1e-3], [2.0], 4.0)
        with pytest.raises(ValueError):
            invert_curve([1e-3, 1e-2], [2.0, 4.0], -1.0)


class TestErrorBoundModel:
    def test_fit_predict_round_trip(self, fields):
        data = TrainingCollector("szx", mode="secre", rel_error_bounds=REL).collect(fields)
        model = ErrorBoundModel().fit(data, method="bayesopt", n_iter=3, cv=3)
        rec = data.records[0]
        eb = model.predict_error_bound(rec.features, float(rec.ratios[2]))
        # prediction lands inside the trained eb range
        assert rec.error_bounds[0] * 0.1 <= eb <= rec.error_bounds[-1] * 10

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ErrorBoundModel().predict_error_bound(np.zeros(5), 10.0)

    def test_bad_target_rejected(self, fields):
        data = TrainingCollector("szx", mode="secre", rel_error_bounds=REL).collect(fields[:1])
        model = ErrorBoundModel().fit(data, method="bayesopt", n_iter=3, cv=2)
        with pytest.raises(ValueError):
            model.predict_error_bound(np.zeros(5), -5.0)
