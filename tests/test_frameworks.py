"""End-to-end framework tests: FXRZ baseline and CAROL."""

import dataclasses

import numpy as np
import pytest

from repro import CarolFramework, FxrzFramework, get_compressor, load_dataset, load_field

SHAPE = (16, 24, 24)
REL = np.geomspace(1e-3, 1e-1, 6)


@pytest.fixture(scope="module")
def train_fields():
    return load_dataset("miranda", shape=SHAPE)[:4]


@pytest.fixture(scope="module")
def test_field():
    return load_field("miranda/pressure", shape=SHAPE, seed=321)


@pytest.fixture(scope="module")
def fitted_carol(train_fields):
    fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=4, cv=3)
    fw.fit(train_fields)
    return fw


@pytest.fixture(scope="module")
def fitted_fxrz(train_fields):
    fw = FxrzFramework(compressor="szx", rel_error_bounds=REL, n_iter=3, cv=3)
    fw.fit(train_fields)
    return fw


class TestSetup:
    def test_setup_report_populated(self, fitted_carol):
        rep = fitted_carol.setup_report
        assert rep.framework == "carol"
        assert rep.collection_seconds > 0
        assert rep.training_seconds > 0
        assert rep.n_rows == 4 * REL.size
        assert rep.training_info.method == "bayesopt"

    def test_fxrz_uses_grid_search(self, fitted_fxrz):
        assert fitted_fxrz.setup_report.training_info.method == "grid"

    def test_carol_records_calibration(self, fitted_carol):
        recs = fitted_carol.training_data.records
        assert all(r.source == "calibrated" for r in recs)


class TestInference:
    def test_predict_error_bound(self, fitted_carol, test_field):
        pred = fitted_carol.predict_error_bound(test_field.data, target_ratio=5.0)
        assert pred.error_bound > 0
        assert pred.feature_seconds >= 0
        assert pred.features.shape == (5,)

    def test_compress_to_ratio_end_to_end(self, fitted_carol, test_field):
        result, pred = fitted_carol.compress_to_ratio(test_field.data, target_ratio=5.0)
        codec = get_compressor("szx")
        recon = codec.decompress(result)
        assert np.abs(recon - test_field.data).max() <= pred.error_bound * (1 + 1e-9)
        # achieved ratio within a reasonable band of the request
        assert 0.3 * 5.0 < result.ratio < 3.0 * 5.0

    def test_higher_target_higher_eb(self, fitted_carol, test_field):
        lo = fitted_carol.predict_error_bound(test_field.data, 3.0).error_bound
        hi = fitted_carol.predict_error_bound(test_field.data, 20.0).error_bound
        assert hi >= lo

    def test_evaluate_targets_alpha(self, fitted_carol, test_field):
        codec = get_compressor("szx")
        ebs = REL[1:5] * test_field.value_range
        targets = [codec.compression_ratio(test_field.data, eb) for eb in ebs]
        report = fitted_carol.evaluate_targets(test_field.data, targets)
        assert report.alpha < 60.0  # sane accuracy at this tiny scale
        assert report.achieved.shape == (4,)
        assert (report.predicted_ebs > 0).all()


class TestAccuracyParity:
    def test_carol_within_band_of_fxrz(self, fitted_carol, fitted_fxrz, test_field):
        """The paper's headline: CAROL's accuracy is close to FXRZ's."""
        codec = get_compressor("szx")
        ebs = REL[1:5] * test_field.value_range
        targets = [codec.compression_ratio(test_field.data, eb) for eb in ebs]
        a_carol = fitted_carol.evaluate_targets(test_field.data, targets).alpha
        a_fxrz = fitted_fxrz.evaluate_targets(test_field.data, targets).alpha
        # at this miniature scale allow a generous parity band
        assert a_carol < a_fxrz + 35.0

    def test_carol_collection_faster_for_high_ratio_codec(self):
        # A dense grid (4 calibration points out of 12, like the paper's
        # 4/35) and fields large enough that the compressor dominates the
        # surrogate's fixed overhead — otherwise timing is a coin flip.
        fields = load_dataset("miranda", shape=(24, 36, 36))[:2]
        rel = np.geomspace(1e-3, 1e-1, 12)
        carol = CarolFramework(compressor="sperr", rel_error_bounds=rel, n_iter=3, cv=2)
        fxrz = FxrzFramework(compressor="sperr", rel_error_bounds=rel, n_iter=3, cv=2)
        rc = carol.fit(fields)
        rf = fxrz.fit(fields)
        assert rc.collection_seconds < rf.collection_seconds


class TestRefinement:
    def test_refine_merges_and_warm_starts(self, train_fields):
        fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=4, cv=2)
        fw.fit(train_fields[:2])
        rows_before = fw.training_data.n_rows
        evals_before = fw.model.info.n_evaluations
        rep = fw.refine(train_fields[2:4])
        assert fw.training_data.n_rows == rows_before + 2 * REL.size
        # warm start: fewer fresh evaluations than a cold fit
        assert fw.model.info.n_evaluations <= evals_before
        assert rep.n_rows == fw.training_data.n_rows

    def test_refine_without_fit_falls_back(self, train_fields):
        fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=3, cv=2)
        rep = fw.refine(train_fields[:2])
        assert rep.n_rows == 2 * REL.size

    def test_failed_collection_leaves_the_framework_as_it_was(
        self, fitted_carol, train_fields
    ):
        """``fit`` and ``refine`` collect before they change anything: a
        field the collector refuses leaves the training set, the model and
        the last report as they were."""
        data = train_fields[0].data.copy()
        data[0, 0, 0] = np.nan
        bad = dataclasses.replace(train_fields[0], data=data)
        fw = fitted_carol
        before = (fw.training_data, fw.model.forest, fw.model.info, fw.setup_report)
        for step in (fw.fit, fw.refine):
            with pytest.raises(ValueError, match="NaN or Inf"):
                step([bad])
            after = (fw.training_data, fw.model.forest, fw.model.info, fw.setup_report)
            assert all(x is y for x, y in zip(after, before))


class TestValidation:
    def test_unknown_compressor(self):
        with pytest.raises(KeyError):
            CarolFramework(compressor="rar")

    def test_predict_before_fit(self, test_field):
        fw = CarolFramework(compressor="szx")
        with pytest.raises(RuntimeError):
            fw.predict_error_bound(test_field.data, 5.0)
