"""On-the-fly feedback loop tests (paper future work)."""

import copy

import numpy as np
import pytest

from repro import CarolFramework, load_dataset, load_field
from repro.core.feedback import FeedbackLoop, FeedbackObservation
from repro.ml.models import MODEL_KINDS

SHAPE = (12, 16, 16)
REL = np.geomspace(1e-3, 1e-1, 5)


@pytest.fixture()
def fitted():
    fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=4, cv=2)
    fw.fit(load_dataset("miranda", shape=SHAPE)[:3])
    return fw


class TestObservation:
    def test_relative_error(self):
        obs = FeedbackObservation(np.zeros(5), 0.1, achieved_ratio=8.0, target_ratio=10.0)
        assert obs.relative_error == pytest.approx(0.2)


class TestLoop:
    def test_serving_records_feedback(self, fitted):
        loop = FeedbackLoop(fitted, refresh_every=100)
        field = load_field("miranda/pressure", shape=SHAPE, seed=3)
        result, pred = loop.compress_to_ratio(field.data, 5.0)
        assert len(loop.observations) == 1
        obs = loop.observations[0]
        assert obs.error_bound == pred.error_bound
        assert obs.achieved_ratio == pytest.approx(result.ratio)

    def test_refresh_triggered_by_count(self, fitted):
        loop = FeedbackLoop(fitted, refresh_every=3, error_threshold=10.0)
        field = load_field("miranda/pressure", shape=SHAPE, seed=3)
        for _ in range(3):
            loop.compress_to_ratio(field.data, 5.0)
        assert loop.refreshes == 1
        assert len(loop._pending) == 0  # folded into the model

    def test_refresh_triggered_by_error(self, fitted):
        loop = FeedbackLoop(fitted, refresh_every=100, error_threshold=0.05)
        # Inject degenerate feedback with large relative error.
        feats = np.ones(5)
        for i in range(30):
            loop.record(feats, 0.1, achieved_ratio=2.0, target_ratio=10.0)
            if loop.refreshes:
                break
        assert loop.refreshes >= 1

    def test_refresh_grows_training_data(self, fitted):
        rows_before = fitted.training_data.n_rows
        loop = FeedbackLoop(fitted, refresh_every=2, error_threshold=10.0)
        field = load_field("miranda/pressure", shape=SHAPE, seed=3)
        loop.compress_to_ratio(field.data, 5.0)
        loop.compress_to_ratio(field.data, 8.0)
        assert fitted.training_data.n_rows == rows_before + 2

    def test_warm_start_used_for_carol(self, fitted):
        loop = FeedbackLoop(fitted, refresh_every=2, error_threshold=10.0)
        field = load_field("miranda/pressure", shape=SHAPE, seed=3)
        loop.compress_to_ratio(field.data, 5.0)
        loop.compress_to_ratio(field.data, 8.0)
        # warm restart: fewer evaluations than the cold n_iter
        assert fitted.model.info.n_evaluations <= fitted.n_iter

    def test_rolling_error_window(self, fitted):
        loop = FeedbackLoop(fitted, refresh_every=4, error_threshold=10.0)
        assert loop.rolling_error == 0.0
        loop.record(np.ones(5), 0.1, achieved_ratio=9.0, target_ratio=10.0)
        assert loop.rolling_error == pytest.approx(0.1)

    def test_refresh_noop_without_pending(self, fitted):
        loop = FeedbackLoop(fitted)
        loop.refresh()
        assert loop.refreshes == 0

    def test_validation(self, fitted):
        with pytest.raises(ValueError):
            FeedbackLoop(fitted, refresh_every=0)
        with pytest.raises(ValueError):
            FeedbackLoop(fitted, error_threshold=0.0)
        with pytest.raises(ValueError):
            FeedbackLoop(fitted, error_threshold=-1.0)

    def test_single_bad_observation_does_not_trigger_refresh(self, fitted):
        """The error trigger needs a window (MIN_ERROR_WINDOW), not one
        outlier: a single terrible chunk must not cost a retrain."""
        loop = FeedbackLoop(fitted, refresh_every=100, error_threshold=0.05)
        loop.record(np.ones(5), 0.1, achieved_ratio=1.0, target_ratio=10.0)
        assert loop.refreshes == 0
        assert len(loop._pending) == 1

    def test_refresh_every_one_refreshes_per_observation(self, fitted):
        loop = FeedbackLoop(fitted, refresh_every=1, error_threshold=10.0)
        field = load_field("miranda/pressure", shape=SHAPE, seed=3)
        loop.compress_to_ratio(field.data, 5.0)
        assert loop.refreshes == 1
        assert len(loop._pending) == 0

    def test_model_still_serves_after_refresh(self, fitted):
        loop = FeedbackLoop(fitted, refresh_every=2, error_threshold=10.0)
        field = load_field("miranda/pressure", shape=SHAPE, seed=3)
        for target in (4.0, 6.0, 9.0):
            result, pred = loop.compress_to_ratio(field.data, target)
            assert pred.error_bound > 0
            assert result.ratio > 1.0


class TestRefreshIsRefine:
    """A refresh is the framework's own warm update step, the one
    ``refine`` runs: same model kind, same search space, same budget."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_refresh_trains_like_refine(self, kind):
        fw = CarolFramework(
            compressor="szx", rel_error_bounds=REL, n_iter=8, cv=2, model_kind=kind
        )
        fw.fit(load_dataset("miranda", shape=SHAPE)[:3])
        cold = len(fw.model.checkpoint)
        refined, looped = copy.deepcopy(fw), fw
        refined.refine(load_dataset("miranda", shape=SHAPE, seed=9)[:1])

        loop = FeedbackLoop(looped, refresh_every=2, error_threshold=10.0)
        field = load_field("miranda/pressure", shape=SHAPE, seed=3)
        loop.compress_to_ratio(field.data, 5.0)
        loop.compress_to_ratio(field.data, 8.0)
        assert loop.refreshes == 1

        info, warm = looped.model.info, refined.model.info.n_evaluations
        assert info.model_kind == refined.model.info.model_kind == kind
        assert type(looped.model.forest) is type(refined.model.forest)
        assert info.n_evaluations == warm < looped.n_iter
        assert len(looped.model.checkpoint) == cold + warm
