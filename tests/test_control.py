"""repro.control: the tier-escalation policy table, controller accounting,
store-writer integration (determinism, neutrality, OOD rescue — on szx,
whose T2 probes are closed-form, and on sz3, where each is a real
compression)."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro import CarolFramework, load_dataset, load_field
from repro.api import Service
from repro.control import (
    Controller,
    ControlOptions,
    ControlStats,
    Tier,
    decide_tier,
    heuristic_error_bound,
)
from repro.core.feedback import FeedbackLoop
from repro.core.framework import Prediction
from repro.ml.forest import RandomForestRegressor
from repro.ml.space import Choice, IntRange, SearchSpace
from repro.store import Store, StoreOptions, pack

SHAPE = (16, 16, 16)
CHUNK = (8, 8, 8)
REL = np.geomspace(1e-3, 3e-1, 6)

NAN = float("nan")


def _fit(compressor: str) -> CarolFramework:
    fw = CarolFramework(compressor=compressor, rel_error_bounds=REL, n_iter=4, cv=2)
    fw.fit(load_dataset("miranda", shape=CHUNK))
    return fw


@pytest.fixture(scope="module")
def fitted():
    return _fit("szx")


@pytest.fixture(scope="module")
def field():
    return load_field("miranda/pressure", shape=SHAPE, seed=11)


class StubFramework:
    """A predictor with a scripted (eb, std) answer, real szx behind it."""

    compressor_name = "szx"

    def __init__(self, eb: float = 0.01, std: float = NAN):
        self.eb = eb
        self.std = std

    def predict_error_bound(self, data, target_ratio, safety=0.0):
        return Prediction(
            error_bound=self.eb,
            target_ratio=float(target_ratio),
            features=np.ones(3),
            feature_seconds=0.0,
            inference_seconds=0.0,
            std=self.std,
        )


class TestDecideTier:
    def test_default_is_model(self):
        opts = ControlOptions()
        assert decide_tier(std=NAN, pressure=0.0, risk_remaining=4, options=opts) is Tier.MODEL

    def test_heuristic_is_opt_in(self):
        low = dict(std=0.001, pressure=0.0, risk_remaining=4)
        assert decide_tier(**low, options=ControlOptions()) is Tier.MODEL
        assert decide_tier(**low, options=ControlOptions(t0_std=0.05)) is Tier.HEURISTIC

    def test_high_std_escalates_only_with_risk(self):
        opts = ControlOptions(t2_std=0.25)
        assert decide_tier(std=0.3, pressure=0.0, risk_remaining=1, options=opts) is Tier.REFINE
        assert decide_tier(std=0.3, pressure=0.0, risk_remaining=0, options=opts) is Tier.MODEL

    def test_pressure_escalates_without_std(self):
        opts = ControlOptions()
        assert decide_tier(std=NAN, pressure=0.5, risk_remaining=1, options=opts) is Tier.REFINE

    def test_nan_std_never_relaxes(self):
        opts = ControlOptions(t0_std=0.05)
        assert decide_tier(std=NAN, pressure=0.0, risk_remaining=4, options=opts) is Tier.MODEL

    def test_pressure_blocks_relax(self):
        opts = ControlOptions(t0_std=0.05, t0_pressure=0.02)
        assert decide_tier(std=0.01, pressure=0.05, risk_remaining=4, options=opts) is Tier.MODEL

    def test_monotone_in_std_and_pressure(self):
        """The docstring's property: growing std or pressure never lowers
        the tier, and draining the risk budget never raises it."""
        opts = ControlOptions(t0_std=0.05, t0_pressure=0.03, t2_std=0.25, t2_pressure=0.10)
        stds = [NAN] + list(np.linspace(0.0, 0.5, 11))
        pressures = np.linspace(0.0, 0.3, 9)
        for pressure in pressures:
            prev = None
            for std in stds[1:]:  # nan is unordered; checked separately
                tier = decide_tier(
                    std=std, pressure=pressure, risk_remaining=4, options=opts
                )
                if prev is not None:
                    assert tier >= prev, (std, pressure)
                prev = tier
        for std in stds:
            prev = None
            for pressure in pressures:
                tier = decide_tier(
                    std=std, pressure=pressure, risk_remaining=4, options=opts
                )
                if prev is not None:
                    assert tier >= prev, (std, pressure)
                prev = tier

    def test_risk_only_caps_never_raises(self):
        opts = ControlOptions(t0_std=0.05)
        for std, pressure in itertools.product(
            [NAN, 0.0, 0.04, 0.3], [0.0, 0.05, 0.2]
        ):
            with_risk = decide_tier(
                std=std, pressure=pressure, risk_remaining=3, options=opts
            )
            without = decide_tier(
                std=std, pressure=pressure, risk_remaining=0, options=opts
            )
            assert without <= with_risk
            assert without <= Tier.MODEL or with_risk is Tier.REFINE


class TestControlOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t0_std=-0.1),
            dict(t0_pressure=-0.1),
            dict(t0_std=0.3, t2_std=0.2),
            dict(t0_pressure=0.2, t2_pressure=0.1),
            dict(risk_budget=-1),
            dict(refine_compressions=0),
            dict(refine_tolerance=0.0),
            dict(heuristic_points=1),
            dict(std_window=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ControlOptions(**kwargs)


class TestControlStats:
    def test_derived_counts_and_dict(self):
        stats = ControlStats(
            t0=1, t1=5, t2=2, escalations_std=1, escalations_pressure=1,
            compressions_spent=2, probes_spent=9, unreachable=1,
            budget_drift=0.02,
        )
        assert stats.requests == 8
        assert stats.escalations == 2
        d = dataclasses.asdict(stats)
        assert d["t2"] == 2 and d["budget_drift"] == pytest.approx(0.02)
        assert (d["compressions_spent"], d["probes_spent"], d["unreachable"]) == (2, 9, 1)
        with pytest.raises(AttributeError):
            stats.t2 = 3


class TestControllerAccounting:
    def test_rejects_non_predictor(self):
        with pytest.raises(TypeError):
            Controller(object())

    def test_risk_consumed_in_call_order(self):
        ctrl = Controller(StubFramework(), options=ControlOptions(risk_budget=2))
        tiers = [ctrl.chunk_tier(0.9, 0.0) for _ in range(4)]
        assert tiers == [Tier.REFINE, Tier.REFINE, Tier.MODEL, Tier.MODEL]
        assert ctrl.risk_remaining == 0
        assert ctrl.stats().t2 == 2 and ctrl.stats().t1 == 2

    def test_escalation_attribution(self):
        ctrl = Controller(StubFramework(), options=ControlOptions(risk_budget=4))
        ctrl.chunk_tier(0.9, 0.0)   # std-triggered
        ctrl.chunk_tier(NAN, 0.5)   # pressure-triggered (nan std can't count)
        stats = ctrl.stats()
        assert stats.escalations_std == 1
        assert stats.escalations_pressure == 1

    def test_reset_restores_risk_keeps_windows(self):
        ctrl = Controller(StubFramework(), options=ControlOptions(risk_budget=1))
        ctrl.record_std(0.1)
        ctrl.chunk_tier(0.9, 0.0)
        assert ctrl.risk_remaining == 0
        ctrl.reset()
        assert ctrl.risk_remaining == 1
        assert len(ctrl._stds) == 1  # committed evidence survives packs
        assert ctrl.stats().t2 == 0

    def test_record_std_ignores_nan(self):
        ctrl = Controller(StubFramework())
        ctrl.record_std(NAN)
        ctrl.record_std(0.2)
        assert list(ctrl._stds) == [0.2]

    def test_observed_pressure_needs_two_outcomes(self):
        ctrl = Controller(StubFramework())
        assert ctrl.observed_pressure(0.03) == pytest.approx(0.03)
        ctrl.record_outcome(10.0, 5.0)
        assert ctrl.observed_pressure(0.03) == pytest.approx(0.03)
        ctrl.record_outcome(10.0, 5.0)
        assert ctrl.observed_pressure(0.03) == pytest.approx(0.5)

    def test_observed_pressure_is_median_not_mean(self):
        """One terrible chunk must not torch trust in a usable model."""
        ctrl = Controller(StubFramework())
        for err in (0.05, 0.06, 0.07, 0.9):
            ctrl.record_outcome(1.0, 1.0 + err)
        assert ctrl.observed_pressure(0.0) == pytest.approx(0.065)

    def test_wave_tier_needs_full_window(self):
        opts = ControlOptions(t0_std=0.05, std_window=3)
        ctrl = Controller(StubFramework(), options=opts)
        ctrl.record_std(0.01)
        ctrl.record_std(0.01)
        assert ctrl.wave_tier(0.0) is Tier.MODEL  # window not full yet
        ctrl.record_std(0.01)
        assert ctrl.wave_tier(0.0) is Tier.HEURISTIC
        assert ctrl.wave_tier(0.5) is Tier.MODEL  # pressure blocks relaxing

    def test_heuristic_prediction_has_no_features(self, smooth3d):
        ctrl = Controller(StubFramework())
        pred = ctrl.heuristic_prediction(smooth3d, 8.0)
        assert pred.features.size == 0
        assert pred.error_bound > 0
        assert np.isnan(pred.std)
        assert ctrl.stats().t0 == 1

    def test_refine_runs_real_compressor(self, smooth3d):
        ctrl = Controller(StubFramework(), options=ControlOptions(refine_compressions=6))
        fraz = ctrl.refine(smooth3d, 6.0, initial_eb=1e-3)
        # szx probes are closed-form: several measurements, each one kept
        # in the history, and a single real compression.
        assert fraz.n_probes > fraz.n_compressions == 1
        assert len(fraz.history) == fraz.n_probes
        stats = ctrl.stats()
        assert stats.compressions_spent == fraz.n_compressions
        assert stats.probes_spent == fraz.n_probes
        assert stats.unreachable == 0

    def test_refine_counts_unreachable_targets(self, smooth3d):
        ctrl = Controller(StubFramework())
        fraz = ctrl.refine(smooth3d, 1e7, initial_eb=1e-3)
        assert not fraz.reachable
        assert ctrl.stats().unreachable == 1
        ctrl.reset()
        assert ctrl.stats().unreachable == 0


class TestEscalateHelpers:
    def test_heuristic_error_bound_tracks_target(self, smooth3d):
        hard = heuristic_error_bound(smooth3d, 50.0, compressor="szx")
        easy = heuristic_error_bound(smooth3d, 4.0, compressor="szx")
        assert 0 < easy < hard  # higher ratio needs a larger bound

    def test_heuristic_validation(self, smooth3d):
        with pytest.raises(ValueError):
            heuristic_error_bound(smooth3d, -1.0, compressor="szx")
        with pytest.raises(ValueError):
            heuristic_error_bound(smooth3d, 8.0, compressor="szx", points=1)


class TestForestSpread:
    def test_degenerate_ensemble_has_no_spread(self):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((40, 3)), rng.standard_normal(40)
        degenerate = RandomForestRegressor(
            n_estimators=4, bootstrap=False, max_features="auto", random_state=0
        ).fit(X, y)
        assert not degenerate.has_spread
        # identical trees agree exactly: zero spread, meaningless as signal
        assert degenerate.predict_with_std(X)[1].max() == 0.0
        assert RandomForestRegressor(n_estimators=2, bootstrap=True).has_spread
        assert RandomForestRegressor(
            n_estimators=2, bootstrap=False, max_features="sqrt"
        ).has_spread

    def test_prediction_reports_nan_for_degenerate_forest(self, fitted, monkeypatch):
        model = fitted.model
        if not hasattr(model.forest, "predict_with_std"):
            pytest.skip("fitted model is not a forest")
        monkeypatch.setattr(model.forest, "bootstrap", False)
        monkeypatch.setattr(model.forest, "max_features", "auto")
        feats = np.ones(len(model.feature_names))
        eb, std = model.predict_error_bound_with_std(feats, 8.0)
        assert eb > 0
        assert np.isnan(std)
        ebs, stds = model.predict_error_bound_batch_with_std(feats, [4.0, 8.0])
        assert np.isnan(stds).all()
        # the error bounds themselves are bitwise-identical to the
        # spread-carrying path (the gate only affects the std report)
        assert ebs[1] == eb


class TestStoreIntegration:
    OOD_OPTS = ControlOptions(
        t2_std=0.5, t2_pressure=0.10, risk_budget=8, refine_compressions=6
    )

    @pytest.fixture(scope="class")
    def ood(self, field):
        return field.data * 1e3

    def test_inert_control_is_payload_neutral(self, fitted, field, tmp_path):
        """A controller that never escalates must not change the stored
        payload (the manifest legitimately differs: it records the
        control options so readers can reconstruct them)."""
        off = pack(
            tmp_path / "off.rps", field.data, fitted, 4.0,
            options=StoreOptions(chunk_shape=CHUNK, wave_size=2),
        )
        inert = ControlOptions(t2_std=1e9, t2_pressure=1e9, risk_budget=0)
        on = pack(
            tmp_path / "on.rps", field.data, fitted, 4.0,
            options=StoreOptions(chunk_shape=CHUNK, wave_size=2, control=inert),
        )
        assert on.stored_bytes == off.stored_bytes
        assert [c.error_bound for c in on.chunks] == [
            c.error_bound for c in off.chunks
        ]
        assert on.control is not None and on.control.t2 == 0
        assert off.control is None
        with Store(tmp_path / "off.rps") as a, Store(tmp_path / "on.rps") as b:
            np.testing.assert_array_equal(a.read(), b.read())

    def test_explicit_none_control_is_byte_neutral(self, fitted, field, tmp_path):
        """``control=None`` spelled out is the bench's neutrality gate:
        byte-identical to plain options."""
        pack(
            tmp_path / "plain.rps", field.data, fitted, 4.0,
            options=StoreOptions(chunk_shape=CHUNK, wave_size=2),
        )
        pack(
            tmp_path / "none.rps", field.data, fitted, 4.0,
            options=StoreOptions(chunk_shape=CHUNK, wave_size=2, control=None),
        )
        assert (
            (tmp_path / "plain.rps").read_bytes()
            == (tmp_path / "none.rps").read_bytes()
        )

    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    def test_controlled_pack_bytes_identical_across_workers(
        self, fitted, ood, tmp_path, workers
    ):
        """The ISSUE's determinism gate: decisions from committed
        wave-boundary state only, refinement in-process."""
        path = tmp_path / f"w{workers}.rps"
        pack(
            path, ood, fitted, 3.0,
            options=StoreOptions(
                chunk_shape=CHUNK, wave_size=2, workers=workers,
                control=self.OOD_OPTS,
            ),
        )
        reference = tmp_path.parent / f"reference-{fitted.compressor_name}.rps"
        if not reference.exists():
            pack(
                reference, ood, fitted, 3.0,
                options=StoreOptions(
                    chunk_shape=CHUNK, wave_size=2, control=self.OOD_OPTS
                ),
            )
        assert path.read_bytes() == reference.read_bytes()

    def test_ood_rescue_smoke(self, fitted, ood, tmp_path):
        off = pack(
            tmp_path / "ood-off.rps", ood, fitted, 3.0,
            options=StoreOptions(chunk_shape=CHUNK, wave_size=2),
        )
        on = pack(
            tmp_path / "ood-on.rps", ood, fitted, 3.0,
            options=StoreOptions(
                chunk_shape=CHUNK, wave_size=2, control=self.OOD_OPTS
            ),
        )
        assert on.budget_drift < off.budget_drift
        stats = on.control
        assert stats.t2 >= 1
        assert stats.probes_spent <= stats.t2 * self.OOD_OPTS.refine_compressions
        if fitted.compressor_name == "szx":
            assert on.budget_drift <= 0.15
            # one real compression per escalated chunk: the one that is stored
            assert stats.compressions_spent == stats.t2 < stats.probes_spent
        else:
            # every probe is a real compression, the stored one among them
            assert stats.compressions_spent == stats.probes_spent
        assert f"{stats.probes_spent} refine probes" in on.summary()
        assert f"{stats.unreachable} unreachable" in on.summary()

    def test_manifest_round_trips_control(self, fitted, ood, tmp_path):
        path = tmp_path / "m.rps"
        pack(
            path, ood, fitted, 3.0,
            options=StoreOptions(
                chunk_shape=CHUNK, wave_size=2, control=self.OOD_OPTS
            ),
        )
        with Store(path) as st:
            record = st.manifest["control"]
            data = st.read()
        # exactly the options' fields (the manifest sorts its keys); the
        # serialized form is pinned byte for byte by golden/control_szx.rps
        assert list(record) == sorted(f.name for f in dataclasses.fields(ControlOptions))
        assert ControlOptions(**record) == self.OOD_OPTS
        assert data.shape == SHAPE

    def test_escalations_feed_feedback_loop(self, fitted, ood, tmp_path):
        loop = FeedbackLoop(fitted, refresh_every=10_000)
        report = pack(
            tmp_path / "fb.rps", ood, fitted, 3.0,
            options=StoreOptions(
                chunk_shape=CHUNK, wave_size=2, control=self.OOD_OPTS
            ),
            feedback=loop,
        )
        stats = report.control
        assert stats.t2 >= 1
        # every T2 probe is a ground-truth observation, plus one per
        # committed model-tier chunk
        assert len(loop.observations) >= stats.probes_spent


class TestStoreIntegrationSZ3(TestStoreIntegration):
    """The same cases on the codec whose T2 probes are real compressions
    (on 512-element chunks sz3's ratio is capped, so some targets are
    unreachable and the rescue is partial)."""

    @pytest.fixture(scope="class")
    def fitted(self):
        return _fit("sz3")


class TestServeIntegration:
    def test_predict_batch_stds_match_scalar(self, fitted, field):
        service = Service(fitted)
        requests = [(field.data, 4.0), (field.data, 8.0)]
        batch = service.predict_batch(requests)
        for (data, ratio), pred in zip(requests, batch):
            single = service.predict(data, ratio)
            assert pred.error_bound == single.error_bound
            assert (
                pred.std == single.std
                or (np.isnan(pred.std) and np.isnan(single.std))
            )


#: One bootstrapped forest configuration: its trees disagree, so every
#: prediction carries a spread.
SPREAD_SPACE = SearchSpace(
    {
        "n_estimators": IntRange(8, 8),
        "max_features": Choice(("auto",)),
        "max_depth": IntRange(6, 6),
        "min_samples_split": Choice((2,)),
        "min_samples_leaf": Choice((1,)),
        "bootstrap": Choice((True,)),
    }
)


class TestPackerSeesTheSpread:
    OPTS = ControlOptions(t2_std=0.05, t2_pressure=5.0)

    @pytest.fixture(scope="class")
    def fw(self):
        fw = CarolFramework(
            compressor="szx", rel_error_bounds=REL, space=SPREAD_SPACE, n_iter=2, cv=2
        )
        fw.fit(load_dataset("miranda", shape=CHUNK))
        return fw

    def test_std_escalates_a_framework_pack(self, fw, field, tmp_path):
        assert fw.model.forest.has_spread
        report = pack(
            tmp_path / "spread.rps", field, fw, 8.0,
            options=StoreOptions(chunk_shape=CHUNK, control=self.OPTS),
        )
        assert report.control.escalations_std > 0
        # Replay each chunk: the service's prediction at the chunk's
        # target, then the same warm refinement where its spread escalates.
        # A pressure threshold of 5 leaves the spread as the only trigger.
        replay = Controller(fw, options=self.OPTS)
        n_std = 0
        with Service(fw) as service:
            for rec in report.chunks:
                chunk = np.ascontiguousarray(
                    field.data[tuple(slice(c * e, (c + 1) * e) for c, e in zip(rec.coords, CHUNK))]
                )
                pred = service.predict(chunk, rec.target_ratio)
                expected = pred.error_bound
                if pred.std >= self.OPTS.t2_std:
                    n_std += 1
                    expected = replay.refine(
                        chunk, rec.target_ratio, initial_eb=pred.error_bound
                    ).error_bound
                assert rec.error_bound == expected
        assert report.control.escalations_std == report.control.t2 == n_std

    def test_loop_learns_in_chunk_order(self, fw, field, tmp_path, monkeypatch):
        """At commit, in chunk-id order, the writer records one observation
        per model-tier chunk and one per probe of an escalated chunk's
        search — here where each wave holds a model-tier chunk and then an
        escalated one (scaled up, the first chunk of a wave spreads less)."""
        source = field.data.copy()
        source[..., : CHUNK[-1]] *= 1e3
        searches = {}
        refine = Controller.refine

        def spy(ctrl, data, target_ratio, **kwargs):
            searches[data.tobytes()] = refine(ctrl, data, target_ratio, **kwargs)
            return searches[data.tobytes()]

        monkeypatch.setattr(Controller, "refine", spy)
        loop = FeedbackLoop(fw, refresh_every=10_000)
        report = pack(
            tmp_path / "order.rps", source, fw, 8.0,
            options=StoreOptions(
                chunk_shape=CHUNK, wave_size=2,
                control=ControlOptions(t2_std=0.45, t2_pressure=5.0),
            ),
            feedback=loop,
        )
        expected, escalated = [], []
        for rec in report.chunks:
            chunk = np.ascontiguousarray(
                source[tuple(slice(c * e, (c + 1) * e) for c, e in zip(rec.coords, CHUNK))]
            )
            fraz = searches.get(chunk.tobytes())
            escalated.append(fraz is not None)
            measured = [(rec.error_bound, rec.achieved_ratio)] if fraz is None else fraz.history
            features = fw.extract_features(chunk)
            expected += [(features, eb, ratio, rec.target_ratio) for eb, ratio in measured]
        assert sum(escalated) == report.control.t2
        assert any(escalated[i] and not escalated[i - 1] for i in range(1, len(escalated), 2))
        assert len(loop.observations) == len(expected)
        for obs, (features, eb, ratio, target) in zip(loop.observations, expected):
            np.testing.assert_array_equal(obs.features, features)
            assert (obs.error_bound, obs.achieved_ratio, obs.target_ratio) == (eb, ratio, target)
