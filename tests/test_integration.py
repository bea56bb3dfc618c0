"""Cross-module integration tests: the paper's scenarios in miniature."""

import numpy as np
import pytest

from repro import (
    CarolFramework,
    FxrzFramework,
    estimation_error,
    get_compressor,
    get_surrogate,
    invert_curve,
    load_dataset,
    load_field,
)
from repro.core.calibration import Calibrator

SHAPE = (16, 20, 20)
REL = np.geomspace(1e-3, 1e-1, 6)


class TestSecrePlusCalibrationPipeline:
    """Section 5.1 + 5.2: surrogate estimate, then calibrate, then invert."""

    @pytest.mark.parametrize("name", ["sz3", "sperr"])
    def test_calibrated_curve_inverts_to_good_eb(self, name):
        field = load_field("miranda/viscosity", shape=(20, 28, 28))
        codec = get_compressor(name)
        ebs = REL * field.value_range
        est, _ = get_surrogate(name).estimate_curve(field.data, ebs)
        cal, _ = Calibrator(n_points=4).calibrate_curve(field.data, ebs, est, codec)

        # Invert the calibrated curve for a mid-range target and check the
        # achieved ratio against the request.
        target = float(cal[len(cal) // 2])
        eb = invert_curve(ebs, cal, target)
        achieved = codec.compression_ratio(field.data, eb)
        assert estimation_error([target], [achieved]) < 35.0


class TestMultiDatasetTraining:
    """Fig. 7's multi-domain setting, miniature."""

    def test_cross_dataset_generalization(self):
        train = (
            load_dataset("miranda", shape=SHAPE)[:3]
            + load_dataset("hcci", shape=SHAPE)
            + load_dataset("mrs", shape=SHAPE)
        )
        test_field = load_field("nyx/velocity_x", shape=SHAPE)
        codec = get_compressor("szx")
        ebs = REL[1:5] * test_field.value_range
        targets = [codec.compression_ratio(test_field.data, eb) for eb in ebs]
        alphas = []
        for seed in range(5):
            fw = CarolFramework(
                compressor="szx", rel_error_bounds=REL, n_iter=5, cv=3, seed=seed
            )
            fw.fit(train)
            alphas.append(fw.evaluate_targets(test_field.data, targets).alpha)
        # Unseen dataset, miniature training set. One search seed lands
        # anywhere in 79.4-80.3 and so measures the seed; the median (79.7)
        # measures the method, gated with that spread's margin to spare.
        assert np.median(alphas) < 85.0

    def test_both_frameworks_agree_on_training_rows(self):
        train = load_dataset("miranda", shape=SHAPE)[:2]
        for cls in (CarolFramework, FxrzFramework):
            fw = cls(compressor="zfp", rel_error_bounds=REL, n_iter=3, cv=2)
            fw.fit(train)
            X, y = fw.training_data.design_matrix()
            assert X.shape[0] == y.size == 2 * REL.size


class TestTimeEvolvingRefinement:
    """The hurricane scenario motivating incremental refinement (Sec. 1)."""

    def test_refinement_tracks_drift(self):
        early = load_dataset("hurricane", shape=(8, 24, 24), timestep=0)[:3]
        late = load_dataset("hurricane", shape=(8, 24, 24), timestep=30)[:3]
        fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=4, cv=2)
        fw.fit(early)
        evals_cold = fw.model.info.n_evaluations
        rep = fw.refine(late)
        # refinement runs fewer fresh search evaluations than the cold fit
        # (wall-clock comparisons are too noisy on a loaded CI box)
        assert fw.model.info.n_evaluations <= evals_cold
        # and the model still serves predictions
        pred = fw.predict_error_bound(late[0].data, 8.0)
        assert pred.error_bound > 0


class TestCompressorInteroperability:
    def test_compressed_stream_is_self_describing(self, smooth2d):
        codec = get_compressor("sz3")
        res = codec.compress(smooth2d, 1e-2)
        # decoding with a *fresh* instance must work (no shared state)
        out = get_compressor("sz3").decompress(res)
        assert np.abs(out - smooth2d).max() <= 1e-2

    def test_all_codecs_on_all_dataset_flavours(self):
        fields = [
            load_field("cesm/ts", shape=(24, 48)),
            load_field("hcci/oh", shape=(14, 14, 14)),
        ]
        for name in ("szx", "zfp", "sz3", "sperr"):
            codec = get_compressor(name)
            for f in fields:
                eb = f.relative_error_bound(1e-2)
                out, res = codec.roundtrip(f.data, eb)
                assert np.abs(out - f.data.astype(np.float64)).max() <= eb
                assert res.ratio > 1.0
