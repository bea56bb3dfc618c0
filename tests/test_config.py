"""FrameworkConfig: validation, serialization, end-to-end fit."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import FrameworkConfig


def _fit(cfg: FrameworkConfig):
    fw = cfg.build()
    fw.fit(cfg.load_training_fields())
    return fw


class TestValidation:
    def test_defaults_valid(self):
        cfg = FrameworkConfig()
        assert cfg.framework == "carol"
        assert cfg.rel_error_bounds().size == cfg.n_error_bounds

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"framework": "magic"},
            {"rel_eb_min": 0.0},
            {"rel_eb_min": 0.5, "rel_eb_max": 0.1},
            {"n_error_bounds": 1},
            {"n_iter": 0},
            {"cv": 1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FrameworkConfig(**kwargs)

    def test_shape_normalized(self):
        cfg = FrameworkConfig(shape=[8, 12.0, 10])
        assert cfg.shape == (8, 12, 10)


class TestSerialization:
    def test_dict_round_trip(self):
        cfg = FrameworkConfig(
            framework="fxrz", compressor="szx", shape=(8, 10, 10),
            datasets=["miranda", "hcci"], model_kind="knn",
        )
        again = FrameworkConfig.from_dict(asdict(cfg))
        assert again == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = FrameworkConfig(compressor="sperr", n_iter=3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        assert FrameworkConfig.load(path) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            FrameworkConfig.from_dict({"gpu": True})


class TestBuildAndFit:
    def test_build_matches_config(self):
        cfg = FrameworkConfig(framework="fxrz", compressor="zfp", n_iter=3, cv=2)
        fw = cfg.build()
        assert fw.name == "fxrz"
        assert fw.compressor_name == "zfp"
        assert fw.n_iter == 3

    def test_end_to_end_fit(self):
        cfg = FrameworkConfig(
            framework="carol", compressor="szx", shape=(10, 12, 12),
            datasets=["hcci"], n_error_bounds=5, n_iter=3, cv=2,
        )
        fw = _fit(cfg)
        assert fw.setup_report is not None
        assert fw.training_data.n_rows == 5  # 1 field x 5 ebs

    def test_same_config_same_model(self):
        """Reproducibility: identical configs produce identical predictions."""
        cfg = FrameworkConfig(
            framework="carol", compressor="szx", shape=(10, 12, 12),
            datasets=["hcci"], n_error_bounds=5, n_iter=3, cv=2, seed=7,
        )
        a, b = _fit(cfg), _fit(FrameworkConfig.from_dict(asdict(cfg)))
        x = np.cumsum(np.random.default_rng(0).standard_normal((10, 12, 12)), 0)
        pa = a.predict_error_bound(x, 5.0).error_bound
        pb = b.predict_error_bound(x, 5.0).error_bound
        assert pa == pytest.approx(pb)
