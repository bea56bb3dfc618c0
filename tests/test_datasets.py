"""Synthetic dataset generators: determinism, structure, evolution."""

import re

import numpy as np
import pytest

from repro.data import DATASET_NAMES, Field, load_dataset, load_field
from repro.data.datasets import hurricane, nyx

SMALL = (12, 16, 16)


class TestRegistry:
    def test_all_paper_datasets_present(self):
        for name in ("miranda", "nyx", "cesm", "hurricane", "hcci", "mrs"):
            assert name in DATASET_NAMES

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("enron-emails")

    def test_unknown_field(self):
        with pytest.raises(KeyError):
            load_field("miranda/entropy")

    @pytest.mark.parametrize("shape", [(0, 4, 4), (4, -1, 4), (4, 4, 2.5), (0, 8)])
    def test_non_positive_axis_rejected_naming_the_shape(self, shape):
        dataset = "cesm" if len(shape) == 2 else "miranda"
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            load_dataset(dataset, shape=shape)

    def test_zero_axis_field_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            load_field("miranda/pressure", shape=(0, 4, 4))


class TestFieldCounts:
    def test_miranda_has_7_fields(self):
        fields = load_dataset("miranda", shape=SMALL)
        assert len(fields) == 7
        names = {f.name for f in fields}
        assert {"density", "viscosity", "pressure"} <= names

    def test_nyx_has_4_fields(self):
        assert len(load_dataset("nyx", shape=SMALL)) == 4

    def test_hurricane_has_13_fields(self):
        assert len(load_dataset("hurricane", shape=SMALL)) == 13

    def test_cesm_is_2d(self):
        for f in load_dataset("cesm", shape=(24, 48)):
            assert f.data.ndim == 2


class TestDeterminism:
    @pytest.mark.parametrize("name", ["miranda", "nyx", "hcci", "mrs"])
    def test_same_seed_same_data(self, name):
        a = load_dataset(name, shape=SMALL)
        b = load_dataset(name, shape=SMALL)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.data, fb.data)

    def test_different_seed_different_data(self):
        a = load_dataset("miranda", shape=SMALL, seed=1)
        b = load_dataset("miranda", shape=SMALL, seed=2)
        assert not np.array_equal(a[0].data, b[0].data)


class TestProperties:
    def test_float32_and_finite(self):
        for name in DATASET_NAMES:
            shape = (24, 48) if name == "cesm" else SMALL
            for f in load_dataset(name, shape=shape):
                assert f.data.dtype == np.float32
                assert np.isfinite(f.data).all(), f.path

    def test_nyx_density_heavy_tailed(self):
        bd = load_field("nyx/baryon_density", shape=(24, 24, 24))
        data = bd.data.astype(np.float64)
        assert data.min() > 0
        # log-normal: mean far above median
        assert data.mean() > 1.5 * np.median(data)

    def test_hcci_has_sharp_fronts(self):
        f = load_field("hcci/oh", shape=SMALL)
        grad = np.abs(np.diff(f.data.astype(np.float64), axis=0))
        # fronts jump the full tanh range in a single grid step
        assert grad.max() > 5 * grad.mean()

    def test_shape_override(self):
        f = load_field("mrs/magnetic_reconnection", shape=(10, 11, 12))
        assert f.data.shape == (10, 11, 12)


class TestTimeEvolution:
    def test_nyx_timesteps_correlated_but_different(self):
        t0 = nyx(shape=SMALL, timestep=0)[0].data.astype(np.float64)
        t1 = nyx(shape=SMALL, timestep=1)[0].data.astype(np.float64)
        assert not np.array_equal(t0, t1)
        corr = np.corrcoef(np.log(t0.ravel()), np.log(t1.ravel()))[0, 1]
        assert corr > 0.5

    def test_hurricane_vortex_moves(self):
        a = hurricane(shape=SMALL, timestep=0)
        b = hurricane(shape=SMALL, timestep=20)
        ua = next(f for f in a if f.name == "u").data
        ub = next(f for f in b if f.name == "u").data
        pos_a = np.unravel_index(np.argmax(np.abs(ua)), ua.shape)
        pos_b = np.unravel_index(np.argmax(np.abs(ub)), ub.shape)
        assert pos_a != pos_b

    def test_timestep_recorded_in_path(self):
        f = nyx(shape=SMALL, timestep=3)[0]
        assert "@t3" in f.path


class TestFieldHelpers:
    def test_relative_error_bound(self):
        f = Field("x", "y", np.array([0.0, 2.0], dtype=np.float32))
        assert f.relative_error_bound(0.1) == pytest.approx(0.2)

    def test_relative_eb_degenerate_range(self):
        f = Field("x", "y", np.zeros(4, dtype=np.float32))
        assert f.relative_error_bound(0.1) == pytest.approx(0.1)

    def test_path_format(self):
        f = load_field("miranda/density", shape=SMALL)
        assert f.path == "miranda/density"
        assert "shape" in repr(f)
