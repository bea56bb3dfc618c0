"""Raw binary (SDRBench-format) field I/O."""

import numpy as np
import pytest

from repro.data.fields import Field
from repro.data.io import load_raw, load_raw_dataset, save_raw


@pytest.fixture()
def field(rng):
    return Field("testset", "temp", rng.standard_normal((6, 8, 10)).astype(np.float32))


class TestRoundTrip:
    def test_save_load(self, field, tmp_path):
        path = save_raw(field, tmp_path / "testset" / "temp_6x8x10.f32")
        loaded = load_raw(path, (6, 8, 10))
        np.testing.assert_array_equal(loaded.data, field.data)
        assert loaded.dataset == "testset"
        assert loaded.name == "temp_6x8x10"

    def test_explicit_names(self, field, tmp_path):
        path = save_raw(field, tmp_path / "x.f32")
        loaded = load_raw(path, (6, 8, 10), dataset="miranda", name="temp")
        assert loaded.path == "miranda/temp"

    def test_float64_dtype(self, rng, tmp_path):
        f = Field("d", "v", rng.standard_normal((4, 4)).astype(np.float64))
        path = save_raw(f, tmp_path / "v.f64")
        loaded = load_raw(path, (4, 4), dtype=np.float64)
        np.testing.assert_array_equal(loaded.data, f.data)


class TestValidation:
    def test_size_mismatch(self, field, tmp_path):
        path = save_raw(field, tmp_path / "t.f32")
        with pytest.raises(ValueError, match="bytes"):
            load_raw(path, (6, 8, 11))

    def test_nonfinite_rejected(self, tmp_path):
        bad = np.array([1.0, np.nan], dtype=np.float32)
        bad.tofile(tmp_path / "bad.f32")
        with pytest.raises(ValueError, match="non-finite"):
            load_raw(tmp_path / "bad.f32", (2,))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_raw_dataset(tmp_path, (4, 4))


class TestNonFiniteMask:
    """SDRBench fill sentinels (NaN, +-Inf) are rejected, naming the file:
    error-bounded compression is undefined on them."""

    @pytest.fixture()
    def sentinel_path(self, tmp_path):
        data = np.array([[1.0, np.nan, 3.0], [np.inf, 5.0, -np.inf]], dtype=np.float32)
        data.tofile(tmp_path / "sentinels.f32")
        return tmp_path / "sentinels.f32"

    def test_default_still_raises(self, sentinel_path):
        with pytest.raises(ValueError, match="sentinels.f32: contains non-finite"):
            load_raw(sentinel_path, (2, 3))


class TestAtomicSave:
    def test_overwrite_is_atomic_on_failure(self, field, tmp_path):
        target = tmp_path / "field.f32"
        save_raw(field, target)
        good = target.read_bytes()

        class Exploding:
            def tofile(self, fh):
                fh.write(b"partial")  # bytes hit the temp file, never the target
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            save_raw(Field("d", "v", Exploding()), target)
        assert target.read_bytes() == good

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        class Exploding:
            def tofile(self, fh):
                raise OSError("disk full")

        target = tmp_path / "new.f32"
        with pytest.raises(OSError):
            save_raw(Field("d", "v", Exploding()), target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no orphaned temp files

    def test_no_temp_files_after_success(self, field, tmp_path):
        save_raw(field, tmp_path / "ok.f32")
        assert [p.name for p in tmp_path.iterdir()] == ["ok.f32"]


class TestDatasetLoad:
    def test_loads_all_matching(self, rng, tmp_path):
        d = tmp_path / "nyx"
        for name in ("density", "temp", "vx"):
            save_raw(
                Field("nyx", name, rng.standard_normal((4, 6)).astype(np.float32)),
                d / f"{name}.f32",
            )
        fields = load_raw_dataset(d, (4, 6))
        assert [f.name for f in fields] == ["density", "temp", "vx"]
        assert all(f.dataset == "nyx" for f in fields)

    def test_pipeline_on_raw_data(self, rng, tmp_path):
        """Raw-loaded fields run the full CAROL pipeline unchanged."""
        from repro import CarolFramework

        d = tmp_path / "sim"
        for i in range(3):
            data = np.cumsum(
                rng.standard_normal((10, 12, 12)), axis=0
            ).astype(np.float32)
            save_raw(Field("sim", f"f{i}", data), d / f"f{i}.f32")
        fields = load_raw_dataset(d, (10, 12, 12))
        fw = CarolFramework(
            compressor="szx", rel_error_bounds=np.geomspace(1e-3, 1e-1, 5),
            n_iter=3, cv=2,
        )
        fw.fit(fields)
        pred = fw.predict_error_bound(fields[0].data, 5.0)
        assert pred.error_bound > 0
