"""Benchmark-harness unit tests: scales, tables, curve cache, walltime model."""

import numpy as np
import pytest

from repro.bench import curves
from repro.bench.curves import true_curve
from repro.bench.harness import format_table, get_scale
from repro.data import load_field


class TestScale:
    def test_default_scale_is_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale().name == "small"

    def test_env_selects_medium(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        scale = get_scale()
        assert scale.name == "medium"
        assert scale.n_ebs == 35  # the paper's grid

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(KeyError):
            get_scale()

    def test_rel_ebs_grid(self):
        scale = get_scale()
        ebs = scale.rel_ebs(5)
        assert ebs.size == 5
        assert (np.diff(ebs) > 0).all()

    def test_dataset_kwargs_shapes(self):
        scale = get_scale()
        assert len(scale.dataset_kwargs("cesm")["shape"]) == 2
        assert len(scale.dataset_kwargs("miranda")["shape"]) == 3


class TestFormatTable:
    def test_alignment_and_note(self):
        out = format_table("T", ["a", "bb"], [[1, 2.5], ["x", 3.0]], note="hello")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "hello" in out
        assert "2.5" in out

    def test_float_formatting(self):
        out = format_table("T", ["v"], [[0.000123456]])
        assert "0.0001235" in out


class TestCurveCache:
    @pytest.fixture(autouse=True)
    def _empty_cache(self, monkeypatch):
        monkeypatch.setattr(curves, "_CACHE", {})

    def test_cache_hits_are_free(self):
        field = load_field("hcci/oh", shape=(10, 12, 12))
        ebs = np.geomspace(1e-2, 1e-1, 3) * field.value_range
        r1, t1 = true_curve(field, "szx", ebs)
        r2, t2 = true_curve(field, "szx", ebs)
        np.testing.assert_array_equal(r1, r2)
        assert t2 == t1  # cached entry reports the original cost

    def test_different_grid_different_entry(self):
        field = load_field("hcci/oh", shape=(10, 12, 12))
        ebs1 = np.geomspace(1e-2, 1e-1, 3) * field.value_range
        ebs2 = np.geomspace(1e-2, 1e-1, 4) * field.value_range
        r1, _ = true_curve(field, "szx", ebs1)
        r2, _ = true_curve(field, "szx", ebs2)
        assert r1.size != r2.size


class TestWalltimeModel:
    def test_memory_wall_serializes(self):
        from repro.bench.experiments_model import _modeled_parallel_walltime
        from repro.ml.grid_search import SearchRecord

        recs = [
            SearchRecord(params={}, score=0, fit_seconds=1.0, memory_bytes=600)
            for _ in range(4)
        ]
        # Budget fits two at a time -> two rounds of max(1.0) each.
        wall = _modeled_parallel_walltime(recs, memory_budget=1200, cores=36)
        assert wall == pytest.approx(2.0)
        # Unconstrained -> one round.
        wall = _modeled_parallel_walltime(recs, memory_budget=10_000, cores=36)
        assert wall == pytest.approx(1.0)

    def test_core_limit(self):
        from repro.bench.experiments_model import _modeled_parallel_walltime
        from repro.ml.grid_search import SearchRecord

        recs = [
            SearchRecord(params={}, score=0, fit_seconds=1.0, memory_bytes=1)
            for _ in range(5)
        ]
        wall = _modeled_parallel_walltime(recs, memory_budget=10_000, cores=2)
        assert wall == pytest.approx(3.0)  # ceil(5/2) rounds

    def test_oversized_job_runs_alone(self):
        from repro.bench.experiments_model import _modeled_parallel_walltime
        from repro.ml.grid_search import SearchRecord

        recs = [SearchRecord(params={}, score=0, fit_seconds=2.0, memory_bytes=999)]
        wall = _modeled_parallel_walltime(recs, memory_budget=10, cores=4)
        assert wall == pytest.approx(2.0)
