"""repro.store end to end: pack/unpack round trips, closed-loop budgeting,
random access, corruption detection, memmap streaming, feedback wiring."""

import numpy as np
import pytest

from repro import CarolFramework, Field, load_dataset, load_field, obs
from repro.core.feedback import FeedbackLoop
from repro.compressors import get_compressor
from repro.data.io import load_raw, save_raw
from repro.serve.pool import PoolStats
from repro.store import (
    CorruptChunkError,
    Store,
    StoreFormatError,
    StoreOptions,
    StoreWriter,
    open_raw,
    pack,
)
from repro.store.writer import MAX_CHUNK_RATIO

SHAPE = (24, 32, 32)
CHUNK = (8, 16, 16)
TARGET = 8.0
REL = np.geomspace(1e-3, 3e-1, 8)


@pytest.fixture(scope="module")
def fitted():
    """Framework trained on chunk-sized fields, so per-chunk predictions
    see in-distribution feature statistics."""
    fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=6, cv=2)
    fw.fit(load_dataset("miranda", shape=CHUNK))
    return fw


@pytest.fixture(scope="module")
def field():
    return load_field("miranda/pressure", shape=SHAPE, seed=3)


@pytest.fixture(scope="module")
def packed(fitted, field, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "pressure.rps"
    report = pack(path, field, fitted, TARGET, options=StoreOptions(chunk_shape=CHUNK))
    return path, report


class TestPackRoundTrip:
    def test_every_element_within_its_chunk_bound(self, packed, field):
        path, report = packed
        with Store(path) as st:
            full = st.read()
            assert full.shape == field.data.shape
            assert full.dtype == field.data.dtype
            for rec in report.chunks:
                chunk = st.grid.chunk_at(rec.coords)
                err = np.max(
                    np.abs(
                        full[chunk.slices].astype(np.float64)
                        - field.data[chunk.slices].astype(np.float64)
                    )
                )
                assert err <= rec.error_bound * (1 + 1e-9), rec.coords

    def test_achieved_ratio_within_10pct_of_target(self, packed):
        _, report = packed
        assert report.target_ratio == TARGET
        assert report.budget_drift < 0.10

    def test_closed_loop_beats_open_loop(self, fitted, field, tmp_path):
        drift = {}
        for closed in (True, False):
            report = pack(
                tmp_path / f"loop{closed}.rps",
                field,
                fitted,
                TARGET,
                options=StoreOptions(chunk_shape=CHUNK, closed_loop=closed),
            )
            drift[closed] = report.budget_drift
        assert drift[True] < drift[False]

    def test_manifest_metadata_bit_exact(self, packed, fitted, field, tmp_path):
        path, report = packed
        # Re-packing the same input is byte-identical (canonical manifest,
        # deterministic predictions), so the manifest round-trips bit-exact.
        again = tmp_path / "again.rps"
        pack(again, field, fitted, TARGET, options=StoreOptions(chunk_shape=CHUNK))
        assert again.read_bytes() == path.read_bytes()
        with Store(path) as st:
            assert len(st.manifest["chunks"]) == report.n_chunks
            for entry, rec in zip(st.manifest["chunks"], report.chunks):
                assert tuple(entry["coords"]) == rec.coords
                assert entry["error_bound"] == rec.error_bound
                assert entry["achieved_ratio"] == rec.achieved_ratio
                assert entry["target_ratio"] == rec.target_ratio

    def test_report_accounting(self, packed, field):
        _, report = packed
        assert report.original_bytes == field.data.nbytes
        assert report.stored_bytes == sum(c.stored_bytes for c in report.chunks)
        assert sum(c.raw_bytes for c in report.chunks) == report.original_bytes
        assert report.achieved_ratio == pytest.approx(
            report.original_bytes / report.stored_bytes
        )
        assert "chunks" in report.summary()

    def test_closed_loop_retargets_after_misses(self, packed):
        _, report = packed
        targets = {round(c.target_ratio, 6) for c in report.chunks}
        assert len(targets) > 1  # the budget loop actually moved the target


class TestRandomAccess:
    def test_subvolume_matches_full_read(self, packed):
        path, _ = packed
        with Store(path) as st:
            full = st.read()
            region = (slice(4, 20), slice(10, 30), slice(0, 9))
            np.testing.assert_array_equal(st.read(region), full[region])
            np.testing.assert_array_equal(st[5, :, 3:7], full[5:6, :, 3:7])

    def test_only_intersecting_chunks_decompressed(self, packed):
        path, _ = packed
        with Store(path) as st:
            region = (slice(0, 8), slice(0, 16), slice(0, 16))  # exactly 1 chunk
            expected = len(st.grid._placements(st.grid.normalize_region(region)))
            assert expected < st.n_chunks
            # in-process decodes: one compressor.decompress span per chunk
            with obs.capture() as rec:
                st.read(region)
            assert obs.aggregate(rec.roots)["compressor.decompress"].count == expected
            with obs.capture() as rec:
                st.read()
            assert obs.aggregate(rec.roots)["compressor.decompress"].count == st.n_chunks

    def test_read_single_chunk(self, packed, field):
        path, report = packed
        with Store(path) as st:
            rec = report.chunks[0]
            chunk = st.grid.chunk_at(rec.coords)
            data = st.read_chunk(rec.coords)
            assert data.shape == chunk.shape
            err = np.max(
                np.abs(
                    data.astype(np.float64) - field.data[chunk.slices].astype(np.float64)
                )
            )
            assert err <= rec.error_bound * (1 + 1e-9)

    def test_empty_region(self, packed):
        path, _ = packed
        with Store(path) as st:
            assert st.read((slice(3, 3),)).shape == (0, 32, 32)

    def test_info_summary(self, packed):
        path, report = packed
        with Store(path) as st:
            info = st.info()
            assert info["n_chunks"] == report.n_chunks
            assert info["achieved_ratio"] == pytest.approx(report.achieved_ratio)
            assert info["closed_loop"] is True
            assert info["compressor"] == "szx"


class TestCorruption:
    @pytest.fixture()
    def corrupted(self, packed, tmp_path):
        path, report = packed
        blob = bytearray(path.read_bytes())
        with Store(path) as st:
            victim = st.manifest["chunks"][2]
        blob[victim["offset"]] ^= 0xFF  # flip one payload byte
        bad = tmp_path / "corrupt.rps"
        bad.write_bytes(bytes(blob))
        return bad, tuple(victim["coords"])

    def test_corrupt_chunk_error_names_the_chunk(self, corrupted):
        bad, coords = corrupted
        with Store(bad) as st:
            with pytest.raises(CorruptChunkError, match=str(coords)) as exc:
                st.read()
            assert exc.value.coords == coords

    def test_other_chunks_still_readable(self, corrupted, packed):
        bad, coords = corrupted
        _, report = packed
        other = next(r.coords for r in report.chunks if r.coords != coords)
        with Store(bad) as st:
            st.read_chunk(other)  # does not raise
            with pytest.raises(CorruptChunkError):
                st.read_chunk(coords)

    def test_truncated_file_rejected_at_open(self, packed, tmp_path):
        path, _ = packed
        cut = tmp_path / "cut.rps"
        cut.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(StoreFormatError, match="truncated"):
            Store(cut)


class TestStreamingSources:
    def test_pack_from_memmap_matches_in_memory(self, fitted, field, packed, tmp_path):
        path, _ = packed
        raw = save_raw(field, tmp_path / "pressure.f32")
        mm = open_raw(raw, SHAPE, dtype=np.float32)
        assert isinstance(mm, np.memmap)
        out = tmp_path / "memmap.rps"
        pack(out, mm, fitted, TARGET, options=StoreOptions(chunk_shape=CHUNK))
        assert out.read_bytes() == path.read_bytes()

    def test_open_raw_size_mismatch(self, field, tmp_path):
        raw = save_raw(field, tmp_path / "p.f32")
        with pytest.raises(ValueError, match="bytes"):
            open_raw(raw, (SHAPE[0] + 1, *SHAPE[1:]), dtype=np.float32)

    def test_pack_accepts_field_objects(self, fitted, field, packed, tmp_path):
        path, _ = packed
        out = tmp_path / "field.rps"
        pack(out, field, fitted, TARGET, options=StoreOptions(chunk_shape=CHUNK))
        assert out.read_bytes() == path.read_bytes()

    def test_big_endian_field_is_the_native_field(self, fitted, field, packed, tmp_path):
        path, _ = packed
        (tmp_path / "be.f32").write_bytes(field.data.astype(">f4").tobytes())
        swapped = load_raw(tmp_path / "be.f32", SHAPE, dtype=">f4")
        assert swapped.data.dtype == np.dtype(">f4")
        native_eb = fitted.predict_error_bound(field.data, TARGET).error_bound
        assert fitted.predict_error_bound(swapped.data, TARGET).error_bound == native_eb
        codec = get_compressor("szx")
        assert (
            codec.compress(swapped.data, native_eb).payload
            == codec.compress(field.data, native_eb).payload
        )
        for source in (swapped, open_raw(tmp_path / "be.f32", SHAPE, dtype=">f4")):
            out = tmp_path / "be.rps"
            pack(out, source, fitted, TARGET, options=StoreOptions(chunk_shape=CHUNK))
            assert out.read_bytes() == path.read_bytes()
            with Store(out) as st:
                assert st.read().dtype == np.float32


class TestServicePredictor:
    def test_service_is_refused_with_a_hint(self, fitted, field, tmp_path):
        from repro.api import Controller, Service, Store
        from repro.store import StoreWriter

        with Service(fitted) as service:
            for make in (
                lambda: Store.pack(tmp_path / "svc.rps", field, service, TARGET),
                lambda: StoreWriter(tmp_path / "svc.rps", service),
                lambda: Controller(service),
            ):
                with pytest.raises(TypeError, match="pass service.framework"):
                    make()
        assert not (tmp_path / "svc.rps").exists()


class TestFeedbackWiring:
    def test_pack_records_one_observation_per_chunk(self, fitted, field, tmp_path):
        loop = FeedbackLoop(fitted, refresh_every=10_000)
        report = pack(
            tmp_path / "fb.rps",
            field,
            fitted,
            TARGET,
            options=StoreOptions(chunk_shape=CHUNK),
            feedback=loop,
        )
        assert len(loop.observations) == report.n_chunks
        for obs_, rec in zip(loop.observations, report.chunks):
            assert obs_.error_bound == rec.error_bound
            assert obs_.achieved_ratio == pytest.approx(rec.achieved_ratio)
            assert obs_.target_ratio == pytest.approx(rec.target_ratio)

    def test_feedback_retrain_improves_next_pack(self, field, tmp_path):
        # Train only on the rough velocity fields; the smooth pressure field
        # is mispredicted until its own pack outcomes are folded back in.
        # The targets lie inside what szx reaches on this field within the
        # trained error bounds (about 3 to 6.8; a target past the top
        # cannot improve), halfway between its ratio plateaus. More than
        # one: the chunks of one pack tend to share one predicted bound, and
        # a tree refitted on a single bound's outcomes predicts that bound
        # again, whichever forest the search picked.
        train = [
            f for f in load_dataset("miranda", shape=CHUNK) if f.name.startswith("velocity")
        ]
        fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=6, cv=2)
        fw.fit(train)
        opts = StoreOptions(chunk_shape=CHUNK, closed_loop=False)
        loop = FeedbackLoop(fw, refresh_every=10_000)
        targets = (4.5, 5.5, 6.5)
        before = [
            pack(tmp_path / "b.rps", field, fw, t, options=opts, feedback=loop).budget_drift
            for t in targets
        ]
        loop.refresh()
        assert loop.refreshes == 1
        after = [pack(tmp_path / "a.rps", field, fw, t, options=opts).budget_drift for t in targets]
        assert np.mean(after) < np.mean(before)


class TestValidation:
    def test_unfitted_framework_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            StoreWriter("x.rps", CarolFramework(compressor="szx"))

    def test_bad_predictor_rejected(self):
        with pytest.raises(TypeError, match="predictor"):
            StoreWriter("x.rps", object())

    def test_target_ratio_must_exceed_one(self, fitted, field, tmp_path):
        for bad in (1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="target_ratio"):
                pack(tmp_path / "x.rps", field, fitted, bad)
        assert not (tmp_path / "x.rps").exists()

    def test_options_validation(self):
        with pytest.raises(ValueError, match="chunk_elements"):
            StoreOptions(chunk_elements=0)

    def test_store_exported_on_facades(self):
        import repro
        import repro.api

        assert repro.Store is Store
        assert repro.api.Store is Store
        assert repro.api.StoreOptions is StoreOptions

    def test_nonexistent_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Store(tmp_path / "missing.rps")


class TestParallelPacking:
    """Wave-parallel packing must be byte-identical for every worker count."""

    def _pack(self, fitted, field, path, **opts):
        return pack(
            path, field, fitted, TARGET, options=StoreOptions(chunk_shape=CHUNK, **opts)
        )

    def test_bytes_identical_across_worker_counts(self, fitted, field, tmp_path):
        blobs = {}
        for workers in (0, 1, 2, 4):
            out = tmp_path / f"w{workers}.rps"
            report = self._pack(fitted, field, out, workers=workers, wave_size=8)
            blobs[workers] = out.read_bytes()
            assert report.workers == workers
            assert report.wave_size == 8
        assert blobs[1] == blobs[0]
        assert blobs[2] == blobs[0]
        assert blobs[4] == blobs[0]

    def test_wave_size_one_reproduces_serial_pack(self, fitted, field, packed, tmp_path):
        """wave_size=1 is the old chunk-at-a-time loop bit-for-bit, even
        with workers enabled (the default `packed` fixture is serial)."""
        path, _ = packed
        out = tmp_path / "wave1.rps"
        self._pack(fitted, field, out, workers=2, wave_size=1)
        assert out.read_bytes() == path.read_bytes()

    def test_wave_report_accounting(self, fitted, field, tmp_path):
        report = self._pack(fitted, field, tmp_path / "r.rps", workers=2, wave_size=8)
        assert report.n_waves == -(-report.n_chunks // 8)
        assert "waves" in report.summary()
        # the pool sees compressions only: one task per chunk, features
        # never leave the caller (completed includes in-process fallbacks)
        assert report.pool_stats.submitted == report.n_chunks
        assert report.pool_stats.completed == report.pool_stats.submitted

    def test_serial_pack_reports_no_pool(self, packed):
        _, report = packed
        assert report.workers == 0
        assert report.wave_size == 1
        assert report.n_waves == report.n_chunks
        assert report.pool_stats is None

    def test_retarget_boundaries_follow_wave_size(self, fitted, field, tmp_path):
        """Within one wave every chunk shares one target; targets may only
        change at wave boundaries."""
        report = self._pack(fitted, field, tmp_path / "wt.rps", wave_size=4)
        targets = [c.target_ratio for c in report.chunks]
        for start in range(0, len(targets), 4):
            assert len(set(targets[start : start + 4])) == 1
        assert len(set(targets)) > 1  # the closed loop still re-targets

    def test_resolved_wave_size_defaults(self):
        from repro.store.writer import DEFAULT_WAVE_SIZE

        assert StoreOptions().resolved_wave_size == 1
        assert StoreOptions(workers=2).resolved_wave_size == DEFAULT_WAVE_SIZE
        assert StoreOptions(workers=2, wave_size=3).resolved_wave_size == 3
        assert StoreOptions(wave_size=5).resolved_wave_size == 5

    def test_parallel_options_validation(self):
        with pytest.raises(ValueError, match="workers"):
            StoreOptions(workers=-1)
        with pytest.raises(ValueError, match="wave_size"):
            StoreOptions(wave_size=0)

    def test_wave_metrics_emitted(self, fitted, field, tmp_path):
        with obs.capture() as rec:
            report = self._pack(fitted, field, tmp_path / "m.rps", workers=2, wave_size=8)
        # one store.pack.wave span per wave
        assert obs.aggregate(rec.roots)["store.pack.wave"].count == report.n_waves
        # worker utilization: the share of tasks that finished on the pool
        # (fallbacks ran in-process) comes from the typed PoolStats
        pool = report.pool_stats
        assert isinstance(pool, PoolStats)
        assert 0 <= pool.fallbacks <= pool.completed == pool.submitted
        assert pool.timeouts <= pool.fallbacks


class TestBudgetExhaustion:
    def test_impossibly_tight_budget_never_divides_by_zero(
        self, fitted, field, tmp_path
    ):
        """A budget smaller than any achievable pack must clamp the wave
        target to MAX_CHUNK_RATIO and finish — never raise ZeroDivisionError
        or ask for a target below 1."""
        opts = StoreOptions(chunk_shape=CHUNK, wave_size=4)
        report = pack(tmp_path / "tight.rps", field, fitted, 9000.0, options=opts)
        assert report.n_chunks > 0
        for rec in report.chunks:
            assert np.isfinite(rec.target_ratio)
            assert 1.0 < rec.target_ratio <= MAX_CHUNK_RATIO
        # budget is blown (the model can't reach ratio 9000) but the file
        # is complete and readable
        assert report.achieved_ratio < 9000.0
        with Store(tmp_path / "tight.rps") as st:
            assert st.read().shape == field.data.shape

    def test_wave_target_clamps_at_exhaustion(self, fitted):
        writer = StoreWriter("unused.rps", fitted)
        # budget fully spent: the remaining budget floors at 1 byte, so the
        # division is safe and asks for raw_remaining : 1
        assert (
            writer._wave_target(TARGET, budget=100.0, spent=100, raw_remaining=4096)
            == 4096.0
        )
        # spent *past* the budget: same floor, still finite
        assert (
            writer._wave_target(TARGET, budget=100.0, spent=10_000, raw_remaining=4096)
            == 4096.0
        )
        # exhausted budget with lots of raw data left: clamped to the ceiling
        assert (
            writer._wave_target(TARGET, budget=100.0, spent=100, raw_remaining=10**6)
            == MAX_CHUNK_RATIO
        )
        # no raw bytes left: ceiling, not 0/x
        assert (
            writer._wave_target(TARGET, budget=100.0, spent=10, raw_remaining=0)
            == MAX_CHUNK_RATIO
        )
        # healthy state: plain redistribution, inside the clamp window
        t = writer._wave_target(TARGET, budget=1000.0, spent=100, raw_remaining=7200)
        assert t == pytest.approx(7200 / 900)


class TestAtomicityOfRawWrites:
    def test_failed_save_leaves_target_untouched(self, tmp_path):
        class Exploding:
            nbytes = 8

            def tofile(self, fh):
                raise OSError("disk full")

        target = tmp_path / "field.f32"
        target.write_bytes(b"GOOD")
        with pytest.raises(OSError, match="disk full"):
            save_raw(Field("d", "v", Exploding()), target)
        assert target.read_bytes() == b"GOOD"
        assert list(tmp_path.glob("*.tmp")) == []


class TestAtomicPack:
    def test_failed_repack_keeps_the_previous_store(self, fitted, field, packed, tmp_path):
        """A pack that fails part-way never truncates the store it was
        replacing, and a reader already holding that store reads on."""
        source, _ = packed
        path = tmp_path / "field.rps"
        path.write_bytes(source.read_bytes())
        bad = field.data.copy()
        bad[-1, -1, -1] = np.nan  # the last chunk: the others are written first
        with Store(path) as reader:
            with pytest.raises(ValueError):
                pack(path, bad, fitted, TARGET, options=StoreOptions(chunk_shape=CHUNK))
            assert path.read_bytes() == source.read_bytes()
            assert reader.read().shape == field.data.shape
        assert [p.name for p in tmp_path.iterdir()] == ["field.rps"]
        with Store(path) as st:
            assert st.read().shape == field.data.shape
