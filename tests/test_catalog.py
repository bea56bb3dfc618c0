"""StoreCatalog: keyed multi-store reads, shared byte-budgeted chunk
cache, parallel decode, and byte-identity across every configuration."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import CarolFramework, load_dataset, load_field, obs
from repro.serve.cache import LRUCache
from repro.store import (
    CatalogOptions,
    CorruptChunkError,
    Store,
    StoreCatalog,
    StoreOptions,
    pack,
)

SHAPE = (24, 32, 32)
CHUNK = (8, 16, 16)
TARGET = 8.0
REL = np.geomspace(1e-3, 3e-1, 8)

REGIONS = [
    None,
    (slice(4, 20), slice(10, 30), slice(0, 9)),
    (slice(0, 8), slice(0, 16), slice(0, 16)),
    (slice(7, 24), slice(3, 17), slice(15, 32)),
]


@pytest.fixture(scope="module")
def fitted():
    fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=6, cv=2)
    fw.fit(load_dataset("miranda", shape=CHUNK))
    return fw


@pytest.fixture(scope="module")
def store_root(fitted, tmp_path_factory):
    """Three stores with distinct fields under nested keys.

    ``fields`` maps key -> the store's *decompressed* array (the exact
    bytes any correct read must return), not the lossy original.
    """
    root = tmp_path_factory.mktemp("catalog")
    options = StoreOptions(chunk_shape=CHUNK)
    fields = {}
    for i, key in enumerate(["climate/temp", "climate/wind", "nyx_baryon"]):
        field = load_field("miranda/pressure", shape=SHAPE, seed=10 + i)
        path = root / f"{key}.rps"
        pack(path, field, fitted, TARGET, options=options)
        with Store(path) as st:
            fields[key] = st.read()
    return root, fields


class TestRegistrationAndScan:
    def test_scan_derives_keys_from_relative_paths(self, store_root):
        root, fields = store_root
        with StoreCatalog(root) as cat:
            assert sorted(cat.keys()) == sorted(fields)
            assert "climate/temp" in cat
            assert len(cat) == 3

    def test_explicit_register(self, store_root):
        root, fields = store_root
        with StoreCatalog() as cat:
            cat.register("mine", root / "nyx_baryon.rps")
            assert cat.keys() == ["mine"]
            np.testing.assert_array_equal(cat.read("mine"), fields["nyx_baryon"])

    def test_registration_is_lazy(self, store_root, tmp_path):
        root, _ = store_root
        with StoreCatalog() as cat:
            cat.register("ghost", tmp_path / "not-written-yet.rps")  # no error
            with pytest.raises(FileNotFoundError):
                cat.read("ghost")

    def test_manifests_load_lazily(self, store_root):
        root, _ = store_root
        with StoreCatalog(root) as cat:
            assert cat.stats().stores_open == 0
            cat.read("climate/temp", (slice(0, 4), slice(0, 4), slice(0, 4)))
            assert cat.stats().stores_open == 1

    def test_unknown_key(self, store_root):
        root, _ = store_root
        with StoreCatalog(root) as cat:
            with pytest.raises(KeyError, match="nope"):
                cat.read("nope")

    def test_scan_missing_root_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            StoreCatalog(tmp_path / "absent")

    def test_failed_scan_spawns_no_pool(self, tmp_path, monkeypatch):
        # The scan runs before the pool is built, so a bad root cannot
        # leak worker processes with no handle to shut them down.
        import repro.store.catalog as catalog_mod

        def _boom(*args, **kwargs):
            raise AssertionError("WorkerPool built despite failed scan")

        monkeypatch.setattr(catalog_mod, "WorkerPool", _boom)
        with pytest.raises(FileNotFoundError):
            StoreCatalog(tmp_path / "absent", options=CatalogOptions(workers=2))

    def test_reregister_invalidates_cached_chunks(self, store_root):
        root, fields = store_root
        with StoreCatalog(options=CatalogOptions(cache_bytes=64 << 20)) as cat:
            cat.register("data", root / "climate/temp.rps")
            np.testing.assert_array_equal(cat.read("data"), fields["climate/temp"])
            assert len(cat.chunk_cache) > 0  # old store's chunks are cached
            cat.register("data", root / "climate/wind.rps")
            # the re-point evicted the old generation's entries eagerly
            assert len(cat.chunk_cache) == 0
            # and reads now return the NEW store's bytes, not stale cache
            np.testing.assert_array_equal(cat.read("data"), fields["climate/wind"])
            np.testing.assert_array_equal(
                cat.read_chunk("data", (0, 0, 0)),
                fields["climate/wind"][:8, :16, :16],
            )


class TestMultiStoreRoundTrip:
    def test_reads_by_key_match_direct_store_reads(self, store_root):
        root, fields = store_root
        with StoreCatalog(root) as cat:
            for key in fields:
                with Store(root / f"{key}.rps") as st:
                    direct = st.read()
                np.testing.assert_array_equal(cat.read(key), direct)

    def test_keys_do_not_cross_contaminate_the_cache(self, store_root):
        root, fields = store_root
        # Same coords in different stores must come back from the right
        # store even when both chunks sit in the shared cache.
        with StoreCatalog(root) as cat:
            for _ in range(2):  # second round is all cache hits
                a = cat.read_chunk("climate/temp", (0, 0, 0))
                b = cat.read_chunk("climate/wind", (0, 0, 0))
                assert not np.array_equal(a, b)


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def serial_baseline(self, store_root):
        """Every (key, region) answered by a serial, cache-less catalog."""
        root, fields = store_root
        with StoreCatalog(root, options=CatalogOptions(cache_bytes=0)) as ref:
            return {
                (key, i): ref.read(key, region)
                for key in fields
                for i, region in enumerate(REGIONS)
            }

    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    @pytest.mark.parametrize("cache_bytes", [0, 1 << 14, 64 << 20])
    def test_identical_across_workers_and_cache_sizes(
        self, store_root, serial_baseline, workers, cache_bytes, pool_small_chunks
    ):
        root, fields = store_root
        options = CatalogOptions(
            cache_bytes=cache_bytes, workers=workers, timeout_seconds=60.0
        )
        with StoreCatalog(root, options=options) as cat:
            for _ in range(2):  # second pass exercises the warm cache
                for key in fields:
                    for i, region in enumerate(REGIONS):
                        out = cat.read(key, region)
                        np.testing.assert_array_equal(out, serial_baseline[(key, i)])
            if workers:
                assert cat.stats().pool.submitted > 0

    def test_concurrent_readers_byte_identical(self, store_root, pool_small_chunks):
        root, fields = store_root
        requests = [
            (key, region) for key in fields for region in REGIONS for _ in range(3)
        ]
        with StoreCatalog(root, options=CatalogOptions(cache_bytes=0)) as ref:
            expected = [ref.read(k, r) for k, r in requests]
        options = CatalogOptions(cache_bytes=32 << 20, workers=2, timeout_seconds=60.0)
        with StoreCatalog(root, options=options) as cat:
            with ThreadPoolExecutor(max_workers=4) as tp:
                futures = [tp.submit(cat.read, k, r) for k, r in requests]
                results = [f.result() for f in futures]
            assert cat.stats().pool.submitted > 0
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)


class TestDecodeSite:
    """A reader keeps the injected pool only when its store's nominal
    chunk reaches ``POOL_MIN_CHUNK_BYTES``; both sides return the bytes
    a plain ``Store`` returns."""

    def test_small_chunk_fleet_never_forks(self, store_root):
        # 8 KiB chunks under the shipped constant: workers are configured,
        # every decode (reads, streams, prefetch hints) stays in the caller.
        root, fields = store_root
        options = CatalogOptions(cache_bytes=64 << 20, workers=2, prefetch_depth=4)
        with StoreCatalog(root, options=options) as cat:
            for key in fields:
                assert cat.reader(key).pool is None
                with Store(root / f"{key}.rps") as plain:
                    for chunk in plain.grid:  # a sequential scan: hints issue
                        got = cat.read(key, chunk.slices)
                        assert got.tobytes() == plain.read(chunk.slices).tobytes()
                    whole = plain.read()
                streamed = np.empty_like(whole)
                for tile_sel, tile in cat.read_iter(key, max_inflight=4):
                    streamed[tile_sel] = tile
                assert streamed.tobytes() == whole.tobytes()
            stats = cat.stats()
            assert stats.prefetch.issued > 0 and stats.prefetch.hits > 0
            assert stats.pool.submitted == 0 and stats.pool.completed == 0
            assert stats.pool.wait_seconds == 0.0
            assert cat.pool._executor is None  # no process was ever forked

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_store_at_the_shipped_constant_is_pooled(self, fitted, tmp_path, workers):
        from repro.store.reader import POOL_MIN_CHUNK_BYTES

        chunk = (POOL_MIN_CHUNK_BYTES // (64 * 32 * 4), 64, 32)  # float32, exactly at it
        field = load_field("miranda/pressure", shape=(chunk[0], 64, 64), seed=3)
        assert field.data.dtype == np.float32
        path = tmp_path / "big.rps"
        pack(path, field, fitted, TARGET, options=StoreOptions(chunk_shape=chunk))
        with Store(path) as plain:
            whole = plain.read()
        options = CatalogOptions(cache_bytes=0, workers=workers)
        with StoreCatalog(tmp_path, options=options) as cat:
            assert (cat.reader("big").pool is not None) == (workers > 0)
            assert cat.read("big").tobytes() == whole.tobytes()
            for tile_sel, tile in cat.read_iter("big"):
                assert tile.tobytes() == whole[tile_sel].tobytes()
            if workers:
                assert cat.stats().pool.submitted == 4  # two chunks, read twice
                assert cat.stats().pool.worker_seconds > 0.0


class TestSharedChunkCache:
    def test_cached_chunk_skips_fetch_and_decode(self, store_root):
        root, _ = store_root
        with StoreCatalog(root, options=CatalogOptions(cache_bytes=64 << 20)) as cat:
            # a miss is a fetch + decode, a hit skips both; the shared
            # cache's own stats are the one place either is counted
            cat.read("climate/temp")
            first = cat.stats().cache.misses
            assert first == cat.reader("climate/temp").n_chunks
            assert cat.stats().cache.hits == 0
            with obs.capture() as rec:
                cat.read("climate/temp")  # fully warm: zero new decodes
            assert "compressor.decompress" not in obs.aggregate(rec.roots)
            assert cat.stats().cache.misses == first
            assert cat.stats().cache.hits == first

    def test_cache_hit_counter_unified_across_read_paths(self, store_root):
        # Regression: cache hits used to be counted by path-specific
        # logic; every read path (read_chunk, read, read_iter) must
        # report a warm hit through the same single counting point — the
        # shared cache's own CacheStats.
        root, _ = store_root
        region = tuple(slice(0, c) for c in CHUNK)  # exactly chunk (0, 0, 0)
        with StoreCatalog(root, options=CatalogOptions(cache_bytes=64 << 20)) as cat:
            cat.read_chunk("climate/temp", (0, 0, 0))  # cold: one decode
            assert cat.stats().cache.misses == 1
            cat.read_chunk("climate/temp", (0, 0, 0))
            cat.read("climate/temp", region)
            for _ in cat.read_iter("climate/temp", region):
                pass
            assert cat.stats().cache.hits == 3
            assert cat.stats().cache.misses == 1

    def test_eviction_respects_byte_budget(self, store_root):
        root, fields = store_root
        chunk_bytes = np.empty(CHUNK, dtype=np.float32).nbytes
        budget = int(chunk_bytes * 2.5)  # room for two chunks, never three
        with StoreCatalog(root, options=CatalogOptions(cache_bytes=budget)) as cat:
            for coords in [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]:
                cat.read_chunk("climate/temp", coords)
                assert cat.chunk_cache.total_cost <= budget
            assert len(cat.chunk_cache) == 2
            assert cat.chunk_cache.stats.evictions == 2

    def test_zero_budget_disables_cache_but_reads_work(self, store_root):
        root, fields = store_root
        with StoreCatalog(root, options=CatalogOptions(cache_bytes=0)) as cat:
            np.testing.assert_array_equal(
                cat.read("nyx_baryon"),
                Store(root / "nyx_baryon.rps").read(),
            )
            assert len(cat.chunk_cache) == 0
            assert cat.chunk_cache.stats.hits == 0

    def test_cached_arrays_are_immutable(self, store_root):
        root, _ = store_root
        with StoreCatalog(root) as cat:
            out = cat.read_chunk("climate/temp", (0, 0, 0))
            with pytest.raises(ValueError):
                out[0, 0, 0] = 0.0

    def test_uncached_chunks_stay_writeable(self, store_root):
        # A declined put (disabled cache) must not freeze the array —
        # cache_bytes=0 behaves like a plain Store on the caller side.
        root, _ = store_root
        with StoreCatalog(root, options=CatalogOptions(cache_bytes=0)) as cat:
            out = cat.read_chunk("climate/temp", (0, 0, 0))
            assert out.flags.writeable
            out[0, 0, 0] = 0.0  # does not raise


class TestFailureIsolation:
    @pytest.fixture()
    def root_with_corruption(self, store_root, tmp_path):
        """Copy the fleet and flip one payload byte in one store."""
        root, fields = store_root
        bad_root = tmp_path / "fleet"
        for key in fields:
            src = root / f"{key}.rps"
            dst = bad_root / f"{key}.rps"
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(src.read_bytes())
        victim_path = bad_root / "climate/temp.rps"
        with Store(victim_path) as st:
            victim = st.manifest["chunks"][2]
        blob = bytearray(victim_path.read_bytes())
        blob[victim["offset"]] ^= 0xFF
        victim_path.write_bytes(bytes(blob))
        return bad_root, tuple(victim["coords"])

    def test_corrupt_chunk_isolated_to_its_store(self, root_with_corruption, store_root):
        bad_root, coords = root_with_corruption
        _, fields = store_root
        with StoreCatalog(bad_root) as cat:
            with pytest.raises(CorruptChunkError, match=str(coords)):
                cat.read("climate/temp")
            # every other store still round-trips in the same catalog
            for key in ("climate/wind", "nyx_baryon"):
                with Store(bad_root / f"{key}.rps") as st:
                    np.testing.assert_array_equal(cat.read(key), st.read())

    def test_healthy_chunks_of_corrupt_store_still_readable(self, root_with_corruption):
        bad_root, coords = root_with_corruption
        with StoreCatalog(bad_root) as cat:
            other = (0, 0, 0) if coords != (0, 0, 0) else (1, 0, 0)
            cat.read_chunk("climate/temp", other)  # does not raise


class TestCatalogOptions:
    def test_frozen_hashable_keyword_only(self):
        opts = CatalogOptions(cache_bytes=123, workers=1)
        assert opts == CatalogOptions(cache_bytes=123, workers=1)
        assert hash(opts) == hash(CatalogOptions(cache_bytes=123, workers=1))
        with pytest.raises(Exception):
            opts.workers = 2
        with pytest.raises(TypeError):
            CatalogOptions(123)

    def test_options_size_the_chunk_cache(self, store_root):
        root, _ = store_root
        opts = CatalogOptions(cache_bytes=1 << 20)
        with StoreCatalog(root, options=opts) as cat:
            assert cat.options == opts
            assert cat.chunk_cache.max_cost == float(1 << 20)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            CatalogOptions(cache_bytes=-1)
        with pytest.raises(ValueError):
            CatalogOptions(workers=-1)

    @pytest.mark.parametrize("timeout", (0, 0.0, -1.0))
    def test_non_positive_timeout_rejected(self, timeout):
        # a pooled read would otherwise count every task as a timeout
        # and silently re-run it in-process
        with pytest.raises(ValueError, match="timeout_seconds"):
            CatalogOptions(timeout_seconds=timeout)


class TestStatsAndApi:
    def test_stats_shape(self, store_root):
        root, _ = store_root
        with StoreCatalog(root, options=CatalogOptions(workers=1)) as cat:
            cat.read("nyx_baryon")
            stats = cat.stats()
        assert stats.stores_registered == 3
        assert stats.stores_open == 1
        assert 0.0 <= stats.cache.hit_rate <= 1.0
        assert stats.pool is not None
        assert "pool" in stats.as_dict()

    def test_reused_cache_is_one_shared_instance(self, store_root):
        root, _ = store_root
        with StoreCatalog(root) as cat:
            a = cat.reader("climate/temp")
            b = cat.reader("climate/wind")
            assert a.chunk_cache is b.chunk_cache is cat.chunk_cache
            assert isinstance(cat.chunk_cache, LRUCache)

    def test_api_facade_exports(self):
        import repro
        import repro.api

        assert repro.Catalog is StoreCatalog
        assert repro.api.Catalog is StoreCatalog
        assert repro.CatalogOptions is CatalogOptions
        assert "Catalog" in repro.api.__all__
        assert "CatalogOptions" in repro.api.__all__
