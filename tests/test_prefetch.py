"""Prefetcher: deterministic prediction, advisory-only issuance.

Two halves, matching the split in :mod:`repro.store.prefetch`:

- **prediction** is a pure function of the per-key request history —
  two prefetchers fed the same stream emit identical hints, regardless
  of cache state, timing, or interleaved keys;
- **issuance** (the catalog acting on hints) fills the shared LRU ahead
  of sequential/strided scans, is fully accounted (``issued`` /
  ``hits`` / ``wasted`` in ``PrefetchStats``), and is never
  load-bearing: bytes served are identical with the prefetcher on, off,
  or issuing hints the LRU immediately drops — and prefetch churn can
  never corrupt tiles already in flight (streamed tiles are fresh
  copies, not cache references).
"""

import time

import numpy as np
import pytest

from repro import CarolFramework, load_dataset, load_field
from repro.store import (
    CatalogOptions,
    Prefetcher,
    PrefetchStats,
    Store,
    StoreCatalog,
    StoreOptions,
    pack,
)

SHAPE = (40, 30, 30)  # 5x2x2 chunk grid: a slab scan strides 4 chunk ids
CHUNK = (8, 16, 16)
TARGET = 8.0
REL = np.geomspace(1e-3, 3e-1, 8)
N_CHUNKS = 20
SLAB_IDS = [list(range(4 * i, 4 * i + 4)) for i in range(5)]


def slab_region(i: int) -> tuple[slice, ...]:
    return (slice(8 * i, 8 * i + 8), slice(None), slice(None))


def drain_hints(cat: StoreCatalog, timeout: float = 60.0) -> PrefetchStats:
    """Harvest until no async hint decode remains in flight."""
    deadline = time.monotonic() + timeout
    while True:
        stats = cat.prefetch_stats()  # each snapshot harvests finished decodes
        with cat._prefetch_lock:
            if not cat._prefetch_inflight:
                return stats
        if time.monotonic() > deadline:
            raise AssertionError("async prefetch hints never drained")
        time.sleep(0.02)


class TestPrediction:
    """Pure-function half: no store, no cache, just request histories."""

    def test_hints_are_a_pure_function_of_history(self):
        a, b = Prefetcher(depth=3), Prefetcher(depth=3)
        stream = [
            ("x", SLAB_IDS[0]),
            ("y", [17, 3, 9]),  # interleaved irregular key
            ("x", SLAB_IDS[1]),
            ("y", [1]),
            ("x", SLAB_IDS[2]),
            ("x", SLAB_IDS[3]),
        ]
        hints_a = [a.predict(key, ids, N_CHUNKS) for key, ids in stream]
        hints_b = [b.predict(key, ids, N_CHUNKS) for key, ids in stream]
        assert hints_a == hints_b
        # the strided key produces hints; the irregular one never does
        assert any(h for (key, _), h in zip(stream, hints_a) if key == "x")
        assert all(not h for (key, _), h in zip(stream, hints_a) if key == "y")

    def test_sequential_run_detected(self):
        p = Prefetcher(depth=2)
        assert p.predict("k", [0], N_CHUNKS) == []
        assert p.predict("k", [1], N_CHUNKS) == []
        assert p.predict("k", [2], N_CHUNKS) == [3, 4]

    def test_strided_slab_scan_detected(self):
        p = Prefetcher(depth=4)
        assert p.predict("k", SLAB_IDS[0], N_CHUNKS) == []
        assert p.predict("k", SLAB_IDS[1], N_CHUNKS) == []
        assert p.predict("k", SLAB_IDS[2], N_CHUNKS) == SLAB_IDS[3]

    def test_reverse_scan_hints_descend(self):
        p = Prefetcher(depth=2)
        p.predict("k", [10], N_CHUNKS)
        p.predict("k", [8], N_CHUNKS)
        assert p.predict("k", [6], N_CHUNKS) == [4, 2]

    def test_hints_clipped_to_grid(self):
        p = Prefetcher(depth=4)
        for ids in SLAB_IDS[2:]:  # scan ends at the last slab
            hints = p.predict("k", ids, N_CHUNKS)
        assert hints == []  # predicted ids 20..23 all fall off the grid

    def test_hints_skip_the_current_request(self):
        p = Prefetcher(depth=4)
        # overlapping windows, stride 2: predictions overlap the request
        p.predict("k", [0, 1, 2, 3], N_CHUNKS)
        p.predict("k", [2, 3, 4, 5], N_CHUNKS)
        hints = p.predict("k", [4, 5, 6, 7], N_CHUNKS)
        assert hints and not set(hints) & {4, 5, 6, 7}

    def test_depth_caps_hint_count(self):
        p = Prefetcher(depth=1)
        p.predict("k", [0], N_CHUNKS)
        p.predict("k", [1], N_CHUNKS)
        assert p.predict("k", [2], N_CHUNKS) == [3]

    def test_forget_clears_a_key_history(self):
        p = Prefetcher(depth=2)
        for i in range(3):
            p.predict("k", [i], N_CHUNKS)
        p.forget("k")
        assert p.predict("k", [3], N_CHUNKS) == []  # run must rebuild

    def test_validation(self):
        with pytest.raises(ValueError, match="depth"):
            Prefetcher(depth=0)
        with pytest.raises(ValueError, match="min_run"):
            Prefetcher(min_run=1)

    def test_stats_shape(self):
        stats = PrefetchStats(issued=4, hits=3, wasted=1)
        assert stats.hit_rate == pytest.approx(0.75)
        assert stats.as_dict() == {"issued": 4, "hits": 3, "wasted": 1, "hit_rate": 0.75}
        assert PrefetchStats(issued=0, hits=0, wasted=0).hit_rate == 0.0


@pytest.fixture(scope="module")
def fitted():
    fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=6, cv=2)
    fw.fit(load_dataset("miranda", shape=CHUNK))
    return fw


@pytest.fixture(scope="module")
def store_root(fitted, tmp_path_factory):
    root = tmp_path_factory.mktemp("prefetch")
    options = StoreOptions(chunk_shape=CHUNK)
    fields = {}
    for i, key in enumerate(["a", "b"]):
        field = load_field("miranda/pressure", shape=SHAPE, seed=30 + i)
        pack(root / f"{key}.rps", field, fitted, TARGET, options=options)
        with Store(root / f"{key}.rps") as st:
            fields[key] = st.read()
    return root, fields


class TestIssuance:
    """The catalog acting on hints, against real stores."""

    def test_sequential_scan_prefetches_and_hits(self, store_root):
        root, fields = store_root
        options = CatalogOptions(cache_bytes=64 << 20, prefetch_depth=4)
        with StoreCatalog(root, options=options) as cat:
            for i in range(5):
                out = cat.read("a", slab_region(i))
                np.testing.assert_array_equal(out, fields["a"][slab_region(i)])
            stats = cat.prefetch_stats()
            # slabs 3 and 4 were fully prefetched after the run was seen
            assert stats.issued == 8
            assert stats.hits == 8
            assert stats.wasted == 0
            assert stats.hit_rate == 1.0
            assert cat.stats().prefetch == stats
            assert cat.stats().as_dict()["prefetch"] == stats.as_dict()

    def test_streamed_scan_observes_the_same_pattern(self, store_root):
        root, fields = store_root
        options = CatalogOptions(cache_bytes=64 << 20, prefetch_depth=4)
        with StoreCatalog(root, options=options) as cat:
            for i in range(5):
                region = slab_region(i)
                sel = cat.reader("a").grid.normalize_region(region)
                out = np.zeros(tuple(s.stop - s.start for s in sel), fields["a"].dtype)
                for tile_sel, tile in cat.read_iter("a", region):
                    local = tuple(
                        slice(t.start - s.start, t.stop - s.start)
                        for t, s in zip(tile_sel, sel)
                    )
                    out[local] = tile
                np.testing.assert_array_equal(out, fields["a"][region])
            stats = cat.prefetch_stats()
            assert stats.issued == 8 and stats.hits == 8 and stats.wasted == 0

    def test_prefetch_off_by_default(self, store_root):
        root, _ = store_root
        with StoreCatalog(root) as cat:
            assert cat.prefetcher is None
            cat.read("a", slab_region(0))
            assert cat.prefetch_stats() == PrefetchStats(issued=0, hits=0, wasted=0)
            assert cat.stats().prefetch is None
            assert "prefetch" not in cat.stats().as_dict()

    def test_disabled_cache_suppresses_issuance_not_correctness(self, store_root):
        root, fields = store_root
        options = CatalogOptions(cache_bytes=0, prefetch_depth=4)
        with StoreCatalog(root, options=options) as cat:
            for i in range(5):
                np.testing.assert_array_equal(
                    cat.read("a", slab_region(i)), fields["a"][slab_region(i)]
                )
            assert cat.prefetch_stats() == PrefetchStats(issued=0, hits=0, wasted=0)

    def test_tiny_cache_counts_wasted_prefetches(self, store_root):
        root, fields = store_root
        chunk_bytes = int(np.prod(CHUNK)) * fields["a"].itemsize
        options = CatalogOptions(cache_bytes=2 * chunk_bytes + 128, prefetch_depth=4)
        with StoreCatalog(root, options=options) as cat:
            for i in range(5):
                np.testing.assert_array_equal(
                    cat.read("a", slab_region(i)), fields["a"][slab_region(i)]
                )
            stats = cat.prefetch_stats()
            # hints were issued, but a 2-chunk LRU drops most of each
            # 4-chunk prefetch wave before its request arrives
            assert stats.issued > 0
            assert stats.wasted > 0
            assert stats.hits + stats.wasted <= stats.issued

    def test_prefetch_churn_never_corrupts_inflight_tiles(self, store_root):
        """Streamed tiles are fresh copies: evicting their source chunks
        (here via another key's prefetch-heavy scan through a tiny
        cache) must not change bytes already scheduled."""
        root, fields = store_root
        chunk_bytes = int(np.prod(CHUNK)) * fields["a"].itemsize
        options = CatalogOptions(cache_bytes=2 * chunk_bytes + 128, prefetch_depth=4)
        with StoreCatalog(root, options=options) as cat:
            sel = cat.reader("a").grid.normalize_region(None)
            stream = cat.read_iter("a", max_inflight=8)
            it = iter(stream)
            first_sel, first = next(it)  # 7 more tiles already scheduled
            # churn: a scan of the other key issues prefetches that evict
            # everything the tiny LRU holds, repeatedly
            for i in range(5):
                cat.read("b", slab_region(i))
            np.testing.assert_array_equal(first, fields["a"][first_sel])
            for tile_sel, tile in it:
                np.testing.assert_array_equal(tile, fields["a"][tile_sel])

    def test_async_hint_decodes_land_in_cache_and_hit(self, store_root, pool_small_chunks):
        """With a decode pool, hints are *submitted* (not run inline) and
        harvested before the next request: once the in-flight set drains,
        every predicted chunk was admitted, and the request that follows
        consumes all of them from cache."""
        root, fields = store_root
        options = CatalogOptions(cache_bytes=64 << 20, prefetch_depth=4, workers=1)
        with StoreCatalog(root, options=options) as cat:
            for i in range(3):
                np.testing.assert_array_equal(
                    cat.read("a", slab_region(i)), fields["a"][slab_region(i)]
                )
            stats = drain_hints(cat)  # slab 3's four chunks, decoded async
            assert stats.issued == 4
            assert cat.stats().pool.submitted >= 4
            np.testing.assert_array_equal(
                cat.read("a", slab_region(3)), fields["a"][slab_region(3)]
            )
            stats = cat.prefetch_stats()
            assert stats.hits == 4 and stats.wasted == 0

    def test_async_prefetch_never_corrupts_inflight_streams(
        self, store_root, pool_small_chunks
    ):
        """Async hint decodes landing mid-stream (and the LRU churn they
        cause in a tiny cache) must not change bytes a read_iter already
        scheduled — streamed tiles stay fresh copies."""
        root, fields = store_root
        chunk_bytes = int(np.prod(CHUNK)) * fields["a"].itemsize
        options = CatalogOptions(
            cache_bytes=2 * chunk_bytes + 128, prefetch_depth=4, workers=1
        )
        with StoreCatalog(root, options=options) as cat:
            stream = cat.read_iter("a", max_inflight=8)
            it = iter(stream)
            first_sel, first = next(it)  # 7 more tiles already scheduled
            # churn: the other key's scan submits async hints that evict
            # everything the tiny LRU holds as they are harvested
            for i in range(5):
                cat.read("b", slab_region(i))
            cat.prefetch_stats()  # harvest whatever finished mid-stream
            np.testing.assert_array_equal(first, fields["a"][first_sel])
            for tile_sel, tile in it:
                np.testing.assert_array_equal(tile, fields["a"][tile_sel])
            assert cat.stats().pool.submitted > 0

    def test_close_with_inflight_hints_does_not_hang(self, store_root, pool_small_chunks):
        root, _ = store_root
        options = CatalogOptions(cache_bytes=64 << 20, prefetch_depth=4, workers=1)
        with StoreCatalog(root, options=options) as cat:
            for i in range(3):
                cat.read("a", slab_region(i))
            assert cat.stats().pool.submitted > 0
            # exit immediately: slab 3's hint decodes may still be running;
            # close() cancels them — reaching the assertion is the test
        assert cat.prefetch_stats().wasted >= 0

    def test_reregistration_mid_flight_never_serves_stale_bytes(
        self, store_root, pool_small_chunks
    ):
        """Re-pointing a key while its hint decodes are still on the pool
        must not let the old store's chunks serve the new key (the admit
        path drops hints whose reader was retired)."""
        root, fields = store_root
        options = CatalogOptions(cache_bytes=64 << 20, prefetch_depth=4, workers=1)
        with StoreCatalog(root, options=options) as cat:
            for i in range(3):
                cat.read("a", slab_region(i))  # slab 3 hints now in flight
            assert cat.stats().pool.submitted > 0
            cat.register("a", root / "b.rps")
            for i in range(5):
                np.testing.assert_array_equal(
                    cat.read("a", slab_region(i)), fields["b"][slab_region(i)]
                )
            drain_hints(cat)

    def test_pool_task_done(self, store_root, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        from repro.serve.pool import WorkerPool

        with WorkerPool(1) as pool:
            task = pool.submit(int, "7")
            assert task.result() == 7
            assert task.done()

            def _broken():
                raise BrokenProcessPool("executor gone")

            monkeypatch.setattr(pool, "_ensure_executor", _broken)
            task = pool.submit(int, "7")
            assert task.done()  # a submit-time fallback is deferred, always ready
            assert task.result() == 7  # run in the caller, counted once
            assert pool.stats.submitted == pool.stats.completed == 2
            assert pool.stats.fallbacks == 1

    def test_reregistration_forgets_history(self, store_root, tmp_path):
        root, fields = store_root
        options = CatalogOptions(cache_bytes=64 << 20, prefetch_depth=4)
        with StoreCatalog(root, options=options) as cat:
            for i in range(3):
                cat.read("a", slab_region(i))
            assert cat.prefetch_stats().issued > 0
            issued_before = cat.prefetch_stats().issued
            # re-point "a" at a different file: the old run must not
            # seed predictions for the new store
            cat.register("a", root / "b.rps")
            cat.read("a", slab_region(3))  # would extend the old run
            assert cat.prefetch_stats().issued == issued_before
            np.testing.assert_array_equal(
                cat.read("a", slab_region(4)), fields["b"][slab_region(4)]
            )
