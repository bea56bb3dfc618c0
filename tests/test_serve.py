"""The repro.serve serving layer: cache, pool, registry, service."""

import asyncio
import os
import time

import numpy as np
import pytest

from repro import load_dataset
from repro.api import Carol, Fxrz, Service, ServiceOptions, save
from repro.load import Gateway
from repro.serve import (
    LRUCache,
    ModelRegistry,
    PredictionService,
    WorkerPool,
    digest_array,
)

SHAPE = (10, 14, 14)
REL = np.geomspace(1e-3, 1e-1, 5)


@pytest.fixture(scope="module")
def train_fields():
    return load_dataset("miranda", shape=SHAPE)[:3]


@pytest.fixture(scope="module")
def fitted(train_fields):
    fw = Carol(compressor="szx", rel_error_bounds=REL, n_iter=3, cv=2)
    fw.fit(train_fields)
    return fw


class TestDigest:
    def test_equal_arrays_equal_digest(self, rng):
        a = rng.random((6, 7))
        assert digest_array(a) == digest_array(a.copy())

    def test_one_element_changes_digest(self, rng):
        a = rng.random((6, 7))
        b = a.copy()
        b[3, 3] += 1e-9
        assert digest_array(a) != digest_array(b)

    def test_shape_matters(self):
        a = np.arange(12.0)
        assert digest_array(a) != digest_array(a.reshape(3, 4))

    def test_noncontiguous_view_equals_copy(self, rng):
        a = rng.random((10, 10))
        view = a[::2, ::2]
        assert digest_array(view) == digest_array(view.copy())

    def test_digests_are_pinned(self):
        # hashing the buffer in place must not move a single digest
        a = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        assert digest_array(a) == "077f272ba38b37325dbecc75e7f2d124"
        view = np.arange(60, dtype=np.float64).reshape(6, 10)[::2, 1::3]
        assert digest_array(view) == "9b58bb71b8912338ba4aaf284bccca6d"


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" is now least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_zero_entries_disables(self):
        cache = LRUCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear(self):
        cache = LRUCache(max_entries=4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0


class TestLRUCacheCostMode:
    def test_byte_budget_eviction(self):
        cache = LRUCache(max_entries=None, max_cost=100)
        a = np.zeros(10, dtype=np.float32)  # 40 bytes each
        cache.put("a", a)
        cache.put("b", a.copy())
        assert cache.total_cost == 80
        cache.put("c", a.copy())  # 120 > 100: evicts LRU "a"
        assert "a" not in cache and "b" in cache and "c" in cache
        assert cache.total_cost == 80
        assert cache.stats.evictions == 1

    def test_eviction_respects_recency(self):
        cache = LRUCache(max_entries=None, max_cost=100)
        a = np.zeros(10, dtype=np.float32)
        cache.put("a", a)
        cache.put("b", a.copy())
        cache.get("a")  # refresh "a"; "b" is now least recent
        cache.put("c", a.copy())
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_oversized_entry_never_admitted(self):
        cache = LRUCache(max_entries=None, max_cost=100)
        cache.put("big", np.zeros(100, dtype=np.float32))  # 400 > 100
        assert "big" not in cache
        assert cache.stats.evictions == 0  # rejected, nothing evicted

    def test_replacement_updates_total_cost(self):
        cache = LRUCache(max_entries=None, max_cost=1000)
        cache.put("a", np.zeros(10, dtype=np.float32))
        cache.put("a", np.zeros(20, dtype=np.float32))
        assert cache.total_cost == 80
        assert len(cache) == 1

    def test_zero_cost_budget_disables(self):
        cache = LRUCache(max_entries=None, max_cost=0)
        cache.put("a", np.zeros(4))
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_custom_cost_function(self):
        cache = LRUCache(max_entries=None, max_cost=5, cost=len)
        cache.put("a", "xx")
        cache.put("b", "yyy")
        assert cache.total_cost == 5
        cache.put("c", "z")
        assert "a" not in cache  # 6 > 5 evicted the least recent

    def test_count_bound_still_applies_with_cost(self):
        cache = LRUCache(max_entries=2, max_cost=1000)
        for key in "abc":
            cache.put(key, np.zeros(2))
        assert len(cache) == 2 and "a" not in cache

    def test_clear_resets_cost(self):
        cache = LRUCache(max_entries=None, max_cost=100)
        cache.put("a", np.zeros(10, dtype=np.float32))
        cache.clear()
        assert cache.total_cost == 0.0 and len(cache) == 0

    def test_put_reports_admission(self):
        cache = LRUCache(max_entries=None, max_cost=100)
        assert cache.put("a", np.zeros(10, dtype=np.float32)) is True
        assert cache.put("big", np.zeros(100, dtype=np.float32)) is False
        assert LRUCache(max_entries=0).put("a", 1) is False
        assert LRUCache(max_entries=None, max_cost=0).put("a", 1) is False

    def test_admits_predicts_put(self):
        cache = LRUCache(max_entries=None, max_cost=100)
        small = np.zeros(10, dtype=np.float32)
        big = np.zeros(100, dtype=np.float32)
        assert cache.admits(small) and cache.put("a", small)
        assert not cache.admits(big) and not cache.put("b", big)
        assert not LRUCache(max_entries=0).admits(small)
        assert not LRUCache(max_entries=None, max_cost=0).admits(small)
        assert LRUCache(max_entries=4).admits(small)  # count mode, no cost bound

    def test_evict_scope_drops_only_that_scope(self):
        cache = LRUCache(max_entries=None, max_cost=1000)
        a = np.zeros(10, dtype=np.float32)  # 40 bytes each
        cache.put(("old", (0, 0)), a)
        cache.put(("old", (1, 0)), a.copy())
        cache.put(("new", (0, 0)), a.copy())
        cache.put("plain-key", a.copy())  # non-tuple keys are untouched
        assert cache.evict_scope("old") == 2
        assert ("old", (0, 0)) not in cache and ("old", (1, 0)) not in cache
        assert ("new", (0, 0)) in cache and "plain-key" in cache
        assert cache.total_cost == 80
        assert cache.stats.evictions == 0  # invalidation, not capacity pressure
        assert cache.evict_scope("old") == 0


def _square(x):
    return x * x


def _slow(x, delay):
    time.sleep(delay)
    return x


def _die_unless_pid(main_pid, x):
    if os.getpid() != main_pid:
        os._exit(13)
    return x


def _die_or_sleep(main_pid, delay):
    if os.getpid() != main_pid:
        os._exit(13)
    time.sleep(delay)
    return delay


class TestWorkerPool:
    def test_order_preserved_across_workers(self):
        with WorkerPool(2, max_pending=3) as pool:
            out = pool.map_ordered(_square, [(i,) for i in range(8)])
        assert out == [i * i for i in range(8)]

    def test_single_task_runs_inline(self):
        pool = WorkerPool(2)
        assert pool.map_ordered(_square, [(7,)]) == [49]
        assert pool.map_ordered(_square, []) == []
        assert pool._executor is None  # no worker was ever spawned
        assert pool.stats.completed == 1 and pool.stats.fallbacks == 0

    def test_timeout_falls_back_in_process(self):
        with WorkerPool(2, timeout=0.2) as pool:
            out = pool.map_ordered(_slow, [(1, 0.0), (2, 5.0), (3, 0.0)])
        assert out == [1, 2, 3]
        assert pool.stats.timeouts == 1
        assert pool.stats.fallbacks == 1

    def test_dead_worker_falls_back_in_process(self):
        with WorkerPool(2) as pool:
            out = pool.map_ordered(_die_unless_pid, [(os.getpid(), i) for i in range(4)])
            assert out == [0, 1, 2, 3]
            assert pool.stats.fallbacks >= 1
            # the pool recycled its executor and keeps serving
            assert pool.map_ordered(_square, [(2,), (3,)]) == [4, 9]

    def test_task_exceptions_propagate(self):
        with WorkerPool(2) as pool:
            with pytest.raises(TypeError):
                pool.map_ordered(_square, [(1,), ("nope", 2)])

    def test_invalid_config_rejected(self):
        for n_workers in (-1, 0):
            with pytest.raises(ValueError, match="n_workers"):
                WorkerPool(n_workers)
        with pytest.raises(ValueError):
            WorkerPool(1, max_pending=0)

    def test_map_ordered_preserves_task_order(self):
        with WorkerPool(2, max_pending=3) as pool:
            out = pool.map_ordered(_square, [(i,) for i in range(8)])
        assert out == [i * i for i in range(8)]

    def test_map_ordered_timeout_override(self):
        """A per-call timeout overrides the pool default; the slow task
        falls back in-process and order is still preserved."""
        with WorkerPool(2, timeout=60.0) as pool:
            out = pool.map_ordered(_slow, [(1, 0.0), (2, 2.0), (3, 0.0)], timeout=0.2)
        assert out == [1, 2, 3]
        assert pool.stats.timeouts == 1
        assert pool.stats.fallbacks == 1

    def test_map_ordered_none_timeout_keeps_pool_default(self):
        with WorkerPool(2, timeout=0.2) as pool:
            out = pool.map_ordered(_slow, [(1, 0.0), (2, 2.0), (3, 0.0)], timeout=None)
        assert out == [1, 2, 3]
        assert pool.stats.timeouts == 1

    def test_untouched_pool_has_no_time(self):
        stats = WorkerPool(2).stats
        assert stats.worker_seconds == 0.0 and stats.wait_seconds == 0.0
        assert stats.as_dict()["worker_seconds"] == 0.0
        assert stats.as_dict()["wait_seconds"] == 0.0

    def test_pooled_map_times_the_work_where_it_ran(self):
        with WorkerPool(2) as pool:
            pool.map_ordered(_slow, [(i, 0.02) for i in range(4)])
            stats = pool.stats
        assert stats.fallbacks == 0  # every sleep was measured inside a worker
        assert stats.worker_seconds >= 4 * 0.02
        # two workers at best halve the wall; the rest is queueing + IPC
        assert stats.wait_seconds >= stats.worker_seconds / pool.n_workers

    def test_submitted_task_wait_and_work_are_both_counted(self):
        with WorkerPool(1) as pool:
            assert pool.submit(_slow, 7, 0.02).result() == 7
            stats = pool.stats
        assert stats.worker_seconds >= 0.02
        assert stats.wait_seconds >= stats.worker_seconds / pool.n_workers

    @pytest.mark.parametrize("n_tasks", (1, 2))
    def test_in_process_run_is_counted_once(self, n_tasks):
        """A task that ends up in the caller — a lone task run inline, or
        one whose worker died — is timed there, once: the caller's wait
        encloses it, so it can never exceed the wait."""
        with WorkerPool(2) as pool:
            out = pool.map_ordered(_die_or_sleep, [(os.getpid(), 0.02)] * n_tasks)
            stats = pool.stats
        assert out == [0.02] * n_tasks
        assert stats.completed == n_tasks
        assert (stats.fallbacks > 0) == (n_tasks > 1)
        assert n_tasks * 0.02 <= stats.worker_seconds <= stats.wait_seconds


class TestModelRegistry:
    def test_lazy_load_and_get(self, fitted, tmp_path):
        path = save(tmp_path / "m.npz", fitted)
        reg = ModelRegistry()
        reg.register("carol-prod", path)
        assert "carol-prod" in reg
        fw = reg.get("carol-prod")
        assert fw.name == "carol"
        assert reg.get("carol-prod") is fw  # cached, not reloaded

    def test_unknown_name(self):
        reg = ModelRegistry()
        with pytest.raises(KeyError, match="unknown model"):
            reg.get("nope")

    def test_missing_file_rejected_eagerly(self, tmp_path):
        reg = ModelRegistry()
        with pytest.raises(FileNotFoundError):
            reg.register("m", tmp_path / "missing.npz")

    def test_hot_reload_on_mtime_change(self, fitted, tmp_path):
        path = save(tmp_path / "m.npz", fitted)
        reg = ModelRegistry()
        reg.register("m", path)
        first = reg.get("m")
        os.utime(path, (time.time() + 5, time.time() + 5))
        second = reg.get("m")
        assert second is not first

    def test_hot_reload_on_same_mtime_overwrite(self, fitted, train_fields, tmp_path):
        # An overwrite within mtime granularity (common on coarse-timestamp
        # filesystems and fast CI) must still be detected: the signature
        # includes size and a content hash, not just the timestamp.
        path = save(tmp_path / "m.npz", fitted)
        mtime_ns = path.stat().st_mtime_ns
        reg = ModelRegistry()
        reg.register("m", path)
        assert reg.get("m").name == "carol"

        other = Fxrz(compressor="szx", rel_error_bounds=REL, n_iter=2, cv=2)
        other.fit(train_fields[:2])
        save(path, other)
        os.utime(path, ns=(mtime_ns, mtime_ns))  # forge the old timestamp
        assert path.stat().st_mtime_ns == mtime_ns
        assert reg.get("m").name == "fxrz"

    def test_in_memory_add(self, fitted):
        reg = ModelRegistry()
        reg.add("mem", fitted)
        assert reg.get("mem") is fitted
        assert reg.reload("mem") is fitted

    def test_unregister(self, fitted):
        reg = ModelRegistry()
        reg.add("mem", fitted)
        reg.unregister("mem")
        assert "mem" not in reg


class TestPredictionService:
    def test_facade_alias(self):
        assert Service is PredictionService

    def test_unfitted_framework_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            Service(Carol(compressor="szx"))

    def test_predict_matches_framework(self, fitted, train_fields):
        with Service(fitted) as svc:
            data = train_fields[0].data
            direct = fitted.predict_error_bound(data, 8.0, safety=1.0)
            served = svc.predict(data, 8.0, safety=1.0)
            assert served.error_bound == direct.error_bound

    def test_predict_batch_bitwise_identical_to_sequential(self, fitted, train_fields):
        requests = [
            (train_fields[i % len(train_fields)].data, 3.0 + 2.0 * i) for i in range(9)
        ]
        sequential = [
            fitted.predict_error_bound(d, r).error_bound for d, r in requests
        ]
        # three distinct fields miss together: one stacked extraction
        for cache_entries in (256, 8, 0):
            with Service(fitted, options=ServiceOptions(cache_entries=cache_entries)) as svc:
                batched = svc.predict_batch(requests)
            assert [p.error_bound for p in batched] == sequential

    def test_batch_with_safety_identical(self, fitted, train_fields):
        requests = [(train_fields[0].data, r) for r in (4.0, 9.0, 17.0)]
        sequential = [
            fitted.predict_error_bound(d, r, safety=1.5).error_bound
            for d, r in requests
        ]
        with Service(fitted) as svc:
            batched = svc.predict_batch(requests, safety=1.5)
        assert [p.error_bound for p in batched] == sequential

    def test_repeated_fields_hit_cache(self, fitted, train_fields):
        data = train_fields[0].data
        with Service(fitted) as svc:
            svc.predict(data, 4.0)
            svc.predict(data, 8.0)
            svc.predict_batch([(data, 5.0), (data, 6.0)])
            stats = svc.stats()
        assert stats.cache.misses == 1
        assert stats.cache.hits >= 2
        assert stats.requests == 4

    def test_field_objects_accepted(self, fitted, train_fields):
        with Service(fitted) as svc:
            pred = svc.predict(train_fields[0], 6.0)
            assert pred.error_bound > 0

    def test_empty_batch(self, fitted):
        with Service(fitted) as svc:
            assert svc.predict_batch([]) == []

    def test_predict_targets_single_extraction(self, fitted, train_fields):
        data = train_fields[0].data
        with Service(fitted) as svc:
            batch = svc.predict_targets(data, [4.0, 8.0, 16.0])
            assert len(batch) == 3
            again = svc.predict_targets(data, [4.0, 8.0, 16.0])
            stats = svc.stats()
        assert stats.cache.misses == 1
        assert batch.error_bounds.tolist() == again.error_bounds.tolist()

    def test_fxrz_service(self, train_fields):
        fw = Fxrz(compressor="szx", rel_error_bounds=REL, n_iter=2, cv=2)
        fw.fit(train_fields[:2])
        requests = [(train_fields[0].data, 4.0), (train_fields[1].data, 8.0)]
        sequential = [
            fw.predict_error_bound(d, r).error_bound for d, r in requests
        ]
        with Service(fw) as svc:
            batched = svc.predict_batch(requests)
        assert [p.error_bound for p in batched] == sequential

    def test_cache_disabled_still_correct(self, fitted, train_fields):
        data = train_fields[0].data
        direct = fitted.predict_error_bound(data, 7.0).error_bound
        with Service(fitted, options=ServiceOptions(cache_entries=0)) as svc:
            assert svc.predict(data, 7.0).error_bound == direct
            assert svc.predict(data, 7.0).error_bound == direct
            assert svc.stats().cache.hits == 0


class _WholeArrayCarol(Carol):
    """An extractor the service does not know: reads every element."""

    def _extract_features(self, data):
        return np.array([data.mean(), data.max() - data.min(), data.std(), 0.0, 0.0]), 0.0


def _framework(kind: str, fitted):
    """Carol, FXRZ (stride 4 / full) or an unknown subclass around the one
    fitted model — the key depends on the extractor, not on the forest."""
    if kind == "carol":
        return fitted
    if kind == "unknown":
        fw = _WholeArrayCarol(compressor="szx")
    else:
        fw = Fxrz(compressor="szx")
        fw.feature_stride = {"fxrz4": 4, "fxrz_full": None}[kind]
    fw.model = fitted.model
    return fw


def _sampled_mask(fw, shape) -> np.ndarray:
    """Which elements ``fw.feature_sample`` keeps, by sampling an index grid."""
    index = np.arange(int(np.prod(shape)), dtype=np.float64).reshape(shape)
    mask = np.zeros(index.size, dtype=bool)
    mask[fw.feature_sample(index).ravel().astype(np.int64)] = True
    return mask.reshape(shape)


def _same_bits(a, b) -> bool:
    return a.error_bound == b.error_bound and np.array_equal(a.features, b.features)


SAMPLE_SHAPES = [(200,), (70, 45), (10, 12, 12), (33, 70, 65), (160, 40, 40)]


class TestSampleAddressedCache:
    """The feature cache is keyed by what the extractor reads. That is exact
    only while the key and the extractor sample with the same function —
    these tests fail if the two ever drift."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SAMPLE_SHAPES)
    @pytest.mark.parametrize("kind", ["carol", "fxrz4", "fxrz_full"])
    def test_key_is_exactly_the_extractors_sample(self, fitted, rng, kind, shape, dtype):
        fw = _framework(kind, fitted)
        data = rng.standard_normal(shape).astype(dtype)
        sampled = _sampled_mask(fw, shape)
        assert kind == "fxrz_full" or not sampled.all()
        with Service(fw) as svc:
            first = svc.predict(data, 8.0)
            assert _same_bits(first, fw.predict_error_bound(data, 8.0))

            # (i) rewrite EVERY element outside the sample: still a hit, and
            # the cached answer is what the extractor gives on the new array
            # (it would not be if the extractor read anything the key skips)
            outside = data.copy()
            outside[~sampled] = rng.standard_normal(int((~sampled).sum())).astype(dtype)
            served = svc.predict(outside, 8.0)
            assert svc.stats().cache.misses == 1
            assert svc.stats().cache.hits == 1
            assert _same_bits(served, fw.predict_error_bound(outside, 8.0))

            # (ii) one element inside the sample: another key, a miss
            inside = data.copy()
            inside[tuple(np.argwhere(sampled)[-1])] += 1.0
            served = svc.predict(inside, 8.0)
            assert svc.stats().cache.misses == 2
            assert _same_bits(served, fw.predict_error_bound(inside, 8.0))

    @pytest.mark.parametrize("kind", ["carol", "fxrz4", "fxrz_full", "unknown"])
    def test_every_entry_point_returns_the_frameworks_bits(self, fitted, rng, kind):
        fw = _framework(kind, fitted)
        a = rng.standard_normal((33, 40, 36)).astype(np.float32)
        b = a.copy()
        b[-1, -1, -1] += 1.0  # outside CAROL's and FXRZ's samples
        requests = [(a, 4.0), (b, 9.0), (a, 17.0), (b, 4.0)]
        direct = [fw.predict_error_bound(d, r) for d, r in requests]

        async def through_gateway(svc):
            async with Gateway(svc) as gw:
                return await asyncio.gather(*(gw.submit(d, r) for d, r in requests))

        with Service(fw) as svc:
            assert all(_same_bits(svc.predict(d, r), p) for (d, r), p in zip(requests, direct))
            assert all(_same_bits(g, p) for g, p in zip(svc.predict_batch(requests), direct))
            assert all(
                _same_bits(g, p) for g, p in zip(asyncio.run(through_gateway(svc)), direct)
            )
            targets = svc.predict_targets(b, [9.0, 4.0])
            assert targets.error_bounds.tolist() == [direct[1].error_bound, direct[3].error_bound]

    def test_unknown_subclass_keeps_the_whole_array_key(self, fitted, rng):
        # (iv) it inherits Carol's feature_sample but extracts on its own,
        # so only the whole array is known to determine its features
        fw = _framework("unknown", fitted)
        a = rng.standard_normal((33, 40, 36)).astype(np.float32)
        b = a.copy()
        b[-1, -1, -1] += 1.0
        with Service(fw) as svc:
            svc.predict(a, 8.0)
            served = svc.predict(b, 8.0)
            assert svc.stats().cache.misses == 2
        assert _same_bits(served, fw.predict_error_bound(b, 8.0))

    def test_hot_swap_to_another_extractor_is_not_served_stale_features(
        self, fitted, train_fields
    ):
        data = train_fields[0].data
        fxrz = _framework("fxrz4", fitted)
        reg = ModelRegistry()
        reg.add("prod", fitted)
        with Service.from_registry(reg, "prod") as svc:
            svc.predict(data, 8.0)
            reg.add("prod", fxrz)  # same name, same data, another extractor
            served = svc.predict(data, 8.0)
            batched = svc.predict_batch([(data, 8.0)])[0]
        assert not np.array_equal(fxrz.extract_features(data), fitted.extract_features(data))
        assert _same_bits(served, fxrz.predict_error_bound(data, 8.0))
        assert _same_bits(batched, fxrz.predict_error_bound(data, 8.0))


class TestServiceOptions:
    def test_frozen_and_hashable(self):
        opts = ServiceOptions(cache_entries=16)
        assert opts == ServiceOptions(cache_entries=16)
        assert hash(opts) == hash(ServiceOptions(cache_entries=16))
        with pytest.raises(Exception):
            opts.cache_entries = 2

    def test_build(self, fitted):
        with PredictionService(fitted, options=ServiceOptions(cache_entries=4)) as svc:
            assert svc.cache.max_entries == 4

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            ServiceOptions(4)

    def test_negative_cache_entries_rejected_at_construction(self):
        with pytest.raises(ValueError, match="cache_entries"):
            ServiceOptions(cache_entries=-1)


class TestServiceFromRegistry:
    def test_serves_and_hot_reloads(self, fitted, tmp_path, train_fields):
        path = save(tmp_path / "m.npz", fitted)
        reg = ModelRegistry()
        reg.register("prod", path)
        with Service.from_registry(reg, "prod") as svc:
            data = train_fields[0].data
            eb = svc.predict(data, 6.0).error_bound
            assert eb == fitted.predict_error_bound(data, 6.0).error_bound
            first_fw = svc.framework
            os.utime(path, (time.time() + 5, time.time() + 5))
            svc.predict(data, 6.0)
            assert svc.framework is not first_fw

    def test_unknown_name_fails_fast(self):
        with pytest.raises(KeyError):
            Service.from_registry(ModelRegistry(), "nope")
