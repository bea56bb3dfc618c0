"""The traffic layer: gateway semantics (coalescing, admission, close, stats)."""

import asyncio
import dataclasses
import threading

import numpy as np
import pytest

from repro.api import Carol, Service
from repro.load import Gateway, GatewayClosed, GatewayOptions, GatewayStats, Overloaded

SHAPE = (8, 12, 12)
REL = np.geomspace(1e-3, 1e-1, 4)


@pytest.fixture(scope="module")
def train_fields():
    from repro import load_dataset

    return load_dataset("miranda", shape=SHAPE)[:3]


@pytest.fixture(scope="module")
def fitted(train_fields):
    fw = Carol(compressor="szx", rel_error_bounds=REL, n_iter=2, cv=2)
    fw.fit(train_fields)
    return fw


def _run(coro):
    return asyncio.run(coro)


class TestGatewayOptions:
    def test_defaults_and_validation(self):
        opts = GatewayOptions()
        assert opts.max_wait_ms >= 0 and opts.max_pending >= 1
        with pytest.raises(ValueError):
            GatewayOptions(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            GatewayOptions(max_pending=0)

    def test_frozen_hashable_keyword_only(self):
        opts = GatewayOptions(max_pending=4)
        assert opts == GatewayOptions(max_pending=4)
        assert hash(opts) == hash(GatewayOptions(max_pending=4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.max_pending = 8
        with pytest.raises(TypeError):
            GatewayOptions(8)


class TestCoalescingDeterminism:
    # ``together`` requests are submitted at once and awaited before the
    # next group goes in, so each group is exactly one flush: the four
    # configurations coalesce 16 requests into 16, 8, 6 and 1 batches.
    @pytest.mark.parametrize("together,max_wait_ms", [
        (1, 0.0), (2, 5.0), (3, 0.0), (16, 5.0),
    ])
    def test_bitwise_identical_to_direct_predict(
        self, fitted, train_fields, together, max_wait_ms
    ):
        rng = np.random.default_rng(7)
        requests = [
            (int(rng.integers(len(train_fields))), float(rng.choice([4.0, 8.0, 16.0])))
            for _ in range(16)
        ]
        datas = [f.data for f in train_fields]
        with Service(fitted) as svc:
            direct = [
                svc.predict(datas[i], r).error_bound for i, r in requests
            ]

        async def main(svc):
            opts = GatewayOptions(max_wait_ms=max_wait_ms, max_pending=64)
            preds = []
            async with Gateway(svc, options=opts) as gw:
                for at in range(0, len(requests), together):
                    preds += await asyncio.gather(
                        *(gw.submit(datas[i], r) for i, r in requests[at:at + together])
                    )
            return [p.error_bound for p in preds], gw.stats()

        with Service(fitted) as svc:
            answers, stats = _run(main(svc))
        assert answers == direct
        assert stats.completed == len(requests)
        assert stats.batches == -(-len(requests) // together)
        assert stats.flushes_timer == stats.batches

    def test_burst_is_one_flush_keying_each_array_once(
        self, fitted, train_fields, monkeypatch
    ):
        import repro.serve.service as service_mod

        datas = [f.data for f in train_fields]
        opts = GatewayOptions(max_wait_ms=10_000.0, max_pending=64)
        requests = [
            (datas[i % len(datas)], (4.0, 8.0, 16.0, 32.0)[i % 4])
            for i in range(opts.max_pending)
        ]
        with Service(fitted) as svc:
            direct = [svc.predict(d, r) for d, r in requests]

        keyed = []
        digest = service_mod.digest_array

        def counted(sample):
            keyed.append(sample.shape)
            return digest(sample)

        monkeypatch.setattr(service_mod, "digest_array", counted)

        async def main(svc):
            # the linger window outlasts the test: only a full queue flushes
            async with Gateway(svc, options=opts) as gw:
                preds = await asyncio.gather(*(gw.submit(d, r) for d, r in requests))
            return preds, gw.stats()

        with Service(fitted) as svc:
            preds, stats = _run(main(svc))
        assert stats.batches == 1 and stats.flushes_full == 1
        assert stats.completed == opts.max_pending
        assert len(keyed) == len(datas)
        assert [p.error_bound for p in preds] == [p.error_bound for p in direct]
        assert [p.std for p in preds] == [p.std for p in direct]
        assert all(np.array_equal(p.features, q.features) for p, q in zip(preds, direct))

    def test_linger_deadline_runs_from_the_oldest_request(self):
        max_wait = 1.0  # seconds: far past any scheduling hiccup
        started, gate = threading.Event(), threading.Event()

        class BlockedService:
            """Holds its first batch until the test opens the gate."""

            def predict_batch(self, requests, *, safety=0.0):
                started.set()
                assert gate.wait(timeout=30.0)
                return [ratio for _, ratio in requests]

        async def main():
            loop = asyncio.get_running_loop()
            opts = GatewayOptions(max_wait_ms=max_wait * 1000.0, max_pending=4)
            async with Gateway(BlockedService(), options=opts) as gw:
                try:
                    first = asyncio.ensure_future(gw.submit(None, 4.0))
                    assert await loop.run_in_executor(None, started.wait, 30.0)
                    # the first batch is in flight; the second request
                    # ages past its whole window in the queue behind it
                    second = asyncio.ensure_future(gw.submit(None, 8.0))
                    await asyncio.sleep(max_wait + 0.05)
                    gate.set()
                    released = loop.time()
                    assert await first == 4.0
                    assert await second == 8.0
                    waited = loop.time() - released
                finally:
                    gate.set()  # never leave the executor blocked
            return waited, gw.stats()

        waited, stats = _run(main())
        # already due when the first batch returns: flushed at once, not
        # after a fresh window
        assert waited < max_wait / 2
        assert stats.batches == 2 and stats.flushes_timer == 2

    def test_single_request_flushes_on_timer(self, fitted, train_fields):
        async def main(svc):
            opts = GatewayOptions(max_wait_ms=1.0)
            async with Gateway(svc, options=opts) as gw:
                pred = await gw.submit(train_fields[0].data, 8.0)
            return pred, gw.stats()

        with Service(fitted) as svc:
            pred, stats = _run(main(svc))
        assert pred.error_bound > 0
        assert stats.batches == 1
        assert stats.flushes_timer == 1

    def test_safety_applied_uniformly(self, fitted, train_fields):
        data = train_fields[0].data
        with Service(fitted) as svc:
            direct = svc.predict(data, 8.0, safety=1.5).error_bound

        async def main(svc):
            opts = GatewayOptions(safety=1.5)
            async with Gateway(svc, options=opts) as gw:
                return (await gw.submit(data, 8.0)).error_bound

        with Service(fitted) as svc:
            assert _run(main(svc)) == direct


class TestAdmissionControl:
    def test_over_cap_rejected_with_typed_error(self, fitted, train_fields):
        data = train_fields[0].data

        async def main(svc):
            opts = GatewayOptions(max_wait_ms=50.0, max_pending=4)
            async with Gateway(svc, options=opts) as gw:
                results = await asyncio.gather(
                    *(gw.submit(data, 8.0) for _ in range(10)),
                    return_exceptions=True,
                )
            return results, gw.stats()

        with Service(fitted) as svc:
            results, stats = _run(main(svc))
        rejected = [r for r in results if isinstance(r, Overloaded)]
        ok = [r for r in results if not isinstance(r, Exception)]
        assert len(rejected) == 6 and len(ok) == 4
        assert stats.accepted == 4 and stats.rejected == 6
        assert stats.submitted == 10
        assert stats.rejection_rate == pytest.approx(0.6)
        err = rejected[0]
        assert err.pending == 4 and err.max_pending == 4
        assert "cap 4" in str(err)

    def test_capacity_frees_as_batches_complete(self, fitted, train_fields):
        data = train_fields[0].data

        async def main(svc):
            opts = GatewayOptions(max_wait_ms=0.0, max_pending=2)
            async with Gateway(svc, options=opts) as gw:
                first = await asyncio.gather(
                    *(gw.submit(data, 8.0) for _ in range(2))
                )
                second = await asyncio.gather(
                    *(gw.submit(data, 8.0) for _ in range(2))
                )
            return first + second, gw.stats()

        with Service(fitted) as svc:
            results, stats = _run(main(svc))
        assert len(results) == 4
        assert stats.rejected == 0 and stats.completed == 4


class TestCloseSemantics:
    def test_close_drains_admitted_requests(self, fitted, train_fields):
        data = train_fields[0].data

        async def main(svc):
            # a long linger window: only the close() drain can flush early
            opts = GatewayOptions(max_wait_ms=10_000.0)
            gw = Gateway(svc, options=opts)
            async with gw:
                tasks = [
                    asyncio.ensure_future(gw.submit(data, r))
                    for r in (4.0, 8.0, 16.0)
                ]
                await asyncio.sleep(0)  # let them enqueue
            # __aexit__ == close(): every admitted future must have resolved
            assert all(t.done() for t in tasks)
            return [t.result() for t in tasks], gw.stats()

        with Service(fitted) as svc:
            preds, stats = _run(main(svc))
        assert all(p.error_bound > 0 for p in preds)
        assert stats.completed == 3
        assert stats.flushes_drain >= 1

    def test_submit_after_close_raises(self, fitted, train_fields):
        async def main(svc):
            gw = Gateway(svc)
            async with gw:
                await gw.submit(train_fields[0].data, 8.0)
            with pytest.raises(GatewayClosed):
                await gw.submit(train_fields[0].data, 8.0)

        with Service(fitted) as svc:
            _run(main(svc))

    def test_close_idempotent(self, fitted):
        async def main(svc):
            gw = Gateway(svc)
            async with gw:
                pass
            await gw.close()

        with Service(fitted) as svc:
            _run(main(svc))

    def test_service_failure_propagates_to_callers(self, fitted, train_fields):
        async def main(svc):
            async with Gateway(svc) as gw:
                results = await asyncio.gather(
                    gw.submit(train_fields[0].data, 8.0),
                    gw.submit(train_fields[0].data, -3.0),  # invalid ratio
                    return_exceptions=True,
                )
            return results, gw.stats()

        with Service(fitted) as svc:
            results, stats = _run(main(svc))
            direct = svc.predict(train_fields[0].data, 8.0)
        # the failure belongs to its own caller; its batch-mate is served
        assert results[0].error_bound == direct.error_bound
        assert isinstance(results[1], ValueError)
        assert stats.failed == 1 and stats.completed == 1

    def test_one_bad_request_fails_alone(self, fitted, train_fields):
        good = [(train_fields[i % 3].data, 2.0 + i) for i in range(15)]
        empty = np.zeros((0, 4), np.float32)

        async def main(svc):
            # 16 admitted requests fill the queue: one full flush
            options = GatewayOptions(max_wait_ms=50.0, max_pending=16)
            async with Gateway(svc, options=options) as gw:
                results = await asyncio.gather(
                    *(gw.submit(d, r) for d, r in good[:7]),
                    gw.submit(empty, 8.0),
                    *(gw.submit(d, r) for d, r in good[7:]),
                    return_exceptions=True,
                )
            return results, gw.stats()

        with Service(fitted) as svc:
            results, stats = _run(main(svc))
            direct = [svc.predict(d, r) for d, r in good]
        bad = results.pop(7)
        assert isinstance(bad, ValueError) and "non-empty" in str(bad)
        assert [p.error_bound for p in results] == [p.error_bound for p in direct]
        assert all(np.array_equal(p.features, q.features) for p, q in zip(results, direct))
        assert stats.batches == 1 and stats.flushes_full == 1
        assert stats.completed == 15 and stats.failed == 1
        assert stats.accepted == 16

    def test_a_bad_request_in_a_burst_is_found_by_halving(self, fitted, train_fields):
        """A full flush of 256 with one bad request costs at most
        2 * log2(256) + 1 = 17 ``predict_batch`` calls (one per request
        would be 257), and only the bad request fails."""

        class Counting:
            def __init__(self, svc):
                self.svc, self.calls = svc, 0

            def predict_batch(self, requests, *, safety=0.0):
                self.calls += 1
                return self.svc.predict_batch(requests, safety=safety)

        n, bad_at = 256, 77
        good = [(train_fields[i % 3].data, 2.0 + i % 13) for i in range(n - 1)]
        empty = np.zeros((0, 4), np.float32)

        async def main(svc):
            options = GatewayOptions(max_wait_ms=50.0, max_pending=n)
            async with Gateway(svc, options=options) as gw:
                results = await asyncio.gather(
                    *(gw.submit(d, r) for d, r in good[:bad_at]),
                    gw.submit(empty, 8.0),
                    *(gw.submit(d, r) for d, r in good[bad_at:]),
                    return_exceptions=True,
                )
            return results, gw.stats()

        with Service(fitted) as svc:
            counting = Counting(svc)
            results, stats = _run(main(counting))
            direct = [svc.predict(d, r) for d, r in good]
        assert counting.calls <= 17
        bad = results.pop(bad_at)
        assert isinstance(bad, ValueError) and "non-empty" in str(bad)
        assert [p.error_bound for p in results] == [p.error_bound for p in direct]
        assert all(np.array_equal(p.features, q.features) for p, q in zip(results, direct))
        assert stats.batches == 1 and stats.completed == n - 1 and stats.failed == 1


class TestGatewayStats:
    def test_frozen_with_dict_view(self):
        stats = GatewayStats(
            submitted=10, accepted=8, rejected=2, completed=7, failed=1,
            batches=2, flushes_full=1, flushes_timer=1, flushes_drain=0,
            max_queue_depth=5,
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.submitted = 0
        assert stats.rejection_rate == pytest.approx(0.2)
        assert stats.mean_batch_size == pytest.approx(4.0)
        d = dataclasses.asdict(stats)
        assert d["submitted"] == 10 and d["max_queue_depth"] == 5

    def test_service_stats_typed(self, fitted, train_fields):
        with Service(fitted) as svc:
            svc.predict(train_fields[0].data, 8.0)
            stats = svc.stats()
        assert stats.requests == 1
        assert stats.cache.misses == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.requests = 0
        assert stats.batches == 1
