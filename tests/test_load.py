"""The traffic layer: gateway semantics (coalescing, admission, close, stats)."""

import asyncio
import dataclasses

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
        assert opts.max_batch >= 1 and opts.max_pending >= 1
        with pytest.raises(ValueError):
            GatewayOptions(max_batch=0)
        with pytest.raises(ValueError):
            GatewayOptions(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            GatewayOptions(max_pending=0)

    def test_frozen_hashable_keyword_only(self):
        opts = GatewayOptions(max_batch=4)
        assert opts == GatewayOptions(max_batch=4)
        assert hash(opts) == hash(GatewayOptions(max_batch=4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.max_batch = 8
        with pytest.raises(TypeError):
            GatewayOptions(8)


class TestCoalescingDeterminism:
    @pytest.mark.parametrize("max_batch,max_wait_ms", [
        (1, 0.0), (3, 0.0), (3, 5.0), (16, 5.0),
    ])
    def test_bitwise_identical_to_direct_predict(
        self, fitted, train_fields, max_batch, max_wait_ms
    ):
        rng = np.random.default_rng(7)
        requests = [
            (int(rng.integers(len(train_fields))), float(rng.choice([4.0, 8.0, 16.0])))
            for _ in range(10)
        ]
        datas = [f.data for f in train_fields]
        with Service(fitted) as svc:
            direct = [
                svc.predict(datas[i], r).error_bound for i, r in requests
            ]

        async def main(svc):
            opts = GatewayOptions(
                max_batch=max_batch, max_wait_ms=max_wait_ms, max_pending=64
            )
            async with Gateway(svc, options=opts) as gw:
                preds = await asyncio.gather(
                    *(gw.submit(datas[i], r) for i, r in requests)
                )
            return [p.error_bound for p in preds], gw.stats()

        with Service(fitted) as svc:
            answers, stats = _run(main(svc))
        assert answers == direct
        assert stats.completed == len(requests)
        if max_batch > 1:
            # simultaneous submission must actually coalesce
            assert stats.batches < len(requests)
            assert stats.mean_batch_size > 1.0

    def test_single_request_flushes_on_timer(self, fitted, train_fields):
        async def main(svc):
            opts = GatewayOptions(max_batch=16, max_wait_ms=1.0)
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
            opts = GatewayOptions(max_batch=2, safety=1.5)
            async with Gateway(svc, options=opts) as gw:
                return (await gw.submit(data, 8.0)).error_bound

        with Service(fitted) as svc:
            assert _run(main(svc)) == direct


class TestAdmissionControl:
    def test_over_cap_rejected_with_typed_error(self, fitted, train_fields):
        data = train_fields[0].data

        async def main(svc):
            opts = GatewayOptions(max_batch=4, max_wait_ms=50.0, max_pending=4)
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
            opts = GatewayOptions(max_batch=2, max_wait_ms=0.0, max_pending=2)
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
            opts = GatewayOptions(max_batch=64, max_wait_ms=10_000.0)
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
            async with Gateway(svc, options=GatewayOptions(max_batch=2)) as gw:
                results = await asyncio.gather(
                    gw.submit(train_fields[0].data, 8.0),
                    gw.submit(train_fields[0].data, -3.0),  # invalid ratio
                    return_exceptions=True,
                )
            return results, gw.stats()

        with Service(fitted) as svc:
            results, stats = _run(main(svc))
        # the whole batch fails together: failures belong to the callers
        assert all(isinstance(r, ValueError) for r in results)
        assert stats.failed == 2 and stats.completed == 0


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
        d = stats.as_dict()
        assert d["submitted"] == 10
        assert d["rejection_rate"] == pytest.approx(0.2)
        assert d["mean_batch_size"] == pytest.approx(4.0)

    def test_service_stats_typed(self, fitted, train_fields):
        with Service(fitted) as svc:
            svc.predict(train_fields[0].data, 8.0)
            stats = svc.stats()
        assert stats.requests == 1
        assert stats.cache.misses == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.requests = 0
        d = stats.as_dict()
        assert d["requests"] == 1 and d["cache"]["misses"] == 1
        assert set(d) == {"requests", "batches", "cache"}
