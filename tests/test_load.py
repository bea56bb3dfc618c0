"""The traffic layer: gateway semantics, workload models, run table, bench."""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.api import Carol, Service, ServiceOptions
from repro.load import (
    ClosedLoopClients,
    Gateway,
    GatewayClosed,
    GatewayOptions,
    GatewayStats,
    Measurement,
    OpenLoopPoisson,
    Overloaded,
    RunSpec,
    build_run_table,
    drive_closed_loop,
    drive_open_loop,
    execute_run,
    find_saturation,
    run_identity_gate,
)
from repro.load.bench import build_field_pool, load_report, write_report

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

    def test_to_kwargs_round_trip(self):
        opts = GatewayOptions(max_batch=3, max_wait_ms=1.5, max_pending=7, safety=0.5)
        assert GatewayOptions(**opts.to_kwargs()) == opts

    def test_build_and_from_gateway(self, fitted):
        opts = GatewayOptions(max_batch=5, max_pending=9)
        with Service(fitted) as svc:
            gw = opts.build(svc)
            assert isinstance(gw, Gateway)
            assert GatewayOptions.from_gateway(gw) == opts


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
            async with opts.build(svc) as gw:
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
            async with opts.build(svc) as gw:
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
            async with opts.build(svc) as gw:
                return (await gw.submit(data, 8.0)).error_bound

        with Service(fitted) as svc:
            assert _run(main(svc)) == direct


class TestAdmissionControl:
    def test_over_cap_rejected_with_typed_error(self, fitted, train_fields):
        data = train_fields[0].data

        async def main(svc):
            opts = GatewayOptions(max_batch=4, max_wait_ms=50.0, max_pending=4)
            async with opts.build(svc) as gw:
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
            async with opts.build(svc) as gw:
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
            gw = opts.build(svc)
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
        assert set(d) == {"requests", "batches", "cache", "pool"}


class TestWorkloadModels:
    def test_open_loop_schedule_seeded(self):
        wl = OpenLoopPoisson(rate=100.0, n_requests=50, n_fields=3, seed=11)
        a, b = wl.schedule(), wl.schedule()
        assert a == b
        other = OpenLoopPoisson(rate=100.0, n_requests=50, n_fields=3, seed=12)
        assert other.schedule() != a
        assert len(a) == 50
        assert all(0 <= r.field < 3 for r in a)
        assert all(r.target_ratio in wl.ratios for r in a)
        # exponential gaps with mean 1/rate: the sample mean is near 10ms
        assert np.mean([r.gap_s for r in a]) == pytest.approx(0.01, rel=0.5)
        assert wl.name == "open-poisson@100rps"

    def test_closed_loop_schedule_seeded(self):
        wl = ClosedLoopClients(
            n_clients=4, requests_per_client=5, n_fields=2, seed=3
        )
        scripts = wl.schedule()
        assert scripts == wl.schedule()
        assert len(scripts) == 4 and all(len(s) == 5 for s in scripts)
        assert all(r.gap_s == 0.0 for s in scripts for r in s)  # no think time
        assert wl.name == "closed-4clients"

    def test_validation(self):
        with pytest.raises(ValueError):
            OpenLoopPoisson(rate=0.0, n_requests=1, n_fields=1)
        with pytest.raises(ValueError):
            OpenLoopPoisson(rate=1.0, n_requests=0, n_fields=1)
        with pytest.raises(ValueError):
            ClosedLoopClients(n_clients=0, requests_per_client=1, n_fields=1)
        with pytest.raises(ValueError):
            ClosedLoopClients(
                n_clients=1, requests_per_client=1, n_fields=1, think_ms=-1.0
            )

    def test_measurement_properties(self):
        m = Measurement(
            outcomes=["ok", "rejected", "ok"],
            latencies_s=[0.010, 0.030],
            error_bounds=[1.0, None, 2.0],
            wall_s=2.0,
        )
        assert m.completed == 2 and m.rejected == 1
        assert m.throughput_rps == pytest.approx(1.0)
        assert m.rejection_rate == pytest.approx(1 / 3)
        assert m.percentile_ms(50) == pytest.approx(20.0)
        assert Measurement().percentile_ms(99) == 0.0

    def test_drivers_preserve_script_order(self, fitted, train_fields):
        datas = [f.data for f in train_fields]
        open_wl = OpenLoopPoisson(
            rate=500.0, n_requests=8, n_fields=len(datas), seed=5
        )
        closed_wl = ClosedLoopClients(
            n_clients=2, requests_per_client=4, n_fields=len(datas), seed=5
        )
        with Service(fitted) as svc:
            reference_open = [
                svc.predict(datas[r.field], r.target_ratio).error_bound
                for r in open_wl.schedule()
            ]
            reference_closed = [
                svc.predict(datas[r.field], r.target_ratio).error_bound
                for s in closed_wl.schedule()
                for r in s
            ]

        async def main(svc, wl):
            async with Gateway(svc, options=GatewayOptions(max_batch=4)) as gw:
                if isinstance(wl, OpenLoopPoisson):
                    return await drive_open_loop(gw, datas, wl.schedule())
                return await drive_closed_loop(gw, datas, wl.schedule())

        with Service(fitted) as svc:
            m_open = _run(main(svc, open_wl))
        with Service(fitted) as svc:
            m_closed = _run(main(svc, closed_wl))
        assert m_open.error_bounds == reference_open
        assert m_closed.error_bounds == reference_closed
        assert m_open.completed == 8 and m_closed.completed == 8


class TestRunTable:
    def test_enumerates_sweep_with_distinct_seeds(self):
        specs = build_run_table(
            open_rates=(10.0, 20.0), closed_clients=(1, 4),
            n_requests=16, repetitions=3, base_seed=42,
        )
        assert len(specs) == 12
        assert len({s.seed for s in specs}) == 12
        assert {s.topology for s in specs} == {"open", "closed"}
        assert {s.repetition for s in specs} == {0, 1, 2}
        opens = [s for s in specs if s.topology == "open"]
        assert all(s.scenario.startswith("open-poisson@") for s in opens)

    def test_repetitions_validated(self):
        with pytest.raises(ValueError):
            build_run_table(open_rates=(1.0,), n_requests=4, repetitions=0)

    def test_execute_run_open_and_closed(self, fitted, train_fields):
        datas = [f.data for f in train_fields]
        for spec in (
            RunSpec(scenario="open-poisson@200rps", topology="open",
                    load=200.0, n_requests=8, repetition=0, seed=1),
            RunSpec(scenario="closed-2clients", topology="closed",
                    load=2.0, n_requests=8, repetition=0, seed=2),
        ):
            result = execute_run(
                fitted, spec, datas,
                service_options=ServiceOptions(cache_entries=32),
                gateway_options=GatewayOptions(max_batch=4, max_pending=64),
            )
            row = result.row()
            assert row["scenario"] == spec.scenario
            assert row["completed"] + row["rejected"] == row["requests"]
            assert row["completed"] > 0
            assert row["throughput_rps"] > 0
            assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
            assert 0.0 <= row["cache_hit_rate"] <= 1.0
            assert result.gateway.batches == row["batches"]

    def test_unknown_topology_rejected(self, fitted, train_fields):
        spec = RunSpec(scenario="x", topology="sideways", load=1.0,
                       n_requests=2, repetition=0, seed=0)
        with pytest.raises(ValueError, match="topology"):
            execute_run(fitted, spec, [train_fields[0].data])


class TestBench:
    def test_identity_gate_passes_on_real_service(self, fitted, train_fields):
        datas = [f.data for f in train_fields[:2]]
        verdict = run_identity_gate(
            fitted, datas, n_requests=8, seed=0,
            batch_configs=((1, 0.0), (4, 2.0)),
        )
        assert verdict["identical"] is True
        assert set(verdict["configs"]) == {"batch1-wait0ms", "batch4-wait2ms"}
        for cfg in verdict["configs"].values():
            assert cfg["identical"] is True
            assert cfg["batches"] >= 1

    def test_find_saturation_locates_first_unsustained_level(self):
        def row(rate, thru, rej):
            return {"topology": "open", "load": rate,
                    "throughput_rps": thru, "rejection_rate": rej}

        rows = [
            row(10.0, 9.8, 0.0), row(10.0, 9.9, 0.0),   # sustained
            row(20.0, 19.5, 0.005),                     # sustained
            row(40.0, 25.0, 0.2),                       # broken: thru + shed
            row(80.0, 26.0, 0.5),                       # broken
            {"topology": "closed", "load": 4.0,         # ignored
             "throughput_rps": 1.0, "rejection_rate": 0.0},
        ]
        sat = find_saturation(rows)
        assert sat["reached"] is True
        assert sat["saturation_offered_rps"] == 40.0
        assert sat["last_sustained_rps"] == 20.0
        assert sat["peak_rps"] == pytest.approx(26.0)
        assert [lv["sustained"] for lv in sat["levels"]] == [True, True, False, False]

    def test_find_saturation_not_reached(self):
        rows = [{"topology": "open", "load": 5.0,
                 "throughput_rps": 5.0, "rejection_rate": 0.0}]
        sat = find_saturation(rows)
        assert sat["reached"] is False
        assert sat["saturation_offered_rps"] is None
        assert sat["last_sustained_rps"] == 5.0

    def test_field_pool_deterministic(self):
        a = build_field_pool(shape=SHAPE, n_fields=2, seed=3)
        b = build_field_pool(shape=SHAPE, n_fields=2, seed=3)
        assert len(a) == 2
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_write_and_load_report(self, tmp_path):
        report = {"schema": "repro.load-bench/v1", "identical": True}
        out = write_report(report, tmp_path / "BENCH_serve.json")
        assert load_report(out) == report
        assert load_report(tmp_path / "missing.json") is None
        # replacing a report appends the old figures to its history
        for commit, capacity in (("aaa", 10.0), ("bbb", 20.0)):
            write_report({**report, "commit": commit, "capacity_rps": capacity}, out)
        assert load_report(out)["capacity_rps"] == 20.0
        assert [(h["commit"], h["capacity_rps"]) for h in load_report(out)["history"]] == [
            (None, None), ("aaa", 10.0)
        ]
        (tmp_path / "bad.json").write_text('{"schema": "other/v1"}')
        assert load_report(tmp_path / "bad.json") is None
