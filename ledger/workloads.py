"""The five workloads: fixtures, timed ops and output checks.

Everything here reaches the program through ``repro.api`` (plus the
synthetic-data loader the README's own examples use). ``--seed`` feeds
only the generators below — field seeds, shuffles, zipf draws, arrival
gaps; the program sees only the generated inputs. Op counts are fixed
functions of ``--seconds`` (never of the clock), so counts repeat
exactly from run to run.

Shared fixture family. Training set: every second field of ``miranda``,
``nyx`` and ``hurricane`` at ``(16, 32, 32)`` (12 fields, library-default
seeds); model ``Carol(codec, n_iter=3, cv=2)`` — on this training set
the search lands on the same forest as the default ``n_iter=8, cv=3``
in a quarter of the time, which is what lets three set-ups fit in one
run. Evaluation fields: ``miranda, nyx, hurricane, hcci`` at
``(32, 64, 64)`` float32 (512 KiB each), dataset order, seeded from
``--seed`` (the read workloads' fleet always holds the seed-0 fields:
there the seed is the traffic, not the dataset). Store grid
``chunk_shape=(16, 32, 32)``: 8 chunks of 64 KiB per field.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.api import (
    Carol,
    Catalog,
    CatalogOptions,
    ControlOptions,
    Gateway,
    GatewayOptions,
    Service,
    ServiceOptions,
    Store,
    StoreOptions,
)
from repro.data import load_dataset

from ledger import openloop
from ledger.metrics import RUN_SECONDS

TRAIN_DATASETS = ("miranda", "nyx", "hurricane")
TRAIN_SHAPE = (16, 32, 32)
EVAL_DATASETS = ("miranda", "nyx", "hurricane", "hcci")
EVAL_SHAPE = (32, 64, 64)
CHUNK_SHAPE = (16, 32, 32)
FIELD_BYTES = int(np.prod(EVAL_SHAPE)) * 4

PACK_RATIOS = (6, 12, 24)
FLEET = 16
FLEET_RATIO = 8.0
REGION = 24
SERVE_FIELDS = 64
SERVE_RATIOS = (4.0, 8.0, 16.0, 32.0)
SERVE_RATE = 200.0  # req/s offered in segment A, about a third of capacity
BURST = 256  # = GatewayOptions().max_pending, so no burst request is refused
#: Segment A is this many back-to-back sub-segments; latency percentiles are
#: taken per sub-segment and the median one is reported. An open loop turns
#: one stall into a backlog that dozens of requests wait behind, so without
#: this a single hiccup of the host sets the whole run's tail.
SEGMENTS = 3


@dataclass
class Pass:
    """One measured phase: raw per-op records plus the counts read from
    the typed stats the API returns."""

    ops: list[dict]
    counts: dict[str, float] = dc_field(default_factory=dict)
    failed_checks: int = 0  # output checks made after the timed phase


def _record(op_id: int, kind: str, start: float, end: float, failed: int, nbytes: int,
            n: int = 1, **extra) -> dict:
    return {"op_id": op_id, "kind": kind, "start": start, "end": end, "n": n,
            "failed": failed, "ok": failed == 0, "bytes": nbytes, **extra}


def _scaled(nominal: int, seconds: float, floor: int) -> int:
    return max(floor, round(nominal * seconds / RUN_SECONDS))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def training_fields() -> list:
    fields = []
    for ds in TRAIN_DATASETS:
        fields += load_dataset(ds, shape=TRAIN_SHAPE)
    return fields[::2]


def eval_fields(seed: int, n: int) -> list:
    """The first ``n`` evaluation fields, cycling through fresh draws of
    the four datasets when one draw (25 fields) is not enough."""
    fields, draw = [], 0
    while len(fields) < n:
        for k, ds in enumerate(EVAL_DATASETS):
            fields += load_dataset(ds, shape=EVAL_SHAPE, seed=1000 + 100 * int(seed) + 4 * draw + k)
        draw += 1
    return fields[:n]


def _fixture(seed: int, n_eval: int) -> tuple[dict, list, list]:
    """Synthesize the training set and the first ``n_eval`` evaluation
    fields; returns them behind the set-up's timing parts."""
    parts = dict.fromkeys(("synth_s", "fit_collection_s", "fit_training_s", "prepack_s"), 0.0)
    t0 = perf_counter()
    train = training_fields()
    fields = eval_fields(seed, n_eval)
    parts["synth_s"] = perf_counter() - t0
    return parts, train, fields


def _fit(codec: str, train: list, parts: dict) -> Carol:
    model = Carol(codec, n_iter=3, cv=2)
    report = model.fit(train)
    parts["fit_collection_s"] += report.collection_seconds
    parts["fit_training_s"] += report.training_seconds
    return model


def _closed_loop(n_warm: int, n_ops: int, do, tracer, after_warm=None) -> list[dict]:
    """One caller, next op only after the previous one returned.
    ``do(i, op_id)`` times its own op and checks the output afterwards."""
    tracer.op_id = -1
    for i in range(n_warm):
        do(i, -1)
    if after_warm is not None:
        after_warm()
    ops = []
    for op_id in range(n_ops):
        tracer.op_id = op_id
        ops.append(do(n_warm + op_id, op_id))
    tracer.op_id = -1
    return ops


def _cache_counts(before, after) -> dict[str, float]:
    hits, misses = after.hits - before.hits, after.misses - before.misses
    return {
        "serve.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache.evictions": after.evictions - before.evictions,
    }


# -- pack ----------------------------------------------------------------------


class PackWorkload:
    """``Store.pack`` of (field, ratio) pairs, one caller, closed loop."""

    op_bytes = FIELD_BYTES
    warm = 3

    def __init__(self, name: str, why: str, codec: str, control, nominal_ops: int) -> None:
        self.name, self.why, self.codec = name, why, codec
        self.control = control
        self.nominal_ops = nominal_ops

    def setup(self, seed: int, workdir: Path) -> dict:
        parts, train, fields = _fixture(seed, 24)
        model = _fit(self.codec, train, parts)
        pairs = [(fi, r) for fi in range(len(fields)) for r in PACK_RATIOS]
        order = _rng(seed, 1).permutation(len(pairs))
        return {
            "parts": parts,
            "model": model,
            "fields": fields,
            "pairs": [pairs[i] for i in order],
            "options": StoreOptions(chunk_shape=CHUNK_SHAPE, control=self.control),
            "dir": workdir,
            "digests": {},
        }

    def run_pass(self, state: dict, seconds: float, tracer) -> Pass:
        model, fields, pairs = state["model"], state["fields"], state["pairs"]
        options, digests = state["options"], state["digests"]
        totals = dict.fromkeys(
            ("chunks", "waves", "t0", "t1", "t2", "compressions_spent"), 0
        )

        def do(i: int, op_id: int) -> dict:
            fi, ratio = pairs[i % len(pairs)]
            path = state["dir"] / f"{fi:02d}-r{ratio}.rps"
            start = perf_counter()
            try:
                report = Store.pack(path, fields[fi], model, float(ratio), options=options)
            except Exception as exc:  # noqa: BLE001 - a failed op is a data point
                return _record(op_id, "op", start, perf_counter(), 1, FIELD_BYTES,
                               error=repr(exc))
            end = perf_counter()
            # Same inputs must give the same bytes on every pass.
            digest = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
            failed = int(digests.setdefault((fi, ratio), digest) != digest)
            if op_id >= 0:
                totals["chunks"] += report.n_chunks
                totals["waves"] += report.n_waves
                if report.control is not None:
                    for key in ("t0", "t1", "t2", "compressions_spent"):
                        totals[key] += getattr(report.control, key)
            return _record(
                op_id, "op", start, end, failed, FIELD_BYTES,
                ratio_err=abs(report.achieved_ratio / ratio - 1.0),
                file_bytes=report.file_bytes, stored_bytes=report.stored_bytes,
            )

        n_ops = _scaled(self.nominal_ops, seconds, 20)
        ops = _closed_loop(self.warm, n_ops, do, tracer)
        written = {pairs[i % len(pairs)] for i in range(self.warm + n_ops)}
        counts = {
            "store.writer.chunks": totals["chunks"],
            "store.writer.waves": totals["waves"],
            **{f"control.{k}": totals[k] for k in ("t0", "t1", "t2", "compressions_spent")},
        }
        return Pass(ops, counts, failed_checks=self._read_back(state, written))

    @staticmethod
    def _read_back(state: dict, written) -> int:
        """Every packed store read back: ``max|x - x_hat|`` of each chunk
        within the error bound its manifest records. Returns failures."""
        bad = 0
        for fi, ratio in sorted(written):
            data = state["fields"][fi].data
            try:
                with Store(state["dir"] / f"{fi:02d}-r{ratio}.rps") as st:
                    back = st.read()
                    ok = back.shape == data.shape and back.dtype == data.dtype
                    for chunk in st.grid if ok else ():
                        bound = float(st.chunk_entry(chunk.coords)["error_bound"])
                        got = back[chunk.slices]
                        err = np.max(np.abs(got.astype(np.float64)
                                            - data[chunk.slices].astype(np.float64)))
                        # The codec holds the bound in float64; the store then
                        # rounds to the field's float32, which may add half an
                        # ulp of the largest value. Allow that and no more.
                        slack = 0.5 * float(np.spacing(np.abs(got).max()))
                        ok = ok and err <= bound * (1 + 1e-9) + slack
            except Exception:  # noqa: BLE001 - an unreadable store is a failed check
                ok = False
            bad += not ok
        return bad


# -- read ----------------------------------------------------------------------


class ReadWorkload:
    """Reads through a ``Catalog`` over a fleet packed in set-up; every
    result is compared bitwise with a plain uncached ``Store.read``."""

    def setup(self, seed: int, workdir: Path) -> dict:
        # The fleet is the dataset and the seed is the traffic: store contents
        # stay put (sz3's decode cost moves +-10 % with a field's content), the
        # seed drives which stores and regions are asked for, in what order.
        parts, train, fields = _fixture(0, FLEET)
        models = {codec: _fit(codec, train, parts) for codec in ("szx", "sz3")}
        t0 = perf_counter()
        fleet = workdir / "fleet"
        fleet.mkdir(parents=True, exist_ok=True)
        options = StoreOptions(chunk_shape=CHUNK_SHAPE)
        keys, refs = [], []
        for i, f in enumerate(fields):
            key = f"f{i:02d}"
            # One store in four is sz3, whose decode costs ten times szx's: the
            # median op then sits inside the szx mode and the tail inside the
            # sz3 mode, instead of the median straddling the two.
            codec = "sz3" if i % 4 == 1 else "szx"
            Store.pack(fleet / f"{key}.rps", f, models[codec], FLEET_RATIO, options=options)
            with Store(fleet / f"{key}.rps") as st:
                refs.append(st.read())
            keys.append(key)
        parts["prepack_s"] = perf_counter() - t0
        return {"parts": parts, "fleet": fleet, "keys": keys, "refs": refs, "seed": seed}


class ReadZipf(ReadWorkload):
    name = "read-zipf"
    why = ("Random-access region reads, working set twice the chunk cache: the median sits "
           "on the hit path (cache, assemble, catalog), the tail on the miss path "
           "(fetch, checksum, decode).")
    op_bytes = REGION**3 * 4
    cache_bytes = FLEET * FIELD_BYTES // 2
    warm, nominal_ops = 200, 2600

    def run_pass(self, state: dict, seconds: float, tracer) -> Pass:
        n_ops = _scaled(self.nominal_ops, seconds, 200)
        total = self.warm + n_ops
        rng = _rng(state["seed"], 2)
        # Popularity follows store order (f00 hottest): which kind of field and
        # which codec is hot is part of the workload, not of the seed. Every
        # store gets its exact zipf share of the requests and the seed only
        # orders them: an op that misses a whole sz3 store costs 300 hits, so
        # leaving the cold stores' request counts to chance would let a
        # handful of draws move ops_per_s by 10 %.
        weight = 1.0 / np.arange(1, FLEET + 1) ** 1.1
        share = np.floor(total * weight / weight.sum()).astype(int)
        share[: total - share.sum()] += 1
        stores = rng.permutation(np.repeat(np.arange(FLEET), share))
        offsets = np.stack(
            [rng.integers(0, s - REGION + 1, size=total) for s in EVAL_SHAPE], axis=1
        )
        keys, refs = state["keys"], state["refs"]
        options = CatalogOptions(cache_bytes=self.cache_bytes, workers=0)
        snap = {}
        with Catalog(state["fleet"], options=options) as cat:

            def do(i: int, op_id: int) -> dict:
                k = int(stores[i])
                region = tuple(slice(int(o), int(o) + REGION) for o in offsets[i])
                start = perf_counter()
                try:
                    out = cat.read(keys[k], region)
                except Exception as exc:  # noqa: BLE001
                    return _record(op_id, "op", start, perf_counter(), 1, self.op_bytes,
                                   error=repr(exc))
                end = perf_counter()
                failed = int(out.tobytes() != refs[k][region].tobytes())
                return _record(op_id, "op", start, end, failed, self.op_bytes)

            ops = _closed_loop(self.warm, n_ops, do, tracer,
                               lambda: snap.update(cache=cat.stats().cache))
            counts = _cache_counts(snap["cache"], cat.stats().cache)
        return Pass(ops, counts)


class ReadScan(ReadWorkload):
    name = "read-scan"
    why = ("Cold streaming of whole stores through what read-zipf bypasses: the decode pool "
           "(pickle round-trip), prefetch, TileStream back-pressure. The only workload with "
           "worker processes.")
    op_bytes = FIELD_BYTES
    cache_bytes = FLEET * FIELD_BYTES // 4
    warm_passes, nominal_passes = 1, 26

    def run_pass(self, state: dict, seconds: float, tracer) -> Pass:
        n_ops = FLEET * _scaled(self.nominal_passes, seconds, 2)
        warm = FLEET * self.warm_passes
        rng = _rng(state["seed"], 3)
        order = np.concatenate([rng.permutation(FLEET) for _ in range((warm + n_ops) // FLEET)])
        keys, refs = state["keys"], state["refs"]
        options = CatalogOptions(cache_bytes=self.cache_bytes, workers=2, prefetch_depth=2)
        snap, peak = {}, [0]
        with Catalog(state["fleet"], options=options) as cat:

            def do(i: int, op_id: int) -> dict:
                k = int(order[i])
                tiles, first = [], None
                start = perf_counter()
                try:
                    stream = cat.read_iter(keys[k], max_inflight=4)
                    for piece in stream:
                        if first is None:
                            first = perf_counter() - start
                        tiles.append(piece)
                except Exception as exc:  # noqa: BLE001
                    return _record(op_id, "op", start, perf_counter(), 1, self.op_bytes,
                                   error=repr(exc))
                end = perf_counter()
                peak[0] = max(peak[0], stream.stats.peak_inflight_bytes)
                covered = sum(tile.nbytes for _, tile in tiles)
                failed = int(
                    covered != refs[k].nbytes
                    or any(tile.tobytes() != refs[k][sel].tobytes() for sel, tile in tiles)
                )
                return _record(op_id, "op", start, end, failed, self.op_bytes,
                               first_tile=first)

            ops = _closed_loop(warm, n_ops, do, tracer, lambda: snap.update(s=cat.stats()))
            before, after = snap["s"], cat.stats()
            counts = _cache_counts(before.cache, after.cache)
            for key in ("submitted", "fallbacks", "timeouts"):
                counts[f"serve.pool.{key}"] = getattr(after.pool, key) - getattr(before.pool, key)
            for key in ("issued", "hits", "wasted"):
                counts[f"store.prefetch.{key}"] = (
                    getattr(after.prefetch, key) - getattr(before.prefetch, key)
                )
            counts["store.reader.peak_inflight_bytes"] = peak[0]
        return Pass(ops, counts)


# -- serve ---------------------------------------------------------------------


class ServeOpen:
    name = "serve-open"
    why = ("Independent callers asking the gateway for error bounds: open-loop Poisson at 200 "
           "req/s (latency from due time), then bursts of 256 for coalesced capacity. "
           "Touches no codec and no store.")
    op_bytes = FIELD_BYTES
    warm_requests, nominal_requests = 100, 900
    warm_bursts, nominal_bursts = 1, 6

    def setup(self, seed: int, workdir: Path) -> dict:
        parts, train, fields = _fixture(seed, SERVE_FIELDS)
        fields = [f.data for f in fields]
        model = _fit("szx", train, parts)
        # The reference every gateway response is compared with, from a
        # service of its own so the measured one starts cold.
        t0 = perf_counter()
        with Service(model, options=ServiceOptions(cache_entries=16)) as direct:
            table = {
                (i, r): direct.predict(data, r).error_bound
                for i, data in enumerate(fields)
                for r in SERVE_RATIOS
            }
        parts["prepack_s"] = perf_counter() - t0
        return {"parts": parts, "model": model, "fields": fields, "table": table, "seed": seed}

    def run_pass(self, state: dict, seconds: float, tracer) -> Pass:
        return asyncio.run(self._run(state, seconds, tracer))

    async def _run(self, state: dict, seconds: float, tracer) -> Pass:
        fields, table = state["fields"], state["table"]
        n_req = _scaled(self.nominal_requests, seconds, 200)
        n_bursts = _scaled(self.nominal_bursts, seconds, 2)
        rng = _rng(state["seed"], 4)
        weight = 1.0 / np.arange(1, SERVE_FIELDS + 1)
        weight /= weight.sum()
        ranking = rng.permutation(SERVE_FIELDS)

        def draw(n: int):
            return (ranking[rng.choice(SERVE_FIELDS, size=n, p=weight)],
                    rng.choice(np.asarray(SERVE_RATIOS), size=n))

        def wrong(outcome, fi, ratio) -> int:
            if isinstance(outcome, BaseException):  # Overloaded included
                return 1
            return int(outcome.error_bound != table[(int(fi), float(ratio))])

        tracer.op_id = -1
        ops: list[dict] = []
        service = Service(state["model"], options=ServiceOptions(cache_entries=16))
        try:
            async with Gateway(service, options=GatewayOptions()) as gw:

                async def open_loop(n: int):
                    due = np.cumsum(rng.exponential(1.0 / SERVE_RATE, size=n)).tolist()
                    fi, ratio = draw(n)
                    run = await openloop.drive(
                        lambda i: gw.submit(fields[fi[i]], float(ratio[i])), due
                    )
                    return due, fi, ratio, run

                async def burst():
                    fi, ratio = draw(BURST)
                    start = perf_counter()
                    outcomes = await asyncio.gather(
                        *(gw.submit(fields[f], float(r)) for f, r in zip(fi, ratio)),
                        return_exceptions=True,
                    )
                    end = perf_counter()
                    failed = sum(wrong(o, f, r) for o, f, r in zip(outcomes, fi, ratio))
                    return start, end, failed

                await open_loop(self.warm_requests)
                for _ in range(self.warm_bursts):
                    await burst()
                gw0, svc0 = gw.stats(), service.stats()
                tracer.calls.clear()  # count the timed phase only

                due, fi, ratio, (t0, sent, done, outcomes) = await open_loop(n_req)
                for i in range(n_req):
                    ops.append(_record(
                        i, "request", t0 + due[i], t0 + done[i],
                        wrong(outcomes[i], fi[i], ratio[i]), FIELD_BYTES,
                        late=sent[i] - due[i], segment=i * SEGMENTS // n_req,
                    ))
                for b in range(n_bursts):
                    start, end, failed = await burst()
                    ops.append(_record(n_req + b, "burst", start, end, failed,
                                       BURST * FIELD_BYTES, n=BURST))
                gw1, svc1 = gw.stats(), service.stats()
        finally:
            service.close()
        counts = _cache_counts(svc0.cache, svc1.cache)
        batches = gw1.batches - gw0.batches
        counts.update({
            "load.gateway.batches": batches,
            "load.gateway.mean_batch": (
                (gw1.completed + gw1.failed - gw0.completed - gw0.failed) / batches
                if batches else 0.0
            ),
            "load.gateway.flushes_full": gw1.flushes_full - gw0.flushes_full,
            "load.gateway.flushes_timer": gw1.flushes_timer - gw0.flushes_timer,
            "load.gateway.max_queue_depth": gw1.max_queue_depth,
        })
        return Pass(ops, counts)


ALL = (
    PackWorkload(
        "pack-sz3",
        "Codec-bound write, the paper's pure model path (one compression per chunk): sz3 + "
        "encoding + transforms do most of the work, so a fusion or entropy-stage change "
        "shows here, not in pack-szx-ctl.",
        "sz3", None, 120,
    ),
    PackWorkload(
        "pack-szx-ctl",
        "Overhead-bound write with the control plane on: the codec is cheap, so features, "
        "prediction, control (FRaZ probes) and writer bookkeeping dominate; keeps control's "
        "accuracy-for-wall trade honest.",
        "szx", ControlOptions(), 288,
    ),
    ReadZipf(),
    ReadScan(),
    ServeOpen(),
)
BY_NAME = {w.name: w for w in ALL}
