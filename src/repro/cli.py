"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's workflow:

- ``datasets``  — list the synthetic datasets and their fields;
- ``estimate``  — print a ratio-vs-error-bound curve (full compressor,
  SECRE surrogate, or calibrated surrogate);
- ``train``     — fit a framework (CAROL or FXRZ) and save it;
- ``predict``   — predict the error bound for a target ratio with a saved
  model;
- ``compress``  — end-to-end: predict, compress, report achieved ratio;
- ``bench``     — run one named paper experiment and print its table;
- ``serve-bench`` — replay a synthetic request stream through
  ``repro.serve`` and report latency/throughput vs the unbatched
  baseline (exits non-zero if batched results diverge from sequential
  ones or the feature cache never hits);
- ``pack-bench`` — pack one field with ``--workers 1`` and ``--workers N``
  at the same wave size; exits non-zero on any byte divergence (and,
  optionally, below ``--min-speedup``);
- ``codec-bench`` — time the vectorized encoding kernels against their
  frozen scalar references on an SZ3 symbol fixture; exits non-zero on
  byte divergence (or below ``--min-speedup``) and writes the
  commit-stamped report to ``BENCH_codec.json`` at the repo root
  (``--check`` is the tiny CI variant: identity gate only, no file);
- ``read-bench`` — replay a seeded random-subvolume request stream
  through a :class:`repro.api.Catalog` of packed stores, serial vs
  cached vs parallel-with-cache under thread concurrency; exits
  non-zero on any byte divergence from the serial reference and writes
  ``BENCH_read.json`` at the repo root (``--check`` is the tiny CI
  variant: identity gate only, no file);
- ``load-bench`` — sweep offered load (open-loop Poisson rates and
  closed-loop client counts) through the :class:`repro.api.Gateway`
  over a service; exits non-zero if any gateway response diverges
  bitwise from direct ``service.predict`` calls and writes
  ``BENCH_serve.json`` (p50/p95/p99 latency, throughput, rejection
  rate, saturation point) at the repo root (``--check`` is the tiny CI
  variant: identity gate plus a micro sweep, no file);
- ``control-bench`` — pack the same fields with the :mod:`repro.control`
  tier plane ON and OFF: gates that a disabled control plane changes no
  bytes, that controller-ON packs are byte-identical across worker
  counts, and that packing an out-of-distribution field with control ON
  rescues the byte budget (≤10% whole-store drift) where OFF does not;
  writes ``BENCH_control.json`` at the repo root (``--check`` is the
  tiny CI variant: gates only, no file);
- ``trace-summary`` — aggregate a ``--trace`` JSON into a per-stage table.

``train``, ``compress``, ``bench``, and ``serve-bench`` accept ``--trace out.json``:
observability (:mod:`repro.obs`) is enabled for the run and the span
tree plus metrics are written to the given path on exit.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import obs
from repro.compressors.registry import available_compressors
from repro.core.carol import CarolFramework
from repro.core.collection import TrainingCollector
from repro.core.fxrz import FxrzFramework
from repro.data.datasets import DATASET_NAMES, load_dataset, load_field
from repro.utils.serialization import load_framework, save_framework


def _add_trace_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="record an observability trace and write it here")


def _add_common_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("field", help="field path, e.g. miranda/viscosity")
    p.add_argument("--shape", type=int, nargs="+", default=None,
                   help="override the field's grid shape")
    p.add_argument("--seed", type=int, default=None, help="dataset seed")


def _load_field(args):
    kwargs = {}
    if args.shape:
        kwargs["shape"] = tuple(args.shape)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return load_field(args.field, **kwargs)


def cmd_datasets(_args) -> int:
    for name in DATASET_NAMES:
        fields = load_dataset(name, shape=(4, 8, 8) if name != "cesm" else (8, 16))
        names = ", ".join(f.name for f in fields)
        print(f"{name:<10} {len(fields):>2} fields: {names}")
    return 0


def cmd_estimate(args) -> int:
    field = _load_field(args)
    ebs = np.geomspace(args.eb_min, args.eb_max, args.n) * field.value_range
    mode = args.mode
    collector = TrainingCollector(
        args.compressor, mode=mode, rel_error_bounds=np.geomspace(args.eb_min, args.eb_max, args.n),
        calibration_points=args.calibration_points,
    )
    rec = collector.collect_field(field)
    print(f"# {field.path} shape={field.data.shape} compressor={args.compressor} mode={mode}")
    print(f"# collected in {rec.collect_seconds:.3f}s")
    print(f"{'error_bound':>14} {'ratio':>10}")
    for eb, ratio in zip(rec.error_bounds, rec.ratios):
        print(f"{eb:>14.6g} {ratio:>10.3f}")
    return 0


def cmd_train(args) -> int:
    if args.config:
        from repro.core.config import FrameworkConfig

        cfg = FrameworkConfig.load(args.config)
        fw = cfg.build()
        fields = cfg.load_training_fields()
    else:
        fields = []
        for ds in args.datasets:
            kwargs = {"shape": tuple(args.shape)} if args.shape else {}
            fields.extend(load_dataset(ds, **kwargs))
        cls = CarolFramework if args.framework == "carol" else FxrzFramework
        fw = cls(
            compressor=args.compressor,
            rel_error_bounds=np.geomspace(args.eb_min, args.eb_max, args.n),
            n_iter=args.iters,
            cv=args.cv,
        )
    report = fw.fit(fields)
    print(
        f"{fw.name} fitted on {len(fields)} fields: "
        f"collection {report.collection_seconds:.2f}s, "
        f"training {report.training_seconds:.2f}s, {report.n_rows} rows"
    )
    path = save_framework(args.out, fw)
    print(f"saved to {path}")
    return 0


def cmd_predict(args) -> int:
    fw = load_framework(args.model)
    field = _load_field(args)
    pred = fw.predict_error_bound(field.data, args.ratio)
    print(f"predicted error bound: {pred.error_bound:.6g}")
    print(f"(features {np.round(pred.features, 5).tolist()}, "
          f"extraction {pred.feature_seconds*1000:.2f} ms, "
          f"inference {pred.inference_seconds*1000:.2f} ms)")
    return 0


def cmd_compress(args) -> int:
    fw = load_framework(args.model)
    field = _load_field(args)
    result, pred = fw.compress_to_ratio(field.data, args.ratio)
    err = 100.0 * abs(result.ratio - args.ratio) / args.ratio
    print(f"requested ratio : {args.ratio:.2f}")
    print(f"predicted eb    : {pred.error_bound:.6g}")
    print(f"achieved ratio  : {result.ratio:.2f} ({err:.1f}% off)")
    print(f"compressed size : {result.compressed_bytes} bytes "
          f"(from {result.original_bytes})")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(result.payload)
        print(f"payload written to {args.out}")
    return 0


def cmd_serve_bench(args) -> int:
    import time

    from repro.api import FrameworkOptions, Service, ServiceOptions

    if args.model:
        fw = load_framework(args.model)
    else:
        train = load_dataset(args.dataset, shape=tuple(args.shape))
        opts = FrameworkOptions(
            compressor=args.compressor,
            rel_error_bounds=tuple(np.geomspace(args.eb_min, args.eb_max, args.n)),
            n_iter=args.iters,
            cv=2,
        )
        fw = opts.build(args.framework)
        fw.fit(train)

    rng = np.random.default_rng(args.seed)
    pool_fields = load_dataset(args.dataset, shape=tuple(args.shape), seed=args.seed + 1)
    datas = [f.data for f in pool_fields[: max(1, args.fields)]]
    ratio_choices = np.linspace(2.0, 32.0, 7)
    stream = [
        (datas[int(rng.integers(len(datas)))], float(rng.choice(ratio_choices)))
        for _ in range(args.requests)
    ]
    print(
        f"serve-bench: {len(stream)} requests over {len(datas)} unique fields, "
        f"batch={args.batch}, workers={args.workers}, cache={args.cache}"
    )

    # Unbatched baseline: one full predict() per request, no cache.
    base_lat: list[float] = []
    base_ebs: list[float] = []
    t0 = time.perf_counter()
    for data, ratio in stream:
        t = time.perf_counter()
        base_ebs.append(fw.predict_error_bound(data, ratio).error_bound)
        base_lat.append(time.perf_counter() - t)
    base_wall = time.perf_counter() - t0

    # Batched + cached service over the identical stream.
    service = Service(
        fw,
        options=ServiceOptions(
            cache_entries=args.cache,
            workers=args.workers,
            timeout_seconds=args.timeout,
        ),
    )
    serve_lat: list[float] = []
    serve_ebs: list[float] = []
    t0 = time.perf_counter()
    with service:
        for start in range(0, len(stream), args.batch):
            chunk = stream[start : start + args.batch]
            t = time.perf_counter()
            preds = service.predict_batch(chunk)
            elapsed = time.perf_counter() - t
            serve_lat.extend([elapsed / len(chunk)] * len(chunk))
            serve_ebs.extend(p.error_bound for p in preds)
        stats = service.stats()
    serve_wall = time.perf_counter() - t0

    def _line(name: str, lat: list[float], wall: float) -> None:
        p50, p99 = (float(np.percentile(lat, q)) * 1e3 for q in (50, 99))
        print(
            f"{name:<9} {len(lat) / wall:>9.1f} req/s   "
            f"p50 {p50:>8.3f} ms   p99 {p99:>8.3f} ms   (total {wall:.3f}s)"
        )

    _line("baseline", base_lat, base_wall)
    _line("service", serve_lat, serve_wall)
    print(f"speedup   {base_wall / serve_wall:>9.1f}x throughput")
    cache = stats.cache
    print(
        f"cache     {cache.hits} hits / {cache.misses} misses "
        f"({100.0 * cache.hit_rate:.1f}% hit rate), "
        f"{cache.evictions} evictions"
    )
    if args.workers:
        pool = stats.pool
        print(
            f"pool      {pool.completed} tasks, {pool.fallbacks} fallbacks, "
            f"{pool.timeouts} timeouts"
        )

    ok = True
    mismatch = [abs(a - b) for a, b in zip(base_ebs, serve_ebs)]
    if any(m != 0.0 for m in mismatch):
        print(f"FAIL: batched error bounds diverge from baseline (max {max(mismatch):g})")
        ok = False
    else:
        print("error bounds: bitwise-identical to baseline")
    if len(stream) > len(datas) and cache.hits == 0 and args.cache > 0:
        print("FAIL: repeated-field stream produced zero cache hits")
        ok = False
    return 0 if ok else 1


def cmd_load_bench(args) -> int:
    """Gateway saturation benchmark: sweep offered load, gate determinism.

    Trains (or loads) a framework, proves every gateway response is
    bitwise-identical to direct ``service.predict`` calls under several
    coalescing configurations, calibrates the warm batched capacity, and
    sweeps open-loop Poisson rates plus closed-loop client counts,
    writing ``BENCH_serve.json`` with the located saturation point. Exit
    1 on any determinism divergence.

    ``--check`` is the CI mode: a tiny sweep keeps the identity gate
    while dropping the timing cost; nothing is written.
    """
    from repro.load.bench import format_report, run_load_bench, write_report

    if args.model:
        fw = load_framework(args.model)
    else:
        from repro.api import FrameworkOptions

        train = load_dataset(args.dataset, shape=tuple(args.train_shape))
        opts = FrameworkOptions(
            compressor=args.compressor,
            rel_error_bounds=tuple(np.geomspace(args.eb_min, args.eb_max, args.n)),
            n_iter=args.iters,
            cv=2,
        )
        fw = opts.build(args.framework)
        fw.fit(train)

    kwargs = dict(
        shape=tuple(args.shape),
        n_fields=args.fields,
        n_requests=args.requests,
        repetitions=args.reps,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_pending=args.max_pending,
        cache_entries=args.cache,
        seed=args.seed,
    )
    if args.check:
        kwargs.update(
            shape=(8, 12, 12), n_fields=2, n_requests=16, repetitions=1,
            rate_multiples=(0.5, 4.0), closed_clients=(2,),
            identity_requests=12,
        )
    report = run_load_bench(fw, **kwargs)
    print(format_report(report))
    if not report["identical"]:
        bad = [n for n, c in report["identity"]["configs"].items() if not c["identical"]]
        print(f"FAIL: gateway responses diverge from service.predict in: {', '.join(bad)}")
        if not args.check:
            print("report not written (identity gate failed)")
        return 1
    if not args.check:
        out = write_report(report, args.out)
        print(f"report written to {out}")
    return 0


def cmd_control_bench(args) -> int:
    """Paired ON/OFF control-plane benchmark.

    Proves three gates — neutrality (a ``control=None`` pack is
    byte-identical to a plain ``StoreOptions`` pack), determinism
    (controller-ON packs are byte-identical across worker counts at a
    pinned wave size), and rescue (packing an out-of-distribution field
    with control ON lands within 10% whole-store drift where OFF does
    not, within its search budget: at most ``refine_compressions``
    probes per escalated chunk and never more compressions than probes)
    — and reports the fitted ON/OFF wall-time ratio plus the probes and
    real compressions each rescue spent. Writes ``BENCH_control.json``;
    exit 1 when any gate fails.

    ``--check`` is the CI mode: a tiny fixture keeps all the gates while
    dropping the timing cost, and runs a second time on szx, whose
    closed-form probes must leave at most one compression per chunk;
    nothing is written.
    """
    import itertools

    from repro.control.bench import format_report, run_control_bench, write_report

    kwargs = dict(
        shape=tuple(args.shape),
        chunk=tuple(args.chunk),
        ratio=args.ratio,
        wave_size=args.wave_size,
        workers=tuple(args.workers),
        ood_scale=args.ood_scale,
        t2_std=args.t2_std,
        t2_pressure=args.t2_pressure,
        refine_compressions=args.refine_compressions,
        reps=args.reps,
        seed=args.seed,
    )
    if args.check:
        # Target 3, not the full-bench 5: sz3 tops out near ratio 18 on
        # the tiny 512-element chunks, and the un-escalatable first wave
        # (2 of 8 chunks at OOD ratio ~1.2) must leave the closed-loop
        # retargets for the remaining chunks reachable below that
        # ceiling for a rescue to be possible at all.
        kwargs.update(
            shape=(16, 16, 16), chunk=(8, 8, 8), ratio=3.0, wave_size=2,
            workers=(0, 2), reps=1,
        )

    def train(compressor: str):
        from repro.api import FrameworkOptions
        from repro.data import Field, load_field

        # Train on the chunks of a *sibling* field — same generator and
        # shape as the bench fixture, different seed. A packed store
        # predicts per chunk, and chunks of a large field have different
        # statistics than standalone small fields: a model trained on
        # the latter is biased on most chunks, and the fitted scenario
        # would (correctly) escalate everything.
        shape, chunk = kwargs["shape"], kwargs["chunk"]
        sibling = load_field("miranda/pressure", shape=shape, seed=args.seed + 1)
        starts = [range(0, dim, c) for dim, c in zip(shape, chunk)]
        fields = [
            Field(
                dataset="miranda",
                name=f"train-{i}",
                data=np.ascontiguousarray(
                    sibling.data[tuple(slice(s, s + c) for s, c in zip(o, chunk))]
                ),
            )
            for i, o in enumerate(itertools.product(*starts))
        ]
        opts = FrameworkOptions(
            compressor=compressor,
            rel_error_bounds=tuple(np.geomspace(args.eb_min, args.eb_max, args.n)),
            n_iter=args.iters,
            cv=2,
        )
        fw = opts.build(args.framework)
        fw.fit(fields)
        return fw

    if args.model:
        frameworks = [load_framework(args.model)]
    else:
        names = [args.compressor]
        if args.check and "szx" not in names:
            # The codec whose T2 probes are closed-form, so its
            # compression count has a tighter bound (checked below).
            names.append("szx")
        frameworks = [train(name) for name in names]

    for fw in frameworks:
        report = run_control_bench(fw, **kwargs)
        print(format_report(report))
        bad = [name for name, passed in report["gates"].items() if not passed]
        if args.check and fw.compressor_name == "szx":
            spent = report["ood"]["on"]["control"]["compressions_spent"]
            if spent > report["n_chunks"]:
                bad.append(
                    f"szx spent {spent} refine compressions on {report['n_chunks']} "
                    "chunks (closed-form probes must cost one per chunk at most)"
                )
        if bad:
            print(f"FAIL: control-bench gates failed: {', '.join(bad)}")
            if not args.check:
                print("report not written (gates failed)")
            return 1
    if not args.check:
        out = write_report(report, args.out)
        print(f"report written to {out}")
    return 0


def _store_source(args):
    """Resolve a store-pack source: an on-disk raw file (memmapped) or a
    synthetic ``dataset/field`` path."""
    from pathlib import Path

    from repro.store import open_raw

    if Path(args.source).exists():
        if not args.shape:
            raise SystemExit("store-pack: --shape is required for raw file sources")
        return open_raw(args.source, tuple(args.shape), dtype=args.dtype)
    kwargs = {}
    if args.shape:
        kwargs["shape"] = tuple(args.shape)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return load_field(args.source, **kwargs).data


def cmd_store_pack(args) -> int:
    from repro.store import StoreOptions, pack

    fw = load_framework(args.model)
    source = _store_source(args)
    control = None
    if args.control:
        from repro.control import ControlOptions

        control = ControlOptions(
            t2_std=args.t2_std,
            t2_pressure=args.t2_pressure,
            risk_budget=args.risk_budget,
            refine_compressions=args.refine_compressions,
        )
    options = StoreOptions(
        chunk_shape=tuple(args.chunk) if args.chunk else None,
        chunk_elements=args.chunk_elements,
        closed_loop=not args.open_loop,
        safety=args.safety,
        workers=args.workers,
        wave_size=args.wave_size,
        control=control,
    )
    report = pack(args.out, source, fw, args.ratio, options=options)
    print(report.summary())
    worst = max(
        report.chunks, key=lambda c: abs(c.achieved_ratio - c.target_ratio) / c.target_ratio
    )
    print(
        f"chunks: {report.n_chunks} x {options.grid_for(source.shape).chunk_shape}, "
        f"worst chunk {worst.coords} achieved {worst.achieved_ratio:.2f} "
        f"(target {worst.target_ratio:.2f})"
    )
    return 0


def cmd_pack_bench(args) -> int:
    """Serial-vs-parallel ``.rps`` packing comparison.

    Packs one field with ``--workers 1`` and ``--workers N`` at the same
    wave size, asserts the outputs are byte-identical (exit 1 on any
    divergence — the determinism contract of the wave scheduler), and
    reports the wall-clock speedup. ``--min-speedup`` turns the speedup
    into a second failure condition (leave at 0 on single-core boxes,
    where process parallelism cannot win by construction).
    """
    import os
    import time
    from pathlib import Path

    from repro.store import StoreOptions, pack

    if args.model:
        fw = load_framework(args.model)
    else:
        from repro.api import FrameworkOptions

        train = load_dataset(args.dataset, shape=tuple(args.train_shape))
        opts = FrameworkOptions(
            compressor=args.compressor,
            rel_error_bounds=tuple(np.geomspace(args.eb_min, args.eb_max, args.n)),
            n_iter=args.iters,
            cv=2,
        )
        fw = opts.build(args.framework)
        fw.fit(train)

    source = _store_source(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wave = args.wave_size if args.wave_size is not None else 8
    chunk = tuple(args.chunk) if args.chunk else None

    def _pack(workers: int) -> tuple[Path, float, object]:
        path = out_dir / f"pack-bench-w{workers}.rps"
        options = StoreOptions(
            chunk_shape=chunk,
            chunk_elements=args.chunk_elements,
            wave_size=wave,
            workers=workers,
        )
        t0 = time.perf_counter()
        report = pack(path, source, fw, args.ratio, options=options)
        return path, time.perf_counter() - t0, report

    print(
        f"pack-bench: {args.source} shape={tuple(source.shape)} "
        f"compressor={fw.compressor_name} ratio={args.ratio} wave_size={wave} "
        f"(host has {os.cpu_count()} cpus)"
    )
    serial_path, serial_s, serial_report = _pack(1)
    parallel_path, parallel_s, parallel_report = _pack(args.workers)
    print(f"workers=1 {serial_s:>8.3f}s   {serial_report.summary()}")
    print(f"workers={args.workers} {parallel_s:>7.3f}s   {parallel_report.summary()}")

    ok = True
    if serial_path.read_bytes() != parallel_path.read_bytes():
        print(
            f"FAIL: workers={args.workers} output diverges from workers=1 "
            "(wave determinism broken)"
        )
        ok = False
    else:
        print(f"outputs byte-identical across worker counts ({serial_path.stat().st_size} bytes)")
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(f"speedup   {speedup:>8.2f}x wall-clock at {args.workers} workers")
    if args.min_speedup > 0 and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup:.2f}x")
        ok = False
    return 0 if ok else 1


def cmd_codec_bench(args) -> int:
    """Vectorized-vs-reference encoding kernel benchmark.

    Times encode and decode of every codec in :mod:`repro.encoding` against
    the frozen scalar oracles in :mod:`repro.encoding.reference` on a
    deterministic SZ3 symbol-stream fixture, diffing payloads byte-for-byte,
    and records absolute whole-compressor rows (sz3/szx/sperr throughput,
    peak working set, stage breakdown) with a round-trip check against the
    error bound. Exit 1 on any kernel divergence, on a round trip outside
    the bound, or when the composed SZ3 lossless stage falls below
    ``--min-speedup``.

    ``--check`` is the CI mode: a tiny fixture and one rep keep the
    kernel identity gates and the round-trip check while dropping the
    timing cost; nothing is written.
    """
    from repro.bench.codec_bench import format_report, run_codec_bench, write_report

    shape = tuple(args.shape)
    reps = args.reps
    if args.check:
        shape = (16, 16, 16)
        reps = 1
    report = run_codec_bench(
        args.field, shape, rel_eb=args.rel_eb, reps=reps, seed=args.seed
    )
    print(format_report(report))
    ok = True
    bad = [n for n, c in report["codecs"].items() if not c["identical"]]
    if bad:
        print(f"FAIL: byte divergence from reference in: {', '.join(bad)}")
        ok = False
    bad = [n for n, c in report["compressors"].items() if not c["within_bound"]]
    if bad:
        print(f"FAIL: round trip exceeds the error bound in: {', '.join(bad)}")
        ok = False
    if not args.check:
        gate = report["codecs"]["sz3_lossless"]["speedup_total"]
        if args.min_speedup > 0 and gate < args.min_speedup:
            print(
                f"FAIL: sz3_lossless speedup {gate:.2f}x below "
                f"required {args.min_speedup:.2f}x"
            )
            ok = False
        if ok:
            out = write_report(report, args.out)
            print(f"report written to {out}")
        else:
            print("report not written (gates failed)")
    return 0 if ok else 1


def cmd_read_bench(args) -> int:
    """Concurrent sharded-read benchmark over a store catalog.

    Packs a fixture of ``.rps`` stores, replays one seeded
    random-subvolume request stream through serial, cached, and
    parallel-with-cache catalog configurations, and digest-compares every
    response to the serial reference; then streams a full-store scan of
    every fixture store through ``read_iter`` (cold cache, prefetch on)
    and digest-compares the assembled tiles to a materialized ``read()``.
    Exit 1 on any byte divergence, or if a stream's peak resident bytes
    exceed twice its ``max_inflight`` tile budget.

    ``--check`` is the CI mode: a tiny fixture keeps the byte-identity
    and bounded-memory gates while dropping the timing cost, and fails
    if a configuration with workers sent them nothing (its chunks sit
    exactly at ``store.reader.POOL_MIN_CHUNK_BYTES``); nothing is
    written.
    """
    from repro.bench.read_bench import format_report, run_read_bench, write_report

    if args.model:
        fw = load_framework(args.model)
    else:
        from repro.api import FrameworkOptions

        train = load_dataset(args.dataset, shape=tuple(args.train_shape))
        opts = FrameworkOptions(
            compressor=args.compressor,
            rel_error_bounds=tuple(np.geomspace(args.eb_min, args.eb_max, args.n)),
            n_iter=args.iters,
            cv=2,
        )
        fw = opts.build(args.framework)
        fw.fit(train)

    kwargs = dict(
        n_stores=args.stores,
        shape=tuple(args.shape),
        chunk=tuple(args.chunk),
        ratio=args.ratio,
        n_reads=args.reads,
        read_shape=tuple(args.read_shape),
        workers=args.workers,
        cache_bytes=args.cache_bytes,
        concurrency=args.concurrency,
        max_inflight=args.max_inflight,
        seed=args.seed,
    )
    if args.check:
        # Two chunks of exactly POOL_MIN_CHUNK_BYTES per store, every
        # request straddling both: the smallest fixture whose decodes
        # still reach the workers.
        kwargs.update(
            n_stores=2, shape=(32, 64, 128), chunk=(32, 64, 64),
            n_reads=12, read_shape=(8, 8, 72), workers=min(args.workers, 2),
        )
    report = run_read_bench(fw, **kwargs)
    print(format_report(report))
    ok = True
    if args.check:
        idle = [
            name
            for name, c in [*report["configs"].items(), ("streaming", report["streaming"])]
            if c["workers"] > 0 and c["pool_submitted"] == 0
        ]
        if idle:
            print(f"FAIL: workers configured but no decode reached them in: {', '.join(idle)}")
            ok = False
    if not report["identical"]:
        bad = [n for n, c in report["configs"].items() if not c["identical"]]
        if not report["streaming"]["identical"]:
            bad.append("streaming")
        print(f"FAIL: byte divergence from reference in: {', '.join(bad)}")
        ok = False
    if not report["streaming"]["bounded"]:
        s = report["streaming"]
        print(
            f"FAIL: streaming peak resident bytes {s['peak_resident_bytes']} "
            f"exceed 2x budget {s['budget_bytes']}"
        )
        ok = False
    if not ok:
        if not args.check:
            print("report not written (gates failed)")
        return 1
    if not args.check:
        out = write_report(report, args.out)
        print(f"report written to {out}")
    return 0


def cmd_store_info(args) -> int:
    from repro.store import Store

    with Store(args.store, verify=False) as st:
        info = st.info()
        for key in (
            "path", "shape", "dtype", "compressor", "chunk_shape", "grid_shape",
            "n_chunks", "original_bytes", "stored_bytes", "target_ratio",
            "achieved_ratio", "closed_loop",
        ):
            value = info[key]
            if isinstance(value, float):
                value = f"{value:.3f}"
            print(f"{key:<16} {value}")
        print(
            f"{'error_bound':<16} [{info['error_bound_min']:.6g}, {info['error_bound_max']:.6g}]"
        )
        print(
            f"{'chunk_ratio':<16} [{info['chunk_ratio_min']:.3f}, {info['chunk_ratio_max']:.3f}]"
        )
        if args.chunks:
            print(f"{'coords':<14} {'offset':>10} {'nbytes':>9} {'error_bound':>13} "
                  f"{'target':>8} {'achieved':>9}")
            for entry in st.manifest["chunks"]:
                print(
                    f"{str(tuple(entry['coords'])):<14} {entry['offset']:>10} "
                    f"{entry['nbytes']:>9} {entry['error_bound']:>13.6g} "
                    f"{entry['target_ratio']:>8.2f} {entry['achieved_ratio']:>9.2f}"
                )
    return 0


def cmd_store_unpack(args) -> int:
    from repro.store import Store

    with Store(args.store) as st:
        data = st.read()  # verifies every chunk checksum on the way
        print(
            f"unpacked {st.path.name}: shape {st.shape}, dtype {st.dtype}, "
            f"{st.n_chunks} chunks, achieved ratio {st.achieved_ratio:.2f}"
        )
        if args.out:
            from repro.data.fields import Field
            from repro.data.io import save_raw

            out = save_raw(Field("store", "unpacked", data), args.out)
            print(f"raw field written to {out}")
        if args.verify_against:
            original = np.fromfile(args.verify_against, dtype=st.dtype).reshape(st.shape)
            worst_excess = 0.0
            for entry in st.manifest["chunks"]:
                chunk = st.grid.chunk_at(tuple(entry["coords"]))
                err = float(
                    np.max(
                        np.abs(
                            data[chunk.slices].astype(np.float64)
                            - original[chunk.slices].astype(np.float64)
                        )
                    )
                )
                bound = float(entry["error_bound"]) * (1.0 + 1e-9)
                worst_excess = max(worst_excess, err - bound)
                if err > bound:
                    print(
                        f"FAIL: chunk {tuple(entry['coords'])} error {err:.6g} exceeds "
                        f"bound {entry['error_bound']:.6g}"
                    )
                    return 1
            print("round-trip error within every chunk's recorded bound")
    return 0


def cmd_trace_summary(args) -> int:
    try:
        payload = obs.load_trace(args.trace_file)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read trace {args.trace_file!r}: {exc}", file=sys.stderr)
        return 2
    print(obs.format_summary(payload["spans"], payload.get("metrics")))
    return 0


def cmd_bench(args) -> int:
    from repro.bench import experiments, experiments_model
    from repro.bench.harness import get_scale

    registry = {}
    for mod in (experiments, experiments_model):
        for name in dir(mod):
            if name.startswith(("fig", "tab", "ablation")):
                registry[name] = getattr(mod, name)
    if args.experiment not in registry:
        print(f"unknown experiment {args.experiment!r}; available:", file=sys.stderr)
        for name in sorted(registry):
            print(f"  {name}", file=sys.stderr)
        return 2
    print(registry[args.experiment](get_scale()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CAROL ratio-controlled compression (ICPP'24 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list synthetic datasets").set_defaults(func=cmd_datasets)

    p = sub.add_parser("estimate", help="print a ratio-vs-error-bound curve")
    _add_common_field_args(p)
    p.add_argument("--compressor", choices=available_compressors(), default="sz3")
    p.add_argument("--mode", choices=("full", "secre", "calibrated"), default="calibrated")
    p.add_argument("--eb-min", type=float, default=1e-3)
    p.add_argument("--eb-max", type=float, default=1e-1)
    p.add_argument("-n", type=int, default=10, help="grid size")
    p.add_argument("--calibration-points", type=int, default=4)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("train", help="fit a framework and save it")
    p.add_argument("--config", default=None,
                   help="JSON FrameworkConfig; overrides the flags below")
    p.add_argument("--framework", choices=("carol", "fxrz"), default="carol")
    p.add_argument("--compressor", choices=available_compressors(), default="sz3")
    p.add_argument("--datasets", nargs="+", default=["miranda"])
    p.add_argument("--shape", type=int, nargs="+", default=None)
    p.add_argument("--eb-min", type=float, default=1e-3)
    p.add_argument("--eb-max", type=float, default=1e-1)
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--iters", type=int, default=6)
    p.add_argument("--cv", type=int, default=3)
    p.add_argument("--out", required=True, help="output .npz model path")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict an error bound for a target ratio")
    p.add_argument("--model", required=True)
    p.add_argument("--ratio", type=float, required=True)
    _add_common_field_args(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compress", help="compress a field to a target ratio")
    p.add_argument("--model", required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--out", default=None, help="write the payload here")
    _add_common_field_args(p)
    _add_trace_arg(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("bench", help="run one paper experiment")
    p.add_argument("experiment", help="e.g. fig2_surrogate_curves, tab5_calibration")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "serve-bench",
        help="replay a synthetic request stream through the serving layer",
    )
    p.add_argument("--model", default=None, help="saved .npz framework; trains one if omitted")
    p.add_argument("--framework", choices=("carol", "fxrz"), default="carol")
    p.add_argument("--compressor", choices=available_compressors(), default="szx")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="miranda")
    p.add_argument("--shape", type=int, nargs="+", default=[12, 16, 16])
    p.add_argument("--requests", type=int, default=200, help="stream length")
    p.add_argument("--fields", type=int, default=4, help="distinct fields in the stream")
    p.add_argument("--batch", type=int, default=16, help="requests per predict_batch call")
    p.add_argument("--workers", type=int, default=0, help="worker processes (0 = in-process)")
    p.add_argument("--cache", type=int, default=256, help="feature-cache entries (0 disables)")
    p.add_argument("--timeout", type=float, default=30.0, help="per-task worker timeout (s)")
    p.add_argument("--eb-min", type=float, default=1e-3)
    p.add_argument("--eb-max", type=float, default=1e-1)
    p.add_argument("-n", type=int, default=5, help="training error-bound grid size")
    p.add_argument("--iters", type=int, default=4, help="training search iterations")
    p.add_argument("--seed", type=int, default=0)
    _add_trace_arg(p)
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser(
        "store-pack",
        help="pack a field into a chunked .rps store under a byte budget",
    )
    p.add_argument("source", help="raw file path (with --shape) or synthetic dataset/field")
    p.add_argument("--model", required=True, help="saved .npz framework")
    p.add_argument("--ratio", type=float, required=True, help="whole-store target ratio")
    p.add_argument("--out", required=True, help="output .rps path")
    p.add_argument("--shape", type=int, nargs="+", default=None,
                   help="grid shape (required for raw file sources)")
    p.add_argument("--dtype", default="float32", help="raw source dtype")
    p.add_argument("--seed", type=int, default=None, help="synthetic dataset seed")
    p.add_argument("--chunk", type=int, nargs="+", default=None, help="chunk shape")
    p.add_argument("--chunk-elements", type=int, default=32768,
                   help="target elements per chunk when --chunk is omitted")
    p.add_argument("--open-loop", action="store_true",
                   help="disable closed-loop budget redistribution")
    p.add_argument("--safety", type=float, default=0.0,
                   help="prediction bias toward overshooting each chunk's ratio")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes per wave (0 = in-process)")
    p.add_argument("--wave-size", type=int, default=None,
                   help="chunks per closed-loop re-target wave "
                        "(default: 1 without workers, 8 with)")
    p.add_argument("--control", action="store_true",
                   help="enable the repro.control tier plane: low-confidence or "
                        "budget-drifting chunks escalate to warm FRaZ refinement")
    p.add_argument("--t2-std", type=float, default=0.25,
                   help="model spread (log-eb std) at which a chunk escalates")
    p.add_argument("--t2-pressure", type=float, default=0.10,
                   help="committed budget drift at which chunks escalate")
    p.add_argument("--risk-budget", type=int, default=16,
                   help="max escalations per pack (consumed in chunk order)")
    p.add_argument("--refine-compressions", type=int, default=4,
                   help="probe cap per escalated chunk (a probe is a real "
                        "compression unless the codec sizes in closed form)")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_store_pack)

    p = sub.add_parser(
        "pack-bench",
        help="pack the same field with 1 and N workers; fail on byte divergence",
    )
    p.add_argument("source", nargs="?", default="miranda/pressure",
                   help="raw file path (with --shape) or synthetic dataset/field")
    p.add_argument("--model", default=None, help="saved .npz framework; trains one if omitted")
    p.add_argument("--framework", choices=("carol", "fxrz"), default="carol")
    p.add_argument("--compressor", choices=available_compressors(), default="sz3")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="miranda",
                   help="training dataset when no --model is given")
    p.add_argument("--train-shape", type=int, nargs="+", default=[16, 32, 64],
                   help="training field shape (chunk-sized) when training")
    p.add_argument("--ratio", type=float, default=10.0, help="whole-store target ratio")
    p.add_argument("--shape", type=int, nargs="+", default=[64, 128, 128],
                   help="bench field shape (required for raw file sources)")
    p.add_argument("--dtype", default="float32", help="raw source dtype")
    p.add_argument("--seed", type=int, default=3, help="synthetic dataset seed")
    p.add_argument("--chunk", type=int, nargs="+", default=None, help="chunk shape")
    p.add_argument("--chunk-elements", type=int, default=32768,
                   help="target elements per chunk when --chunk is omitted")
    p.add_argument("--workers", type=int, default=4, help="parallel worker count")
    p.add_argument("--wave-size", type=int, default=None, help="chunks per wave (default 8)")
    p.add_argument("--out-dir", default=".", help="where the two .rps files land")
    p.add_argument("--min-speedup", type=float, default=0.0,
                   help="also fail unless parallel is at least this much faster "
                        "(0 disables; keep 0 on single-core machines)")
    p.add_argument("--eb-min", type=float, default=1e-3)
    p.add_argument("--eb-max", type=float, default=3e-1)
    p.add_argument("-n", type=int, default=6, help="training error-bound grid size")
    p.add_argument("--iters", type=int, default=4, help="training search iterations")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_pack_bench)

    p = sub.add_parser(
        "codec-bench",
        help="time vectorized encoding kernels vs their scalar references; "
             "fail on byte divergence",
    )
    p.add_argument("field", nargs="?", default="miranda/viscosity",
                   help="synthetic dataset/field used to build the symbol fixture")
    p.add_argument("--shape", type=int, nargs="+", default=[64, 64, 64],
                   help="fixture field shape")
    p.add_argument("--rel-eb", type=float, default=1e-3,
                   help="relative error bound of the fixture compression")
    p.add_argument("--reps", type=int, default=7,
                   help="timing repetitions (best-of, interleaved with reference)")
    p.add_argument("--seed", type=int, default=None, help="synthetic dataset seed")
    p.add_argument("--out", default=None,
                   help="report path (default: BENCH_codec.json at the repo root)")
    p.add_argument("--min-speedup", type=float, default=0.0,
                   help="fail unless the composed sz3_lossless stage is at least "
                        "this much faster than the reference (0 disables)")
    p.add_argument("--check", action="store_true",
                   help="CI mode: tiny fixture, one rep, kernel identity gates "
                        "and compressor round-trip check only, no report written")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_codec_bench)

    p = sub.add_parser(
        "read-bench",
        help="replay random subvolume reads through a store catalog; "
             "fail on byte divergence from the serial reference",
    )
    p.add_argument("--model", default=None, help="saved .npz framework; trains one if omitted")
    p.add_argument("--framework", choices=("carol", "fxrz"), default="carol")
    p.add_argument("--compressor", choices=available_compressors(), default="szx")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="miranda",
                   help="training dataset when no --model is given")
    p.add_argument("--train-shape", type=int, nargs="+", default=[16, 32, 64],
                   help="training field shape (chunk-sized) when training")
    p.add_argument("--stores", type=int, default=3, help="stores in the fixture catalog")
    p.add_argument("--shape", type=int, nargs="+", default=[32, 48, 48],
                   help="fixture field shape")
    p.add_argument("--chunk", type=int, nargs="+", default=[8, 16, 16],
                   help="fixture chunk shape")
    p.add_argument("--ratio", type=float, default=8.0, help="fixture pack target ratio")
    p.add_argument("--reads", type=int, default=48, help="subvolume requests in the stream")
    p.add_argument("--read-shape", type=int, nargs="+", default=[16, 24, 24],
                   help="subvolume request shape")
    p.add_argument("--workers", type=int, default=2,
                   help="decode worker processes in the parallel configuration")
    p.add_argument("--cache-bytes", type=int, default=64 << 20,
                   help="shared chunk-cache budget in the cached configurations")
    p.add_argument("--concurrency", type=int, default=4,
                   help="concurrent reader threads in the cached configurations")
    p.add_argument("--max-inflight", type=int, default=4,
                   help="look-ahead tile bound in the streaming scenario")
    p.add_argument("--seed", type=int, default=0, help="fixture + request stream seed")
    p.add_argument("--out", default=None,
                   help="report path (default: BENCH_read.json at the repo root)")
    p.add_argument("--eb-min", type=float, default=1e-3)
    p.add_argument("--eb-max", type=float, default=3e-1)
    p.add_argument("-n", type=int, default=6, help="training error-bound grid size")
    p.add_argument("--iters", type=int, default=4, help="training search iterations")
    p.add_argument("--check", action="store_true",
                   help="CI mode: tiny fixture, identity gate only, no report written")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_read_bench)

    p = sub.add_parser(
        "load-bench",
        help="sweep offered load through the async gateway; "
             "fail if responses diverge from direct service.predict",
    )
    p.add_argument("--model", default=None, help="saved .npz framework; trains one if omitted")
    p.add_argument("--framework", choices=("carol", "fxrz"), default="carol")
    p.add_argument("--compressor", choices=available_compressors(), default="szx")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="miranda",
                   help="training dataset when no --model is given")
    p.add_argument("--train-shape", type=int, nargs="+", default=[12, 16, 16],
                   help="training field shape when training")
    p.add_argument("--shape", type=int, nargs="+", default=[12, 16, 16],
                   help="request field shape")
    p.add_argument("--fields", type=int, default=4, help="distinct fields in the stream")
    p.add_argument("--requests", type=int, default=120, help="requests per run")
    p.add_argument("--reps", type=int, default=2, help="repetitions per sweep cell")
    p.add_argument("--max-batch", type=int, default=16, help="gateway coalescing batch cap")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="gateway coalescing linger window")
    p.add_argument("--max-pending", type=int, default=64,
                   help="admission cap (queued + in-flight requests)")
    p.add_argument("--cache", type=int, default=256, help="feature-cache entries")
    p.add_argument("--eb-min", type=float, default=1e-3)
    p.add_argument("--eb-max", type=float, default=1e-1)
    p.add_argument("-n", type=int, default=5, help="training error-bound grid size")
    p.add_argument("--iters", type=int, default=4, help="training search iterations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="report path (default: BENCH_serve.json at the repo root)")
    p.add_argument("--check", action="store_true",
                   help="CI mode: tiny sweep, identity gate only, no report written")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_load_bench)

    p = sub.add_parser(
        "control-bench",
        help="paired ON/OFF control-plane benchmark; fail on byte divergence "
             "or when the OOD rescue misses its drift gate",
    )
    p.add_argument("--model", default=None, help="saved .npz framework; trains one if omitted")
    p.add_argument("--framework", choices=("carol", "fxrz"), default="carol")
    p.add_argument("--compressor", choices=available_compressors(), default="sz3")
    p.add_argument("--shape", type=int, nargs="+", default=[48, 32, 32],
                   help="bench field shape")
    p.add_argument("--chunk", type=int, nargs="+", default=[8, 16, 16],
                   help="chunk shape")
    p.add_argument("--ratio", type=float, default=5.0, help="whole-store target ratio")
    p.add_argument("--wave-size", type=int, default=4, help="chunks per wave (pinned)")
    p.add_argument("--workers", type=int, nargs="+", default=[0, 2],
                   help="worker counts the determinism gate packs with")
    p.add_argument("--ood-scale", type=float, default=1e3,
                   help="amplitude scale of the out-of-distribution field")
    p.add_argument("--t2-std", type=float, default=0.5,
                   help="model spread (log-eb std) at which a chunk escalates")
    p.add_argument("--t2-pressure", type=float, default=0.2,
                   help="observed pressure (budget drift or recent per-chunk "
                        "error) at which chunks escalate")
    p.add_argument("--refine-compressions", type=int, default=6,
                   help="probe cap per escalated chunk (a probe is a real "
                        "compression unless the codec sizes in closed form)")
    p.add_argument("--reps", type=int, default=3,
                   help="timing repetitions for the fitted wall comparison (best-of)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eb-min", type=float, default=1e-3)
    p.add_argument("--eb-max", type=float, default=3e-1)
    p.add_argument("-n", type=int, default=6, help="training error-bound grid size")
    p.add_argument("--iters", type=int, default=4, help="training search iterations")
    p.add_argument("--out", default=None,
                   help="report path (default: BENCH_control.json at the repo root)")
    p.add_argument("--check", action="store_true",
                   help="CI mode: tiny fixture, gates only, no report written")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_control_bench)

    p = sub.add_parser("store-info", help="print a store's manifest summary")
    p.add_argument("store", help=".rps path")
    p.add_argument("--chunks", action="store_true", help="also list every chunk")
    p.set_defaults(func=cmd_store_info)

    p = sub.add_parser(
        "store-unpack",
        help="decompress a .rps store (verifying checksums) back to a raw field",
    )
    p.add_argument("store", help=".rps path")
    p.add_argument("--out", default=None, help="write the raw binary field here")
    p.add_argument("--verify-against", default=None, metavar="RAW",
                   help="raw original; exit non-zero unless every element is "
                        "within its chunk's recorded error bound")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_store_unpack)

    p = sub.add_parser("trace-summary",
                       help="print a per-stage table from a --trace JSON")
    p.add_argument("trace_file", help="path written by --trace")
    p.set_defaults(func=cmd_trace_summary)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return args.func(args)
    recorder = obs.enable()
    try:
        return args.func(args)
    finally:
        obs.disable()
        out = obs.export_trace(trace_path, recorder)
        print(f"trace written to {out}")


if __name__ == "__main__":
    raise SystemExit(main())
