"""``read-bench``: concurrent sharded-read benchmark over a store catalog.

The catalog's contract is that injecting a shared chunk cache and a
decode pool into the staged reader changes *throughput only, never
bytes*. This module makes that contract a measured, committed artifact:

- a deterministic fixture packs several ``.rps`` stores into a temp
  directory and draws a seeded stream of random subvolume requests
  across them;
- the request stream is answered by a serial, cache-less catalog first
  (the reference), then replayed under each benchmarked configuration —
  cached, and parallel-with-cache under thread concurrency — and every
  response is digest-compared to the reference answer;
- a **streaming scenario** scans every store front to back through
  ``Catalog.read_iter`` on a cold cache with the prefetcher on,
  recording time-to-first-tile and the stream's peak resident bytes;
  the assembled tiles must digest-match a materialized ``read()`` of
  the same store, and the peak must stay within 2x the configured
  ``max_inflight`` tile budget — the bounded-memory contract as a gate;
- the report (bytes-served/s and cache hit rate per configuration, plus
  the streaming columns) is written to ``BENCH_read.json`` at the repo
  root, commit-stamped, so the read path's perf trajectory is tracked
  in version control alongside the code.

Any byte divergence between configurations is a benchmark *failure*
(nonzero exit from the CLI), not a footnote. ``--check`` mode (used in
CI) shrinks the fixture and keeps only the byte-identity gate.
"""

from __future__ import annotations

import json
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.bench.codec_bench import repo_commit
from repro.obs import span
from repro.serve.cache import digest_array
from repro.store.catalog import CatalogOptions, StoreCatalog

SCHEMA = "repro.read-bench/v1"
REPORT_NAME = "BENCH_read.json"

_REPO_ROOT = Path(__file__).resolve().parents[3]


def build_fixture(
    framework,
    root,
    *,
    n_stores: int = 3,
    shape: tuple[int, ...] = (24, 32, 32),
    chunk: tuple[int, ...] = (8, 16, 16),
    ratio: float = 8.0,
    seed: int = 0,
) -> list[str]:
    """Pack ``n_stores`` synthetic fields into ``root``; returns their keys.

    Each store holds a different seeded field, so cross-store cache
    collisions would be caught by the digest gate, and the keyspace
    exercises nested directories (``ds<i>/field``).
    """
    from repro.data import load_field
    from repro.store import StoreOptions, pack

    root = Path(root)
    options = StoreOptions(chunk_shape=tuple(chunk))
    keys = []
    for i in range(n_stores):
        field = load_field("miranda/pressure", shape=tuple(shape), seed=seed + i)
        key = f"ds{i}/field"
        path = root / f"{key}.rps"
        pack(path, field, framework, ratio, options=options)
        keys.append(key)
    return keys


def request_stream(
    keys: list[str],
    shape: tuple[int, ...],
    read_shape: tuple[int, ...],
    n_reads: int,
    seed: int,
) -> list[tuple[str, tuple]]:
    """A seeded list of ``(key, region)`` subvolume requests.

    Deterministic in ``seed`` alone, so every configuration replays the
    identical stream; regions are axis-aligned ``read_shape`` boxes at
    random offsets, clipped to the field.
    """
    rng = np.random.default_rng(seed)
    requests = []
    for _ in range(n_reads):
        key = keys[int(rng.integers(len(keys)))]
        region = tuple(
            slice(start := int(rng.integers(max(s - r, 0) + 1)), start + min(r, s))
            for s, r in zip(shape, read_shape)
        )
        requests.append((key, region))
    return requests


def _serve(catalog: StoreCatalog, requests, concurrency: int):
    """Answer every request (in order) and time the whole stream.

    ``concurrency > 1`` issues requests from a thread pool — the
    concurrent-reader scenario the shared cache must stay correct under —
    but results are collected in request order regardless.
    """
    t0 = time.perf_counter()
    if concurrency <= 1:
        results = [catalog.read(key, region) for key, region in requests]
    else:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            futures = [pool.submit(catalog.read, key, region) for key, region in requests]
            results = [f.result() for f in futures]
    return results, time.perf_counter() - t0


def run_streaming_scan(
    root, keys: list[str], *, cache_bytes: int, workers: int, max_inflight: int
) -> dict:
    """Full-store streamed scan of every key on a cold shared cache.

    Each store is streamed front to back as a sequence of chunk-row
    slabs, each slab tile by tile (``tile=None``: one piece per chunk,
    flat chunk-id order) into a preallocated buffer, then read again
    materialized; the two must digest-match. The slab sequence is
    exactly the sequential run the prefetcher detects, so the committed
    report also exercises (and records) prefetch outcomes. Records
    time-to-first-tile per store and the worst stream's peak resident
    bytes against its ``max_inflight`` budget.
    """
    options = CatalogOptions(
        cache_bytes=cache_bytes, workers=workers, prefetch_depth=max(2, max_inflight)
    )
    peak = budget = 0
    first_tile = []
    identical = True
    bytes_served = 0
    t0 = time.perf_counter()
    with StoreCatalog(root, options=options) as catalog:
        for key in keys:
            reader = catalog.reader(key)
            out = np.empty(reader.shape, dtype=reader.dtype)
            row = reader.grid.chunk_shape[0]
            rest = tuple(slice(None) for _ in reader.shape[1:])
            t_start = time.perf_counter()
            first = None
            for lo in range(0, reader.shape[0], row):
                region = (slice(lo, min(lo + row, reader.shape[0])), *rest)
                stream = catalog.read_iter(key, region, max_inflight=max_inflight)
                for tile_sel, tile in stream:
                    if first is None:
                        first = time.perf_counter() - t_start
                    out[tile_sel] = tile
                stats = stream.stats
                peak = max(peak, stats.peak_inflight_bytes)
                budget = max(budget, stats.budget_bytes)
            first_tile.append(first if first is not None else 0.0)
            bytes_served += out.nbytes
            identical &= digest_array(out) == digest_array(catalog.read(key))
        seconds = time.perf_counter() - t0
        prefetch = catalog.prefetch_stats()
        pool = catalog.stats().pool
    return {
        "cache_bytes": int(cache_bytes),
        "workers": int(workers),
        "max_inflight": int(max_inflight),
        "pool_submitted": pool.submitted if pool else 0,
        "seconds": seconds,
        "bytes_served": int(bytes_served),
        "bytes_per_s": bytes_served / seconds if seconds > 0 else 0.0,
        "time_to_first_tile_s": max(first_tile) if first_tile else 0.0,
        "peak_resident_bytes": int(peak),
        "budget_bytes": int(budget),
        "bounded": bool(peak <= 2 * budget),
        "prefetch": prefetch.as_dict(),
        "identical": bool(identical),
    }


def run_read_bench(
    framework,
    *,
    n_stores: int = 3,
    shape: tuple[int, ...] = (24, 32, 32),
    chunk: tuple[int, ...] = (8, 16, 16),
    ratio: float = 8.0,
    n_reads: int = 48,
    read_shape: tuple[int, ...] = (12, 16, 16),
    workers: int = 2,
    cache_bytes: int = 64 << 20,
    concurrency: int = 4,
    max_inflight: int = 4,
    seed: int = 0,
) -> dict:
    """Benchmark catalog reads: serial reference vs cached vs parallel+cache,
    plus a full-store streaming scan (:func:`run_streaming_scan`).

    Returns the ``BENCH_read.json`` report dict; ``report["identical"]``
    is the aggregate byte-identity verdict (every configuration's every
    response digest-equal to the serial, cache-less reference, and every
    streamed scan digest-equal to its materialized read) and
    ``report["streaming"]["bounded"]`` the peak-resident-bytes verdict.
    """
    shape, chunk, read_shape = tuple(shape), tuple(chunk), tuple(read_shape)
    configs = {
        "serial": dict(cache_bytes=0, workers=0, concurrency=1),
        "cached": dict(cache_bytes=cache_bytes, workers=0, concurrency=concurrency),
        "parallel+cache": dict(
            cache_bytes=cache_bytes, workers=workers, concurrency=concurrency
        ),
    }
    with tempfile.TemporaryDirectory(prefix="read-bench-") as tmp:
        with span("read_bench.fixture", n_stores=n_stores, shape=list(shape)):
            keys = build_fixture(
                framework, tmp, n_stores=n_stores, shape=shape, chunk=chunk,
                ratio=ratio, seed=seed,
            )
        requests = request_stream(keys, shape, read_shape, n_reads, seed)

        reference: list[str] | None = None
        results: dict[str, dict] = {}
        for name, cfg in configs.items():
            options = CatalogOptions(
                cache_bytes=cfg["cache_bytes"], workers=cfg["workers"]
            )
            with StoreCatalog(tmp, options=options) as catalog:
                with span("read_bench.config", config=name, **cfg):
                    answers, seconds = _serve(catalog, requests, cfg["concurrency"])
                digests = [digest_array(a) for a in answers]
                if reference is None:
                    reference = digests
                stats = catalog.stats()
            bytes_served = int(sum(a.nbytes for a in answers))
            results[name] = {
                "cache_bytes": int(cfg["cache_bytes"]),
                "workers": int(cfg["workers"]),
                "concurrency": int(cfg["concurrency"]),
                "pool_submitted": stats.pool.submitted if stats.pool else 0,
                "seconds": seconds,
                "bytes_served": bytes_served,
                "bytes_per_s": bytes_served / seconds if seconds > 0 else 0.0,
                "cache_hit_rate": stats.cache.hit_rate,
                "cache_evictions": stats.cache.evictions,
                "identical": digests == reference,
            }

        with span("read_bench.streaming", max_inflight=max_inflight):
            streaming = run_streaming_scan(
                tmp, keys, cache_bytes=cache_bytes, workers=workers,
                max_inflight=max_inflight,
            )

    return {
        "schema": SCHEMA,
        "commit": repo_commit(),
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "compressor": framework.compressor_name,
        "n_stores": int(n_stores),
        "shape": list(shape),
        "chunk": list(chunk),
        "target_ratio": float(ratio),
        "n_reads": int(n_reads),
        "read_shape": list(read_shape),
        "seed": int(seed),
        "configs": results,
        "streaming": streaming,
        "identical": all(c["identical"] for c in results.values())
        and streaming["identical"],
    }


def format_report(report: dict) -> str:
    """Human-readable per-configuration table of the report."""
    lines = [
        f"read-bench: {report['n_stores']} stores shape={tuple(report['shape'])} "
        f"chunk={tuple(report['chunk'])} ratio={report['target_ratio']:g} "
        f"reads={report['n_reads']}x{tuple(report['read_shape'])} "
        f"commit={report['commit'] or '?'}",
        f"{'config':<16} {'workers':>7} {'conc':>5} {'cache MB':>9} "
        f"{'MB/s':>9} {'hit rate':>9} {'pooled':>7} {'identical':>10}",
    ]
    for name, c in report["configs"].items():
        lines.append(
            f"{name:<16} {c['workers']:>7} {c['concurrency']:>5} "
            f"{c['cache_bytes'] / 1e6:>9.1f} {c['bytes_per_s'] / 1e6:>9.2f} "
            f"{c['cache_hit_rate']:>9.2%} {c['pool_submitted']:>7} "
            f"{'yes' if c['identical'] else 'DIVERGED':>10}"
        )
    s = report.get("streaming")
    if s:
        lines.append(
            f"{'streaming':<16} workers={s['workers']} "
            f"max_inflight={s['max_inflight']} pooled={s['pool_submitted']} "
            f"first-tile={s['time_to_first_tile_s'] * 1e3:.2f}ms "
            f"peak={s['peak_resident_bytes'] / 1e6:.2f}MB "
            f"budget={s['budget_bytes'] / 1e6:.2f}MB "
            f"({'bounded' if s['bounded'] else 'OVER BUDGET'}) "
            f"prefetch-hits={s['prefetch']['hits']} "
            f"{'yes' if s['identical'] else 'DIVERGED'}"
        )
    return "\n".join(lines)


def write_report(report: dict, path: str | Path | None = None) -> Path:
    """Write the report JSON (default: ``BENCH_read.json`` at repo root).

    History is appended, not overwritten: the report being replaced
    leaves its throughput figures, with their commit, at the end of the
    ``"history"`` list it carried.
    """
    out = Path(path) if path is not None else _REPO_ROOT / REPORT_NAME
    previous = load_report(out)
    if previous is not None:
        entry = {
            "commit": previous.get("commit"),
            "generated_utc": previous.get("generated_utc"),
            "bytes_per_s": {
                **{name: c["bytes_per_s"] for name, c in previous["configs"].items()},
                "streaming": previous["streaming"]["bytes_per_s"],
            },
            "time_to_first_tile_s": previous["streaming"]["time_to_first_tile_s"],
        }
        report = {**report, "history": [*previous.get("history", []), entry]}
    out.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return out


def load_report(path: str | Path | None = None) -> dict | None:
    """Read a previously committed report; None when absent or unreadable."""
    p = Path(path) if path is not None else _REPO_ROOT / REPORT_NAME
    try:
        report = json.loads(p.read_text())
    except (OSError, ValueError):
        return None
    return report if report.get("schema") == SCHEMA else None
