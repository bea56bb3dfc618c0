"""``load-bench``: the serving stack's sustained-traffic proof artifact.

Three phases, mirroring ``codec-bench`` / ``read-bench``:

1. **Determinism gate** — a seeded request list is answered twice: by
   direct ``service.predict`` calls (the reference), and through a
   :class:`~repro.load.gateway.Gateway` under several coalescing
   configurations (different ``max_batch`` / ``max_wait_ms``). Every
   gateway error bound must be *bitwise* equal to its direct-call
   reference; any divergence fails the benchmark (nonzero CLI exit).
2. **Capacity calibration** — the warm, batch-amortized per-request
   service latency is measured once and the open-loop rate sweep is
   expressed as multiples of that capacity, so the sweep brackets the
   saturation knee on fast and slow hosts alike.
3. **Workload sweep** — a run table (open-loop Poisson rates × closed-
   loop client counts × repetitions) executes via
   :mod:`repro.load.runtable`; each run records p50/p95/p99 latency,
   throughput, rejection rate, and feature-cache hit rate, and the
   open-loop trajectory is scanned for the **saturation point**: the
   first offered rate the gateway cannot sustain (throughput below
   90% of offered, or >1% of requests shed).

The report is committed as ``BENCH_serve.json`` at the repo root,
commit-stamped, so the serving stack's latency trajectory lives in
version control next to the code. ``--check`` (CI) keeps the
determinism gate and a micro sweep, writes nothing.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro.bench.codec_bench import repo_commit
from repro.load.gateway import Gateway, GatewayOptions
from repro.load.runtable import build_run_table, execute_run
from repro.load.workload import DEFAULT_RATIOS
from repro.obs import span
from repro.serve.service import PredictionService, ServiceOptions

SCHEMA = "repro.load-bench/v1"
REPORT_NAME = "BENCH_serve.json"

_REPO_ROOT = Path(__file__).resolve().parents[3]

#: Sustainment thresholds for the saturation scan.
_SUSTAIN_THROUGHPUT = 0.90  # achieved >= 90% of offered
_SUSTAIN_REJECTIONS = 0.01  # < 1% shed


def build_field_pool(
    *, shape: tuple[int, ...] = (12, 16, 16), n_fields: int = 4, seed: int = 0
) -> list[np.ndarray]:
    """A deterministic pool of distinct fields for the request stream."""
    from repro.data import load_dataset

    fields = load_dataset("miranda", shape=tuple(shape), seed=seed + 1)
    if len(fields) < n_fields:
        fields = fields + load_dataset("nyx", shape=tuple(shape), seed=seed + 2)
    return [f.data for f in fields[: max(1, n_fields)]]


def _identity_requests(
    datas: list[np.ndarray], n_requests: int, seed: int
) -> list[tuple[int, float]]:
    rng = np.random.default_rng(seed)
    menu = np.asarray(DEFAULT_RATIOS, dtype=np.float64)
    return [
        (int(rng.integers(len(datas))), float(rng.choice(menu)))
        for _ in range(n_requests)
    ]


async def _gateway_answers(gateway: Gateway, datas, requests) -> list[float]:
    async with gateway:
        preds = await asyncio.gather(
            *(gateway.submit(datas[i], ratio) for i, ratio in requests)
        )
    return [float(p.error_bound) for p in preds]


def run_identity_gate(
    framework,
    datas: list[np.ndarray],
    *,
    n_requests: int = 32,
    seed: int = 0,
    batch_configs: tuple[tuple[int, float], ...] = ((1, 0.0), (4, 2.0), (16, 10.0)),
) -> dict:
    """Prove gateway responses == direct ``service.predict``, bitwise.

    Every config submits the identical request list all-at-once (maximal
    coalescing pressure: batches actually form at each ``max_batch``)
    and compares error bounds elementwise against per-request direct
    calls on a fresh service.
    """
    requests = _identity_requests(datas, n_requests, seed)
    with PredictionService(framework) as service:
        reference = [
            float(service.predict(datas[i], ratio).error_bound)
            for i, ratio in requests
        ]
    configs = {}
    for max_batch, max_wait_ms in batch_configs:
        options = GatewayOptions(
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_pending=n_requests + 1,
        )
        with PredictionService(framework) as service:
            gateway = options.build(service)
            answers = asyncio.run(_gateway_answers(gateway, datas, requests))
            stats = gateway.stats()
        configs[f"batch{max_batch}-wait{max_wait_ms:g}ms"] = {
            "max_batch": int(max_batch),
            "max_wait_ms": float(max_wait_ms),
            "batches": stats.batches,
            "mean_batch_size": stats.mean_batch_size,
            "identical": answers == reference,
        }
    return {
        "n_requests": int(n_requests),
        "configs": configs,
        "identical": all(c["identical"] for c in configs.values()),
    }


def calibrate_capacity_rps(
    framework, datas: list[np.ndarray], *, reps: int = 5
) -> float:
    """Warm, batch-amortized requests/second of one service thread.

    Fills the feature cache, then times ``predict_batch`` over the whole
    pool ``reps`` times (best-of, like ``codec-bench``): the gateway's
    executor serves batches sequentially, so this is the ceiling the
    open-loop sweep should bracket.
    """
    requests = [(d, 8.0) for d in datas] * 4
    with PredictionService(framework) as service:
        service.predict_batch(requests)  # warm the cache
        best = float("inf")
        for _ in range(max(1, reps)):
            t0 = time.perf_counter()
            service.predict_batch(requests)
            best = min(best, time.perf_counter() - t0)
    return len(requests) / best if best > 0 else 1.0


def find_saturation(rows: list[dict]) -> dict:
    """Scan open-loop rows (rate-ascending) for the saturation knee.

    A rate level is *sustained* when its mean achieved throughput stays
    within 90% of offered and it sheds under 1% of requests. The
    saturation point is the first unsustained level; ``peak_rps`` is the
    best mean throughput seen anywhere in the sweep.
    """
    open_rows = [r for r in rows if r["topology"] == "open"]
    by_rate: dict[float, list[dict]] = {}
    for r in open_rows:
        by_rate.setdefault(r["load"], []).append(r)
    levels = []
    for rate in sorted(by_rate):
        group = by_rate[rate]
        throughput = float(np.mean([g["throughput_rps"] for g in group]))
        rejection = float(np.mean([g["rejection_rate"] for g in group]))
        levels.append({
            "offered_rps": rate,
            "throughput_rps": throughput,
            "rejection_rate": rejection,
            "sustained": (
                throughput >= _SUSTAIN_THROUGHPUT * rate
                and rejection < _SUSTAIN_REJECTIONS
            ),
        })
    peak = max((lv["throughput_rps"] for lv in levels), default=0.0)
    broken = next((lv for lv in levels if not lv["sustained"]), None)
    sustained = [lv for lv in levels if lv["sustained"]]
    return {
        "levels": levels,
        "reached": broken is not None,
        "saturation_offered_rps": broken["offered_rps"] if broken else None,
        "last_sustained_rps": (
            sustained[-1]["offered_rps"] if sustained else None
        ),
        "peak_rps": peak,
    }


def run_load_bench(
    framework,
    *,
    shape: tuple[int, ...] = (12, 16, 16),
    n_fields: int = 4,
    n_requests: int = 120,
    rate_multiples: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0),
    closed_clients: tuple[int, ...] = (1, 4, 16),
    repetitions: int = 2,
    max_batch: int = 16,
    max_wait_ms: float = 2.0,
    max_pending: int = 64,
    cache_entries: int = 256,
    identity_requests: int = 32,
    seed: int = 0,
) -> dict:
    """Run the full benchmark; returns the ``BENCH_serve.json`` dict.

    ``report["identical"]`` is the determinism verdict; the CLI exits
    nonzero when it is false.
    """
    datas = build_field_pool(shape=tuple(shape), n_fields=n_fields, seed=seed)

    with span("load_bench.identity", n_requests=identity_requests):
        identity = run_identity_gate(
            framework, datas, n_requests=identity_requests, seed=seed
        )

    with span("load_bench.calibrate"):
        capacity = calibrate_capacity_rps(framework, datas)
    open_rates = [round(capacity * m, 3) for m in rate_multiples]

    specs = build_run_table(
        open_rates=open_rates,
        closed_clients=list(closed_clients),
        n_requests=n_requests,
        repetitions=repetitions,
        base_seed=seed,
    )
    service_options = ServiceOptions(cache_entries=cache_entries)
    gateway_options = GatewayOptions(
        max_batch=max_batch, max_wait_ms=max_wait_ms, max_pending=max_pending
    )
    rows = []
    for spec in specs:
        result = execute_run(
            framework, spec, datas,
            service_options=service_options, gateway_options=gateway_options,
        )
        rows.append(result.row())

    return {
        "schema": SCHEMA,
        "commit": repo_commit(),
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "compressor": framework.compressor_name,
        "shape": list(shape),
        "n_fields": int(n_fields),
        "n_requests": int(n_requests),
        "repetitions": int(repetitions),
        "seed": int(seed),
        "gateway": gateway_options.to_kwargs(),
        "service": service_options.to_kwargs(),
        "capacity_rps": capacity,
        "rate_multiples": list(rate_multiples),
        "identity": identity,
        "identical": identity["identical"],
        "runs": rows,
        "saturation": find_saturation(rows),
    }


def format_report(report: dict) -> str:
    """Human-readable summary: identity verdict, run table, saturation."""
    lines = [
        f"load-bench: {report['compressor']} shape={tuple(report['shape'])} "
        f"fields={report['n_fields']} requests/run={report['n_requests']} "
        f"reps={report['repetitions']} commit={report['commit'] or '?'}",
        f"capacity (warm, batched): {report['capacity_rps']:.1f} req/s",
        "identity gate: " + (
            "gateway responses bitwise-identical to direct service.predict"
            if report["identical"] else "DIVERGED"
        ),
        f"{'scenario':<24} {'rep':>3} {'thru rps':>9} {'p50 ms':>8} "
        f"{'p95 ms':>8} {'p99 ms':>8} {'reject':>7} {'cache':>6} {'batch':>6}",
    ]
    for r in report["runs"]:
        lines.append(
            f"{r['scenario']:<24} {r['repetition']:>3} "
            f"{r['throughput_rps']:>9.1f} {r['p50_ms']:>8.2f} "
            f"{r['p95_ms']:>8.2f} {r['p99_ms']:>8.2f} "
            f"{r['rejection_rate']:>7.1%} {r['cache_hit_rate']:>6.0%} "
            f"{r['mean_batch_size']:>6.1f}"
        )
    sat = report["saturation"]
    if sat["reached"]:
        last = (
            f"last sustained {sat['last_sustained_rps']:.1f} req/s"
            if sat["last_sustained_rps"] is not None
            else "no offered rate sustained"
        )
        lines.append(
            f"saturation: offered {sat['saturation_offered_rps']:.1f} req/s "
            f"breaks sustainment ({last}, peak throughput "
            f"{sat['peak_rps']:.1f} req/s)"
        )
    else:
        lines.append(
            f"saturation: not reached within the sweep "
            f"(peak throughput {sat['peak_rps']:.1f} req/s)"
        )
    return "\n".join(lines)


def write_report(report: dict, path: str | Path | None = None) -> Path:
    """Write the report JSON (default: ``BENCH_serve.json`` at repo root).

    History is appended, not overwritten: the report being replaced leaves
    its capacity and saturation figures, with their commit, at the end of
    the ``"history"`` list it carried.
    """
    out = Path(path) if path is not None else _REPO_ROOT / REPORT_NAME
    previous = load_report(out)
    if previous is not None:
        entry = {
            key: previous.get(key)
            for key in ("commit", "generated_utc", "capacity_rps", "saturation")
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
