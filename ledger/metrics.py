"""Names, units, directions and bounds of everything the ledger reports.

One table for the end-to-end metrics, one for the traced spans and one
for the counts; ``BENCHMARK.json`` at the repo root is this module
written out (``ledger/tests`` holds the parity check). Later PRs are
judged with these names, so renaming one is a benchmark change.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

PACK = ("pack-sz3", "pack-szx-ctl")
READ = ("read-zipf", "read-scan")
WORKLOADS = (*PACK, *READ, "serve-open")

#: How long one driver run measures (``run_seconds`` in BENCHMARK.json).
#: Op counts are fixed functions of ``--seconds`` sized so the measured
#: phase takes about this long on the seed commit (see workloads.py).
RUN_SECONDS = 8

#: serve-open's stated limit on segment A's tail latency at 200 req/s;
#: a run over it is flagged ``over_limit``.
SERVE_LIMIT_MS = 50.0


@dataclass(frozen=True)
class EndToEnd:
    """One user-visible metric. ``bound`` is how much worse the median
    may get before it is a regression — a share of the baseline median,
    or an absolute difference when ``absolute``."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float
    absolute: bool = False
    workloads: tuple[str, ...] = WORKLOADS
    doc: str = ""

    @property
    def gated(self) -> bool:
        """Whether the driver can gate on it: BENCHMARK.json's
        ``end_to_end`` takes only metrics that every workload reports,
        that are never 0 and whose bound is a share of the median. The
        others are reported under the same names in the traced run."""
        return self.workloads == WORKLOADS and not self.absolute


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             doc="median of the in-process set-ups: synthesis + Carol.fit "
                 "+ fleet pre-pack / reference table + Catalog/Service/Gateway"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             doc="successful ops / measured wall; serve-open: median over "
                 "segment-B bursts of 256 / drain time"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25,
             doc="median per-op latency (serve-open: segment A, from due time)"),
    EndToEnd("op_tail_ms", "ms", "lower", 0.25,
             doc="highest percentile with >= 10 samples beyond it"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05,
             doc="ru_maxrss of the workload's process at exit, set-up "
                 "included (read-scan: plus the largest pool worker)"),
    EndToEnd("first_tile_ms", "ms", "lower", 0.25, workloads=("read-scan",),
             doc="median time from read_iter(...) to the first tile"),
    EndToEnd("failed_share", "ratio", "lower", 0.0, absolute=True,
             doc="(exceptions + Overloaded + output-check failures) / attempted"),
    EndToEnd("ratio_err_p50", "ratio", "lower", 0.002, absolute=True, workloads=PACK,
             doc="median over ops of abs(achieved_ratio / target - 1)"),
    EndToEnd("ratio_err_p90", "ratio", "lower", 0.005, absolute=True, workloads=PACK,
             doc="90th percentile of the same"),
    EndToEnd("container_overhead", "ratio", "lower", 0.001, absolute=True, workloads=PACK,
             doc="sum(file_bytes - stored_bytes) / sum(file_bytes)"),
)
E2E = {m.name: m for m in END_TO_END}

#: span name -> the layer it measures. Each yields ``<span>.calls`` and
#: ``<span>.self_s``, except the calls-only ones below.
SPANS = {
    "store.writer.write": "store.writer",
    "features.extract": "features",
    "core.prediction.predict": "core.prediction",
    "compressors.compress.sz3": "compressors",
    "compressors.compress.szx": "compressors",
    "compressors.decompress.sz3": "compressors",
    "compressors.decompress.szx": "compressors",
    "control.decide": "control",
    "control.heuristic": "control",
    "control.refine": "control",
    "store.catalog.read": "store.catalog",
    "serve.cache.get": "serve.cache",
    "serve.cache.put": "serve.cache",
    "serve.cache.digest": "serve.cache",
    "store.reader.fetch": "store.reader",
    "store.reader.decode": "store.reader",
    "store.reader.assemble": "store.reader",
    "store.reader.stream_next": "store.reader",
    "serve.pool.map_ordered": "serve.pool",
    "serve.pool.submit": "serve.pool",
    "serve.pool.result": "serve.pool",
    "store.prefetch.predict": "store.prefetch",
    "serve.service.predict_batch": "serve.service",
    "load.gateway.submit": "load.gateway",
}
#: Timed by the load generator, not by a span (the coroutine's duration
#: is the request's latency, which the generator already owns).
CALLS_ONLY = ("load.gateway.submit",)

#: (name, unit, better) of the counts, taken from the typed stats the
#: API returns, from SetupReport and from the harness itself.
COUNTS = (
    ("store.writer.chunks", "count", "lower"),
    ("store.writer.waves", "count", "lower"),
    ("control.useful_compress_share", "ratio", "higher"),
    ("control.t0", "count", "higher"),
    ("control.t1", "count", "higher"),
    ("control.t2", "count", "lower"),
    ("control.compressions_spent", "count", "lower"),
    ("serve.cache.hit_rate", "ratio", "higher"),
    ("serve.cache.evictions", "count", "lower"),
    ("store.reader.peak_inflight_bytes", "B", "lower"),
    ("serve.pool.submitted", "count", "lower"),
    ("serve.pool.fallbacks", "count", "lower"),
    ("serve.pool.timeouts", "count", "lower"),
    ("store.prefetch.issued", "count", "higher"),
    ("store.prefetch.hits", "count", "higher"),
    ("store.prefetch.wasted", "count", "lower"),
    ("load.gateway.batches", "count", "lower"),
    ("load.gateway.mean_batch", "count", "higher"),
    ("load.gateway.flushes_full", "count", "higher"),
    ("load.gateway.flushes_timer", "count", "lower"),
    ("load.gateway.max_queue_depth", "count", "lower"),
    ("load.gateway.wait_share", "ratio", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.synth_s", "s", "lower"),
    ("setup.fit_collection_s", "s", "lower"),
    ("setup.fit_training_s", "s", "lower"),
    ("setup.prepack_s", "s", "lower"),
    ("ledger.generator.late_p99_ms", "ms", "lower"),
    ("ledger.trace_overhead", "ratio", "lower"),
    ("ledger.unaccounted_share", "ratio", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    """Every ``--trace 1`` metric as (name, unit, better): span calls and
    self times, the counts, and the end-to-end metrics that are not
    gated (a workload they do not apply to reports 0)."""
    out = []
    for span in SPANS:
        out.append((f"{span}.calls", "count", "lower"))
        if span not in CALLS_ONLY:
            out.append((f"{span}.self_s", "s", "lower"))
    out.extend(COUNTS)
    out.extend(
        (m.name, m.unit, m.better)
        for m in END_TO_END
        if not m.gated and m.name != "failed_share"  # failed/attempted carry it
    )
    return out


# -- statistics ----------------------------------------------------------------

#: Percentiles a tail may be reported at.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_FLOOR = 10


def tail_percentile(n: int) -> float:
    """The highest percentile of ``LADDER`` with at least ``TAIL_FLOOR``
    of ``n`` samples beyond it (50 when even the median has too few)."""
    best = LADDER[0]
    for p in LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_FLOOR - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(metric: EndToEnd, values) -> float:
    """Distance between the quartiles, in the units of the metric's bound."""
    q1, med, q3 = quartiles(values)
    if metric.absolute:
        return q3 - q1
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(metric: EndToEnd, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base`` in the units of the
    metric's bound; negative when it is better."""
    delta = new - base if metric.better == "lower" else base - new
    if metric.absolute:
        return delta
    return delta / abs(base) if base else (0.0 if not delta else float("inf"))


def verdict(metric: EndToEnd, a, b) -> str:
    """Compare runs ``a`` (baseline) and ``b``: ``better`` / ``within
    bound`` / ``worse``, or ``unresolved`` when either side's quartile
    spread exceeds the bound — unless every run of ``b`` reads better
    than every run of ``a``."""
    sign = 1.0 if metric.better == "lower" else -1.0
    if max(spread(metric, a), spread(metric, b)) > metric.bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "better"
        return "unresolved"
    delta = worse_by(metric, quartiles(a)[1], quartiles(b)[1])
    if delta > metric.bound:
        return "worse"
    if delta < -metric.bound:
        return "better"
    return "within bound"
