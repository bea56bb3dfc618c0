"""repro.obs — dependency-free observability for the pipeline.

Two pieces (both stdlib-only, importable from anywhere in the repo
without cycles):

- **spans** (:mod:`repro.obs.trace`) — hierarchical wall-clock tracing
  with a thread-safe recorder and JSON export/import;
- **summary** (:mod:`repro.obs.summary`) — per-stage aggregation behind
  ``python -m repro trace-summary``.

Spans are the only thing recorded here. A cumulative count lives in the
typed stats snapshot its owner returns (``CacheStats``, ``PoolStats``,
``GatewayStats``, ``PackReport``, ...), a per-call quantity is an
attribute of the span that times the call, and a call count is the
number of spans of that name (``aggregate(spans)[name].count``).

Disabled by default: :func:`span` returns a shared no-op after one flag
check, so the instrumented hot paths cost effectively nothing until
:func:`enable` (or the CLI ``--trace`` flag) turns recording on.

Typical use::

    from repro import obs

    with obs.capture() as rec:
        framework.fit(fields)
    obs.export_trace("trace.json", rec)

    from repro.obs import load_trace, format_summary
    payload = load_trace("trace.json")
    print(format_summary(payload["spans"]))
"""

from repro.obs.summary import StageStats, aggregate, format_summary
from repro.obs.trace import (
    Span,
    TraceRecorder,
    capture,
    disable,
    enable,
    export_trace,
    load_trace,
    span,
    timed_span,
)

__all__ = [
    "Span",
    "TraceRecorder",
    "span",
    "timed_span",
    "enable",
    "disable",
    "capture",
    "export_trace",
    "load_trace",
    "StageStats",
    "aggregate",
    "format_summary",
]
