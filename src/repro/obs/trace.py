"""Hierarchical tracing spans with a thread-safe recorder.

The pipeline's three stages (collection → training → inference, Fig. 1)
are instrumented with *spans*: named, attributed, nested wall-clock
intervals. A span tree answers "where did the setup time go?" (Fig. 8)
and "what did BO iteration 7 evaluate?" (Fig. 5b) without ad-hoc prints.

Two entry points:

- :func:`span` — observability-only instrumentation. When tracing is
  disabled (the default) it returns a shared no-op singleton: no lock,
  no allocation, one module-flag check. Call sites therefore cost
  nothing on the hot path of a production deployment.
- :func:`timed_span` — always measures wall time (the caller needs the
  duration regardless, e.g. to build a :class:`SetupReport`), but only
  records into the active trace when tracing is enabled. Because report
  and trace share the measurement, they agree exactly.

Nesting is per-thread (a thread-local stack); spans opened on a thread
with no enclosing span become trace roots, so worker threads record
cleanly alongside the main thread. Export/import round-trips through
plain JSON.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

_ENABLED = False
_recorder: "TraceRecorder | None" = None

_TRACE_FORMAT_VERSION = 1


def _json_safe(value):
    """Best-effort conversion of span attributes to JSON-able values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if hasattr(value, "tolist"):  # numpy array or scalar
        return value.tolist()
    return repr(value)


class Span:
    """One named wall-clock interval with attributes and child spans."""

    __slots__ = ("name", "attrs", "start_s", "end_s", "children", "_recorder")

    def __init__(self, name: str, attrs: dict | None = None,
                 recorder: "TraceRecorder | None" = None) -> None:
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.start_s = 0.0
        self.end_s = 0.0
        self.children: list[Span] = []
        self._recorder = recorder

    @property
    def elapsed(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    def set(self, **attrs) -> "Span":
        """Attach attributes after the fact (e.g. outputs sized mid-span)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        if self._recorder is not None:
            self._recorder._push(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end_s = time.perf_counter()
        if self._recorder is not None:
            self._recorder._pop(self)
        return False

    # -- (de)serialization -----------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "elapsed": self.elapsed,
            "attrs": _json_safe(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Span":
        sp = cls(raw["name"], raw.get("attrs") or {})
        sp.start_s = 0.0
        sp.end_s = float(raw.get("elapsed", 0.0))
        sp.children = [cls.from_dict(c) for c in raw.get("children", ())]
        return sp

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.elapsed*1000:.2f}ms, {len(self.children)} children)"


class _NoopSpan:
    """Shared do-nothing span returned by :func:`span` when disabled."""

    __slots__ = ()
    name = ""
    elapsed = 0.0

    @property
    def attrs(self) -> dict:
        return {}

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class TraceRecorder:
    """Thread-safe collector of span trees.

    Parent/child links use a per-thread stack (no lock: a span's parent
    is always on the same thread); only the cross-thread roots list is
    lock-guarded.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.roots: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate mismatched exits
            stack.remove(span)

    def to_dict(self) -> dict:
        with self._lock:
            return {"spans": [r.to_dict() for r in self.roots]}


# -- module-level switch ----------------------------------------------------


def enable(recorder: TraceRecorder | None = None) -> TraceRecorder:
    """Turn tracing on; returns the (fresh by default) active recorder."""
    global _ENABLED, _recorder
    _recorder = recorder if recorder is not None else TraceRecorder()
    _ENABLED = True
    return _recorder


def disable() -> TraceRecorder | None:
    """Turn tracing off; returns the recorder that was active (if any)."""
    global _ENABLED, _recorder
    rec = _recorder
    _ENABLED = False
    _recorder = None
    return rec


@contextmanager
def capture(recorder: TraceRecorder | None = None):
    """``with capture() as rec:`` — enable tracing for the block only."""
    rec = enable(recorder)
    try:
        yield rec
    finally:
        disable()


def span(name: str, /, **attrs):
    """Start a recording span, or the shared no-op when tracing is off.

    The disabled path performs exactly one module-flag check — no lock,
    no allocation — so instrumentation can live on hot paths.
    """
    if not _ENABLED:
        return _NOOP_SPAN
    return Span(name, attrs, recorder=_recorder)


def timed_span(name: str, /, **attrs) -> Span:
    """A span that always measures wall time.

    Use where the caller consumes ``.elapsed`` regardless of tracing
    (stage timings feeding :class:`SetupReport` / :class:`Prediction`);
    it lands in the active trace only when tracing is enabled, making
    trace totals and report totals identical by construction.
    """
    return Span(name, attrs, recorder=_recorder if _ENABLED else None)


# -- JSON export / import ---------------------------------------------------


def export_trace(path: str | Path, recorder: TraceRecorder | None = None) -> Path:
    """Write a recorder's span trees as JSON."""
    rec = recorder if recorder is not None else _recorder
    if rec is None:
        raise RuntimeError("no trace recorder to export (tracing never enabled?)")
    payload = {
        "version": _TRACE_FORMAT_VERSION,
        "spans": rec.to_dict()["spans"],
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_trace(path: str | Path) -> dict:
    """Inverse of :func:`export_trace`: ``{"spans": [Span...]}``. Other
    keys of the file (the ``"metrics"`` section older traces carry) are
    ignored."""
    raw = json.loads(Path(path).read_text())
    if raw.get("version") != _TRACE_FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {raw.get('version')!r}")
    return {"spans": [Span.from_dict(s) for s in raw.get("spans", ())]}
