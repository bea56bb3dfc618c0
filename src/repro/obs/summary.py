"""Aggregation of a span tree into a per-stage table.

Backs ``python -m repro trace-summary out.json``: group every span in
the trace by name, sum wall time, and report self time (total minus
direct children) so nested stages — ``fit.collection`` containing one
``collection.field`` per field containing compressor calls — read as a
breakdown instead of double-counted noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import Span


@dataclass
class StageStats:
    """Aggregate of all spans sharing one name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0
    attrs_sample: dict = field(default_factory=dict)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


def aggregate(spans: list[Span]) -> dict[str, StageStats]:
    """Per-name stats over the whole tree (recursive)."""
    stats: dict[str, StageStats] = {}

    def visit(span: Span) -> None:
        st = stats.get(span.name)
        if st is None:
            st = stats[span.name] = StageStats(span.name)
        st.count += 1
        st.total_seconds += span.elapsed
        st.self_seconds += max(span.elapsed - sum(c.elapsed for c in span.children), 0.0)
        if not st.attrs_sample and span.attrs:
            st.attrs_sample = dict(span.attrs)
        for child in span.children:
            visit(child)

    for root in spans:
        visit(root)
    return stats


def format_summary(spans: list[Span]) -> str:
    """Human-readable per-stage table, busiest stages first."""
    stats = sorted(aggregate(spans).values(), key=lambda s: -s.total_seconds)
    width = max([len(s.name) for s in stats] + [len("stage")])
    lines = [
        f"{'stage':<{width}} {'calls':>7} {'total(s)':>10} {'self(s)':>10} {'mean(ms)':>10}",
        "-" * (width + 41),
    ]
    for s in stats:
        lines.append(
            f"{s.name:<{width}} {s.count:>7} {s.total_seconds:>10.4f} "
            f"{s.self_seconds:>10.4f} {s.mean_seconds*1000:>10.3f}"
        )
    if not stats:
        lines.append("(no spans recorded)")
    return "\n".join(lines)
