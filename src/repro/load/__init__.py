"""repro.load — the traffic layer: the async gateway.

Where :mod:`repro.serve` makes one prediction fast, this package makes
a *stream* of them survivable: :class:`Gateway` / :class:`GatewayOptions`
are an asyncio front door over a :class:`~repro.serve.PredictionService`
— bounded admission (typed :class:`Overloaded` rejections, never
unbounded queues) and request coalescing: each flush hands the whole
queue to one ``predict_batch`` call (``max_wait_ms`` after the oldest
request, or at once when the queue reaches ``max_pending``), and every
response is bitwise-identical to a direct ``service.predict`` call. Load generation
and latency measurement live outside the library, in the ledger's
``serve-open`` workload (``ledger/README.md``).

The blessed import surface is :mod:`repro.api` (``Gateway``,
``GatewayOptions``, ``Overloaded``); this package is the implementation.
"""

from repro.load.gateway import (
    Gateway,
    GatewayClosed,
    GatewayOptions,
    GatewayStats,
    Overloaded,
)

__all__ = [
    "Gateway",
    "GatewayOptions",
    "GatewayStats",
    "GatewayClosed",
    "Overloaded",
]
