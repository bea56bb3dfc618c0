"""repro.api — the stable, minimal public surface.

The recommended entry point for applications::

    from repro.api import Carol, Service, load, save

    carol = Carol(compressor="sz3")            # or Fxrz(...)
    carol.fit(fields)
    save("model.npz", carol)
    carol = load("model.npz")

    service = Service(carol)                   # batched + cached serving
    preds = service.predict_batch([(field.data, 16.0), (field.data, 32.0)])

    async with Gateway(service) as gw:         # admission + coalescing
        pred = await gw.submit(field.data, 16.0)   # == service.predict, bitwise

    Store.pack("field.rps", field, carol, target_ratio=16.0,
               options=StoreOptions(workers=4))  # wave-parallel, byte-identical
    with Store("field.rps") as st:             # chunked random-access reads
        sub = st[4:12, :, 20:40]

    with Catalog("stores/") as cat:            # a fleet of .rps stores
        sub = cat.read("climate/temp", (slice(0, 8), ...))
        for tsel, tile in cat.read_iter("climate/temp", max_inflight=4):
            consume(tsel, tile)                # streamed, bounded memory

Everything here is a thin, renamed view over the library internals —
:class:`Carol` *is* :class:`repro.core.carol.CarolFramework`,
:class:`Service` *is* :class:`repro.serve.PredictionService`, and
:class:`Catalog` *is* :class:`repro.store.StoreCatalog` — so code
written against either surface interoperates freely; the deep import
paths remain supported (but new code should import from here).

The ``*Options`` dataclasses (:class:`ServiceOptions`,
:class:`GatewayOptions`, :class:`StoreOptions`, :class:`CatalogOptions`,
:class:`ControlOptions`) are frozen, hashable, keyword-only values: pass
one as ``options=`` to the layer's constructor (frameworks take their
keywords directly) and read it back as ``.options``.
Stats are typed the same way: :meth:`Service.stats`,
:meth:`Gateway.stats`, and :meth:`Catalog.stats` return frozen
:class:`ServiceStats` / :class:`GatewayStats` / :class:`CatalogStats`
snapshots (``dataclasses.asdict`` turns one into a dict).

Signature conventions, uniform across the surface: configuration is
keyword-only everywhere; a single requested ratio is ``target_ratio``
and several are ``target_ratios``; prediction bias is ``safety`` on
every inference entry point (``predict_error_bound``,
``evaluate_targets``, ``compress_to_ratio``, and the service's
``predict_batch`` and ``predict``, a batch of one). ``Store.pack`` and
:class:`Controller` take the fitted framework, never a service.
"""

from __future__ import annotations

from repro.control import Controller, ControlOptions, ControlStats
from repro.core.carol import CarolFramework
from repro.core.framework import (
    EvaluationReport,
    Prediction,
    RatioControlledFramework,
    SetupReport,
)
from repro.core.fxrz import FxrzFramework
from repro.load.gateway import (
    Gateway,
    GatewayClosed,
    GatewayOptions,
    GatewayStats,
    Overloaded,
)
from repro.serve.service import PredictionService, ServiceOptions, ServiceStats
from repro.store import (
    CatalogOptions,
    CatalogStats,
    PackReport,
    PrefetchStats,
    Store,
    StoreCatalog,
    StoreOptions,
    StreamStats,
)
from repro.utils.serialization import load_framework, save_framework

#: Facade aliases — ``Carol`` is ``CarolFramework``, nothing in between.
Carol = CarolFramework
Fxrz = FxrzFramework
Service = PredictionService
Catalog = StoreCatalog


def load(path) -> RatioControlledFramework:
    """Load a framework saved with :func:`save` (``.npz``, pickle-free)."""
    return load_framework(path)


def save(path, framework: RatioControlledFramework):
    """Persist a fitted framework's inference state; returns the path."""
    return save_framework(path, framework)


__all__ = [
    "Carol",
    "Fxrz",
    "Controller",
    "ControlOptions",
    "ControlStats",
    "Service",
    "ServiceOptions",
    "ServiceStats",
    "Gateway",
    "GatewayOptions",
    "GatewayStats",
    "GatewayClosed",
    "Overloaded",
    "Store",
    "StoreOptions",
    "Catalog",
    "CatalogOptions",
    "CatalogStats",
    "PrefetchStats",
    "StreamStats",
    "PackReport",
    "load",
    "save",
    "RatioControlledFramework",
    "SetupReport",
    "Prediction",
    "EvaluationReport",
]
