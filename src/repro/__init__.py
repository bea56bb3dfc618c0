"""repro — reproduction of CAROL (ICPP'24), a ratio-controlled
lossy-compression framework, with every substrate built from scratch.

Quickstart::

    import numpy as np
    from repro import CarolFramework, load_dataset

    train = load_dataset("miranda")
    carol = CarolFramework(compressor="sz3")
    carol.fit(train)
    test = load_dataset("nyx")[0]
    result, pred = carol.compress_to_ratio(test.data, target_ratio=30.0)
    print(result.ratio, pred.error_bound)

Main entry points:

- :mod:`repro.api` — the full documented surface (:class:`Carol`,
  :class:`Fxrz`, :func:`load`, :func:`save`, every ``*Options`` and
  ``*Stats`` class); this package re-exports the part of it the
  quickstart, the README and the examples use, so
  ``from repro import Carol`` works;
- :mod:`repro.serve` — the serving layer (:class:`Service`,
  :class:`ServiceOptions`, :class:`ModelRegistry`): batched, cached
  prediction over a fitted framework;
- :mod:`repro.load` — the traffic layer (:class:`Gateway`,
  :class:`GatewayOptions`): asyncio admission control + request
  coalescing over a service;
- :mod:`repro.control` — the tier-escalation control plane
  (:class:`~repro.api.Controller`, :class:`ControlOptions`): per chunk,
  choose heuristic → model → FRaZ refinement from model confidence,
  budget drift, and a risk budget (``StoreOptions(control=...)``);
- :mod:`repro.store` — the chunked compressed array store
  (:class:`Store`, :class:`StoreOptions`): single-file ``.rps``
  containers with closed-loop byte budgeting and random-access reads
  (``python -m repro store-pack / store-info / store-unpack``), plus the
  sharded read service (:class:`Catalog`, :class:`CatalogOptions`): many
  stores by dataset key behind one shared byte-budgeted chunk cache;
- :class:`CarolFramework` / :class:`FxrzFramework` — the ratio-controlled
  frameworks (paper contribution / baseline);
- :func:`get_compressor` — the five error-bounded compressors (the
  paper's szx / zfp / sz3 / sperr, plus cuszp);
- :func:`get_surrogate` — the SECRE ratio estimators;
- :func:`load_dataset` / :func:`load_field` — synthetic SDRBench-like data;
- :mod:`repro.obs` — tracing spans for the whole pipeline
  (``python -m repro train ... --trace out.json``).
"""

from repro import obs
from repro.api import (
    Carol,
    Catalog,
    CatalogOptions,
    ControlOptions,
    Fxrz,
    Gateway,
    GatewayOptions,
    ModelRegistry,
    Overloaded,
    Service,
    ServiceOptions,
    Store,
    StoreOptions,
    load,
    save,
)
from repro.compressors import get_compressor
from repro.core import CarolFramework, FxrzFramework, estimation_error, invert_curve
from repro.data import Field, load_dataset, load_field
from repro.surrogate import get_surrogate

__version__ = "1.0.0"

__all__ = [
    "Carol",
    "Fxrz",
    "ControlOptions",
    "Service",
    "ServiceOptions",
    "ModelRegistry",
    "Gateway",
    "GatewayOptions",
    "Overloaded",
    "Store",
    "StoreOptions",
    "Catalog",
    "CatalogOptions",
    "load",
    "save",
    "obs",
    "CarolFramework",
    "FxrzFramework",
    "estimation_error",
    "invert_curve",
    "get_compressor",
    "get_surrogate",
    "Field",
    "load_dataset",
    "load_field",
]
