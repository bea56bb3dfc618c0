"""repro.store — chunked, ratio-controlled compressed array store.

A single-file ``.rps`` container closes the loop from error-bound
prediction to bytes on disk: a deterministic chunk grid
(:mod:`~repro.store.chunking`), per-chunk compressed payloads with a
JSON manifest footer (:mod:`~repro.store.format`), a streaming writer
with closed-loop byte budgeting (:mod:`~repro.store.writer`), and a
checksum-verifying random-access reader (:mod:`~repro.store.reader`).

Typical use::

    from repro.api import Carol, Store, StoreOptions

    carol = Carol(compressor="szx"); carol.fit(train_fields)
    report = Store.pack("field.rps", field, carol, target_ratio=16.0)
    print(report.summary())             # achieved ratio vs target

    with Store("field.rps") as st:
        sub = st[4:12, :, 20:40]        # decompresses only intersecting chunks
        full = st.read()

``Store.pack`` accepts a :class:`~repro.data.fields.Field`, an ndarray,
or an ``np.memmap`` (see :func:`open_raw`) — memmapped inputs stream
through one wave of chunks at a time, so fields larger than RAM never
materialize.

Many stores are served together through a
:class:`~repro.store.catalog.StoreCatalog` (``Catalog`` on
:mod:`repro.api`): datasets addressed by key, manifests loaded lazily,
and a shared byte-budgeted cache of decompressed chunks (GreedyDual;
LRU when costs are equal) plus optional
worker-pool decode injected into every reader it opens::

    from repro.api import Catalog, CatalogOptions

    with Catalog("stores/", options=CatalogOptions(cache_bytes=1 << 28)) as cat:
        sub = cat.read("climate/temp", (slice(0, 8), slice(None), slice(None)))

Packing parallelizes without changing a single byte:
``StoreOptions(workers=N)`` fans each wave's compression across a
:class:`repro.serve.WorkerPool` (features are extracted in the caller's
process), and because budget re-targets happen only at wave boundaries
(``wave_size`` chunks, default 8 with workers, 1 without) the output
file is byte-identical for every worker count — ``wave_size=1`` is the
classic serial loop bit-for-bit.
"""

from repro.data.io import open_raw
from repro.store.catalog import CatalogOptions, CatalogStats, StoreCatalog
from repro.store.chunking import Chunk, ChunkGrid, default_chunk_shape
from repro.store.format import CorruptChunkError, StoreFormatError
from repro.store.prefetch import Prefetcher, PrefetchStats
from repro.store.reader import StoreReader, StreamStats, TileStream
from repro.store.writer import (
    ChunkWriteRecord,
    PackReport,
    StoreOptions,
    StoreWriter,
    pack,
)


class Store(StoreReader):
    """User-facing handle: ``Store(path)`` opens for reading,
    ``Store.pack(...)`` creates a container (see :func:`repro.store.pack`)."""

    pack = staticmethod(pack)


__all__ = [
    "Store",
    "StoreOptions",
    "StoreCatalog",
    "CatalogOptions",
    "CatalogStats",
    "StoreReader",
    "StoreWriter",
    "TileStream",
    "StreamStats",
    "Prefetcher",
    "PrefetchStats",
    "PackReport",
    "ChunkWriteRecord",
    "Chunk",
    "ChunkGrid",
    "default_chunk_shape",
    "CorruptChunkError",
    "StoreFormatError",
    "open_raw",
    "pack",
]
