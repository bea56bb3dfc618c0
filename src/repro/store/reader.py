"""Random-access reads from a ``.rps`` container, as three separable stages.

:class:`StoreReader` parses the manifest once at open and then serves
chunk and subvolume reads through a staged pipeline:

1. **fetch + verify** (:meth:`StoreReader.fetch_payload`) — seek to the
   chunk's payload, read exactly its recorded byte count, and check it
   against the manifest's blake2b checksum, raising
   :class:`~repro.store.format.CorruptChunkError` naming the offending
   chunk — every other chunk stays readable;
2. **decode** (:func:`decode_chunk`) — invert the payload through the
   recorded compressor. A pure module-level function of the manifest
   entry and the payload bytes, so it pickles to worker processes and a
   :class:`~repro.serve.pool.WorkerPool` can fan a read's decodes out;
3. **assemble** (:func:`assemble_region`) — scatter each chunk's
   intersection into the caller's output array.

The stages are separable so a :class:`~repro.store.catalog.StoreCatalog`
can inject a shared decompressed-chunk cache (``chunk_cache``) and a
decode pool (``pool``) without duplicating any reader logic: a cached
chunk skips stages 1 *and* 2 — no re-read, no re-verify, no decode —
and because decode is deterministic and assembly order is fixed
(flat chunk-id order), the bytes a read returns are identical for every
worker count and cache size. A read decompresses *only* the chunks
intersecting the request: every read path looks a chunk up through
:meth:`StoreReader._cache_get`, so the cache's own
:class:`~repro.serve.cache.CacheStats` counts each hit and miss once
(``cat.stats().cache``; a miss is a decode), and a decode in the caller
is one ``compressor.decompress`` span.

**Where decode runs.** A reader keeps the pool it is handed only when
its store's nominal chunk decodes to at least
:data:`POOL_MIN_CHUNK_BYTES`; below that ``reader.pool`` is ``None`` and
every decode runs in the caller, exactly as with no pool — so a fleet of
small-chunk stores never forks a worker (the pool builds its executor on
first submit). The round trip is dearer than the work: a 64 KiB szx
chunk decodes in 0.57 ms in the caller and 0.69 ms on a worker, but
``submit(...).result()`` of that task takes 1.04 ms (sz3: 1.68 ms
inline, 2.72 ms round trip), and two forked workers given
millisecond tasks are woken onto one core and take turns instead of
overlapping. The decision is per store, not per chunk (edge chunks
clipped below the threshold go where their store goes), and changes
where a pure function runs, never its bytes. The break-even sweep and
the probes behind both findings are in docs/ARCHITECTURE.md.

:meth:`StoreReader.read` materializes the whole region;
:meth:`StoreReader.read_iter` streams it as bounded-memory tiles
(:class:`TileStream`) instead — same stages, same bytes, with fetch and
decode of later tiles overlapping consumption of earlier ones.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np

from repro.compressors.base import CompressionResult
from repro.compressors.registry import get_compressor
from repro.obs import timed_span
from repro.store.chunking import ChunkGrid
from repro.store.format import CorruptChunkError, StoreFormatError, chunk_checksum, read_manifest

#: Smallest nominal chunk (decoded bytes) whose decode is worth a process
#: round trip: a store below it drops the pool it is handed and decodes
#: in the caller. Measured, not tuned per codec — the smallest size in
#: the committed sweep (docs/ARCHITECTURE.md, "Where decode runs")
#: at which two workers were not slower than none for szx *and* sz3, on
#: ``read`` *and* ``read_iter``; ``cat.stats().pool`` (``wait_seconds``
#: against ``worker_seconds``) re-derives it on another host.
POOL_MIN_CHUNK_BYTES = 512 << 10


def decode_chunk(
    compressor: str, entry: dict, payload: bytes, verify: bool = True
) -> np.ndarray:
    """Stage 2: decode one chunk's payload through its recorded codec.

    Pure function of ``(compressor, manifest entry, payload)`` — no file
    handles, no reader state — and every argument pickles, so this is
    also the task a decode pool runs. ``verify=False`` strips the
    codec-level ``payload_check`` (the store-level checksum was already
    skipped at fetch time), opting out of integrity work at both levels.
    """
    meta = dict(entry["meta"])
    meta["shape"] = tuple(meta["shape"])
    if not verify:
        meta.pop("payload_check", None)
    result = CompressionResult(
        compressor=compressor,
        payload=payload,
        metadata=meta,
        original_bytes=int(entry["raw_bytes"]),
        error_bound=float(entry["error_bound"]),
    )
    return get_compressor(compressor).decompress(result)


def assemble_region(out: np.ndarray, sel, chunk, data: np.ndarray) -> None:
    """Stage 3: scatter one chunk's intersection with ``sel`` into ``out``.

    ``sel`` is the normalized region (per-axis slices in field
    coordinates); ``chunk`` carries its own field-coordinate slices. The
    chunk array is only read, never written — safe for cached arrays.
    """
    out_sl, chunk_sl = [], []
    for r, c in zip(sel, chunk.slices):
        start = max(r.start, c.start)
        stop = min(r.stop, c.stop)
        out_sl.append(slice(start - r.start, stop - r.start))
        chunk_sl.append(slice(start - c.start, stop - c.start))
    out[tuple(out_sl)] = data[tuple(chunk_sl)]


class StoreReader:
    """Read side of the store: manifest introspection + random access.

    ``verify=False`` skips checksum verification (trusted local media);
    the default verifies every payload it decompresses.

    ``chunk_cache`` (an :class:`repro.serve.cache.LRUCache`, typically
    cost-bounded in bytes) caches decompressed chunk arrays under
    ``(cache_scope, coords)`` keys; arrays entering the cache are frozen
    read-only, since hits hand back the shared object. ``pool`` (a
    :class:`repro.serve.pool.WorkerPool`) fans a multi-chunk read's
    decode stage out across worker processes — kept (as ``self.pool``)
    only by stores whose nominal chunk reaches
    :data:`POOL_MIN_CHUNK_BYTES`, see the module docstring. Both default
    to off, which is the classic serial reader unchanged.
    """

    def __init__(
        self,
        path,
        *,
        verify: bool = True,
        chunk_cache=None,
        cache_scope: str | None = None,
        pool=None,
    ) -> None:
        self.path = Path(path)
        self.verify = bool(verify)
        self.chunk_cache = chunk_cache
        self.cache_scope = str(cache_scope) if cache_scope is not None else str(self.path)
        self._io_lock = threading.Lock()
        self._fh = open(self.path, "rb")
        try:
            self.manifest = read_manifest(self._fh, self.path)
        except StoreFormatError:
            self._fh.close()
            raise
        self.shape = tuple(int(s) for s in self.manifest["shape"])
        self.dtype = np.dtype(self.manifest["dtype"])
        self.chunk_shape = tuple(int(c) for c in self.manifest["chunk_shape"])
        self.compressor = self.manifest["compressor"]
        self.grid = ChunkGrid(self.shape, self.chunk_shape)
        # One decision per store, from its nominal chunk: edge chunks
        # clipped below the threshold still go where their store goes.
        nominal_bytes = prod(self.grid.chunk_shape) * self.dtype.itemsize
        self.pool = pool if nominal_bytes >= POOL_MIN_CHUNK_BYTES else None
        self._codec = get_compressor(self.compressor)
        self._entries = {tuple(e["coords"]): e for e in self.manifest["chunks"]}
        if len(self._entries) != self.grid.n_chunks:
            raise StoreFormatError(
                f"{self.path.name}: manifest has {len(self._entries)} chunks; "
                f"grid needs {self.grid.n_chunks}"
            )

    # -- introspection -----------------------------------------------------------

    @property
    def n_chunks(self) -> int:
        return self.grid.n_chunks

    @property
    def target_ratio(self) -> float:
        return float(self.manifest["target_ratio"])

    @property
    def achieved_ratio(self) -> float:
        stored = int(self.manifest["stored_bytes"])
        return int(self.manifest["original_bytes"]) / stored if stored else 0.0

    def chunk_entry(self, coords: tuple[int, ...]) -> dict:
        """The manifest entry for one chunk (coords as grid coordinates)."""
        key = tuple(int(c) for c in coords)
        if key not in self._entries:
            raise KeyError(f"no chunk {key} in {self.path.name} (grid {self.grid.grid_shape})")
        return self._entries[key]

    def info(self) -> dict:
        """Summary dict behind ``python -m repro store-info``."""
        ebs = [e["error_bound"] for e in self.manifest["chunks"]]
        ratios = [e["achieved_ratio"] for e in self.manifest["chunks"]]
        return {
            "path": str(self.path),
            "shape": self.shape,
            "dtype": str(self.dtype),
            "compressor": self.compressor,
            "chunk_shape": self.chunk_shape,
            "grid_shape": self.grid.grid_shape,
            "n_chunks": self.n_chunks,
            "original_bytes": int(self.manifest["original_bytes"]),
            "stored_bytes": int(self.manifest["stored_bytes"]),
            "target_ratio": self.target_ratio,
            "achieved_ratio": self.achieved_ratio,
            "closed_loop": bool(self.manifest.get("closed_loop", False)),
            "error_bound_min": min(ebs) if ebs else 0.0,
            "error_bound_max": max(ebs) if ebs else 0.0,
            "chunk_ratio_min": min(ratios) if ratios else 0.0,
            "chunk_ratio_max": max(ratios) if ratios else 0.0,
        }

    # -- stage 1: fetch + verify -------------------------------------------------

    def fetch_payload(self, entry: dict, *, force_verify: bool = False) -> bytes:
        """Read one chunk's payload bytes and verify them against the
        manifest checksum. Serialized on an internal lock, so concurrent
        subvolume reads can share one reader."""
        with self._io_lock:
            self._fh.seek(int(entry["offset"]))
            payload = self._fh.read(int(entry["nbytes"]))
        coords = tuple(entry["coords"])
        if len(payload) != int(entry["nbytes"]):
            raise CorruptChunkError(
                coords, self.path, f"payload truncated to {len(payload)} bytes"
            )
        if (self.verify or force_verify) and chunk_checksum(payload) != entry["checksum"]:
            raise CorruptChunkError(coords, self.path, "checksum mismatch")
        return payload

    # -- chunk access ------------------------------------------------------------

    def _cache_key(self, coords: tuple[int, ...]):
        return (self.cache_scope, coords)

    def _cache_get(self, coords: tuple[int, ...]) -> np.ndarray | None:
        """Stage-0 cache lookup, shared by every read path —
        ``read_chunk``, ``read``'s gather, the streaming pipeline — so
        the cache's :class:`~repro.serve.cache.CacheStats` accounts hits
        identically whether it is reader-private or catalog-shared."""
        if self.chunk_cache is None:
            return None
        return self.chunk_cache.get(self._cache_key(coords))

    def _cache_put(self, coords: tuple[int, ...], data: np.ndarray) -> bool:
        # Hits hand back the shared object, so freeze anything the cache
        # stores — before the put, so no other thread can see it
        # writeable. A chunk the cache would decline (cache disabled, or
        # chunk bigger than the whole budget) is left untouched: freezing
        # can be irreversible (pool-decoded arrays are views over pickle
        # bytes), and an uncached chunk must come back exactly as the
        # plain reader would return it. admits() cannot go stale —
        # the cache's bounds are fixed at construction.
        if self.chunk_cache is None or not self.chunk_cache.admits(data):
            return False
        data.setflags(write=False)
        return self.chunk_cache.put(self._cache_key(coords), data)

    def _decode_one(self, entry: dict) -> np.ndarray:
        """Stages 1+2 for one chunk."""
        payload = self.fetch_payload(entry)
        return decode_chunk(self.compressor, entry, payload, self.verify)

    def read_chunk(self, coords: tuple[int, ...]) -> np.ndarray:
        """Decompress one chunk; returns its array in the stored dtype.

        With a chunk cache attached, a hit skips payload fetch, checksum
        verification, and decode entirely. Any array the cache admits is
        frozen read-only (hits hand back the shared object, and the
        first miss returns that same object); chunks the cache declines
        — cache disabled, or chunk bigger than the whole budget — stay
        writeable, as in the plain uncached reader.
        """
        key = tuple(int(c) for c in coords)
        entry = self.chunk_entry(key)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        out = self._decode_one(entry)
        self._cache_put(key, out)
        return out

    def _chunk_arrays(self, chunks) -> list[np.ndarray]:
        """Decoded arrays for a list of chunks, in the given order.

        Cache lookups first; the misses run fetch+verify serially (one
        file handle) and decode either inline or fanned across ``pool``.
        The result is order-deterministic either way, so reads stay
        byte-identical for every worker count and cache size.
        """
        arrays: list[np.ndarray | None] = [None] * len(chunks)
        missing: list[int] = []
        for i, chunk in enumerate(chunks):
            cached = self._cache_get(chunk.coords)
            if cached is not None:
                arrays[i] = cached
                continue
            missing.append(i)
        if not missing:
            return arrays
        entries = [self.chunk_entry(chunks[i].coords) for i in missing]
        if self.pool is not None and len(missing) > 1:
            payloads = [self.fetch_payload(e) for e in entries]
            decoded = self.pool.map_ordered(
                decode_chunk,
                [
                    (self.compressor, entry, payload, self.verify)
                    for entry, payload in zip(entries, payloads)
                ],
            )
        else:
            decoded = [self._decode_one(entry) for entry in entries]
        for i, data in zip(missing, decoded):
            self._cache_put(chunks[i].coords, data)
            arrays[i] = data
        return arrays

    # -- subvolume reads ---------------------------------------------------------

    def read(self, region=None) -> np.ndarray:
        """Read the whole field (``region=None``) or an axis-aligned subvolume.

        ``region`` follows numpy basic slicing without steps: a tuple of
        slices/ints (ints keep their axis as length one). Only intersecting
        chunks are decompressed (or served from the chunk cache).

        Read-back contract: the codec holds each chunk's recorded
        ``error_bound`` in float64 and the result is then rounded to the
        store's dtype, so an element of a float32 store may sit up to half
        a float32 ulp of its own value past the bound; a float64 store
        holds the bound as the codec does (docs/ARCHITECTURE.md,
        "Read-back contract").
        """
        sel = self.grid.normalize_region(region)
        out_shape = tuple(s.stop - s.start for s in sel)
        out = np.empty(out_shape, dtype=self.dtype)
        chunks = self.grid.chunks_intersecting(sel)
        with timed_span(
            "store.read", path=str(self.path), n_chunks=len(chunks), shape=out_shape
        ):
            for chunk, data in zip(chunks, self._chunk_arrays(chunks)):
                assemble_region(out, sel, chunk, data)
        return out

    def __getitem__(self, region) -> np.ndarray:
        return self.read(region)

    # -- streaming reads ---------------------------------------------------------

    def read_iter(
        self, region=None, *, tile=None, max_inflight: int = 2
    ) -> "TileStream":
        """Stream a region as ``(tile_region, ndarray)`` pieces instead of
        materializing it.

        Tiles arrive in deterministic order — ``tile=None`` yields one
        piece per intersecting chunk in flat chunk-id order (the storage
        order); an explicit ``tile`` shape grids the region into boxes
        enumerated in C order — and concatenating the pieces reproduces
        :meth:`read` byte-for-byte for every worker count, cache size,
        tile shape, and ``max_inflight``, because decode is a pure
        function and the tile plan is fixed up front.

        ``max_inflight`` is the backpressure bound: at most that many
        tiles are fetched/decoding ahead of the one the caller holds, so
        in-flight decoded bytes are hard-bounded by the tile working set
        (:attr:`StreamStats.budget_bytes`) no matter how large the
        region — the pipeline never queues unboundedly. When the reader
        kept a decode ``pool``, those look-ahead tiles decode
        concurrently while the caller consumes earlier ones; otherwise
        they decode lazily at yield time (same bytes, no overlap).

        A corrupt chunk raises
        :class:`~repro.store.format.CorruptChunkError` naming the chunk
        — but only when *its* tile is reached, after every earlier tile
        has been yielded intact; the reader stays usable afterward.
        """
        sel = self.grid.normalize_region(region)
        return TileStream(self, sel, self.grid.plan_region(sel, tile), max_inflight)

    def verify_all(self) -> int:
        """Checksum every chunk payload (even with ``verify=False``);
        returns the count verified."""
        for entry in self._entries.values():
            self.fetch_payload(entry, force_verify=True)
        return len(self._entries)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "StoreReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StoreReader({self.path.name}, shape={self.shape}, "
            f"chunks={self.grid.grid_shape}, compressor={self.compressor})"
        )


@dataclass(frozen=True)
class StreamStats:
    """Immutable snapshot of one streaming read's memory accounting.

    ``budget_bytes`` is the pipeline's hard in-flight bound:
    ``max_inflight`` tiles' worth of the most expensive tile in the plan
    (its decoded chunks plus its assembled output). ``peak_inflight_bytes``
    is what the stream actually held at its worst — always at most
    ``budget_bytes`` plus one tile being assembled, and typically far
    below the materialized region.
    """

    tiles_total: int
    tiles_yielded: int
    max_inflight: int
    max_tile_cost_bytes: int
    peak_inflight_bytes: int

    @property
    def budget_bytes(self) -> int:
        return self.max_inflight * self.max_tile_cost_bytes

    def as_dict(self) -> dict:
        return {
            "tiles_total": self.tiles_total,
            "tiles_yielded": self.tiles_yielded,
            "max_inflight": self.max_inflight,
            "max_tile_cost_bytes": self.max_tile_cost_bytes,
            "peak_inflight_bytes": self.peak_inflight_bytes,
            "budget_bytes": self.budget_bytes,
        }


class _TileSource:
    """One chunk feeding one pending tile: a cache hit (``array``), a
    pool decode in flight (``task``), or a fetched payload awaiting lazy
    in-process decode (``payload``)."""

    __slots__ = ("kind", "chunk", "entry", "value", "charge")

    def __init__(self, kind, chunk, entry, value, charge) -> None:
        self.kind = kind
        self.chunk = chunk
        self.entry = entry
        self.value = value
        self.charge = charge


class TileStream:
    """Iterator over a region's tiles with bounded look-ahead.

    Built by :meth:`StoreReader.read_iter`; yields
    ``(tile_region, ndarray)`` with ``tile_region`` a tuple of
    field-coordinate slices and the array a fresh (writeable,
    C-contiguous) copy of that box. The pipeline schedules up to
    ``max_inflight`` tiles ahead of the caller — fetching payloads,
    submitting decodes to the reader's pool when it has one — and blocks
    scheduling beyond that, so in-flight decoded bytes stay bounded by
    the tile working set (backpressure, not queueing). A fetch error is
    captured at schedule time and re-raised when its tile's turn comes,
    preserving yield order. :meth:`close` abandons look-ahead work;
    :attr:`stats` reports the plan and the observed memory peak.
    """

    def __init__(self, reader: StoreReader, sel, plan, max_inflight: int) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.reader = reader
        self.sel = sel
        self._plan = plan
        self.max_inflight = int(max_inflight)
        self._next = 0  # next plan index to schedule
        self._pending: deque = deque()  # scheduled, not yet yielded
        self._inflight_bytes = 0
        self._peak_inflight = 0
        self._yielded = 0
        self._closed = False
        self._callbacks: list = []
        itemsize = reader.dtype.itemsize
        self._max_tile_cost = max(
            (
                (sum(c.n_elements for c in chunks) + prod(s.stop - s.start for s in t))
                * itemsize
                for t, chunks in plan
            ),
            default=0,
        )

    # -- accounting --------------------------------------------------------------

    @property
    def stats(self) -> StreamStats:
        return StreamStats(
            tiles_total=len(self._plan),
            tiles_yielded=self._yielded,
            max_inflight=self.max_inflight,
            max_tile_cost_bytes=self._max_tile_cost,
            peak_inflight_bytes=self._peak_inflight,
        )

    def _charge(self, nbytes: int) -> None:
        self._inflight_bytes += int(nbytes)
        if self._inflight_bytes > self._peak_inflight:
            self._peak_inflight = self._inflight_bytes

    def _release(self, nbytes: int) -> None:
        self._inflight_bytes -= int(nbytes)

    # -- pipeline ----------------------------------------------------------------

    def _schedule_one(self) -> None:
        """Start the next planned tile: cache lookups, payload fetches,
        and (with a pool) decode submissions. Fetch errors are deferred
        to the tile's own yield slot so earlier tiles stream intact."""
        reader = self.reader
        tile_sel, chunks = self._plan[self._next]
        self._next += 1
        sources: list[_TileSource] = []
        error: Exception | None = None
        for chunk in chunks:
            cached = reader._cache_get(chunk.coords)
            if cached is not None:
                # shared with the cache: no new memory, charge nothing
                sources.append(_TileSource("array", chunk, None, cached, 0))
                continue
            entry = reader.chunk_entry(chunk.coords)
            try:
                payload = reader.fetch_payload(entry)
            except CorruptChunkError as exc:
                error = exc
                break
            charge = chunk.n_elements * reader.dtype.itemsize
            self._charge(charge)
            if reader.pool is not None:
                task = reader.pool.submit(
                    decode_chunk, reader.compressor, entry, payload, reader.verify
                )
                sources.append(_TileSource("task", chunk, entry, task, charge))
            else:
                sources.append(_TileSource("payload", chunk, entry, payload, charge))
        self._pending.append((tile_sel, sources, error))

    def _collect(self, tile_sel, sources, error):
        """Finish one scheduled tile: await/execute its decodes, cache
        the results, assemble the output box."""
        reader = self.reader
        if error is not None:
            for src in sources:
                self._drop_source(src)
            raise error
        shape = tuple(s.stop - s.start for s in tile_sel)
        out = np.empty(shape, dtype=reader.dtype)
        self._charge(out.nbytes)
        try:
            for src in sources:
                if src.kind == "array":
                    data = src.value
                else:
                    if src.kind == "task":
                        data = src.value.result()
                    else:
                        data = decode_chunk(
                            reader.compressor, src.entry, src.value, reader.verify
                        )
                    reader._cache_put(src.chunk.coords, data)
                assemble_region(out, tile_sel, src.chunk, data)
                self._release(src.charge)
                src.charge = 0
        finally:
            self._release(out.nbytes)
        return tile_sel, out

    def _drop_source(self, src: _TileSource) -> None:
        if src.kind == "task":
            src.value.cancel()
        self._release(src.charge)
        src.charge = 0

    # -- iterator protocol -------------------------------------------------------

    def __iter__(self) -> "TileStream":
        return self

    def __next__(self):
        if self._closed:
            raise StopIteration
        while len(self._pending) < self.max_inflight and self._next < len(self._plan):
            self._schedule_one()
        if not self._pending:
            self._finish()
            raise StopIteration
        tile_sel, sources, error = self._pending.popleft()
        try:
            result = self._collect(tile_sel, sources, error)
        except BaseException:
            self.close()
            raise
        self._yielded += 1
        return result

    def _finish(self) -> None:
        self._closed = True
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb()

    def on_complete(self, callback) -> None:
        """Register a callback fired once, when the stream exhausts
        normally (not on error or early :meth:`close`) — the catalog's
        prefetcher hook."""
        if self._closed and not self._pending and self._next >= len(self._plan):
            callback()
            return
        self._callbacks.append(callback)

    def close(self) -> None:
        """Abandon the stream: cancel look-ahead decodes, drop pending
        tiles. The reader itself stays open and usable."""
        self._closed = True
        while self._pending:
            _, sources, _ = self._pending.popleft()
            for src in sources:
                self._drop_source(src)

    def __enter__(self) -> "TileStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
