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
3. **assemble** (:func:`assemble_region`) — copy each chunk's
   intersection into the caller's output array, where the grid placed it.

The stages are separable so a :class:`~repro.store.catalog.StoreCatalog`
can inject a shared decompressed-chunk cache (``chunk_cache``) and a
decode pool (``pool``) without duplicating any reader logic. **One chunk
path** serves :meth:`~StoreReader.read`, :meth:`~StoreReader.read_chunk`,
:class:`TileStream` and the catalog's read-ahead hints: a chunk is
*started* — a cache hit, else ``StoreReader._begin`` runs stage 1 and,
when pooled, submits stage 2 — and later *resolved* —
``StoreReader._finish`` collects the pool's result or decodes in the
caller, and the array is offered to the cache, charged the seconds per
byte its decode took where it ran (the caller, or the pool worker — never
the caller's wait for it). So a cached chunk skips
stages 1 *and* 2, the cache's own :class:`~repro.serve.cache.CacheStats`
counts each hit and miss once (``cat.stats().cache``; a miss is a
decode), and since decode is deterministic and assembly order is fixed
(flat chunk-id order), a read returns the same bytes for every worker
count and cache size; a read that only hits costs little beyond its copies.

**Where decode runs.** A reader keeps the pool it is handed only when
its store's nominal chunk decodes to at least
:data:`POOL_MIN_CHUNK_BYTES`; below that ``reader.pool`` is ``None`` and
every decode runs in the caller — so a fleet of small-chunk stores
never forks a worker (the pool builds its executor on first submit):
for millisecond decodes the process round trip is dearer than the work
(docs/ARCHITECTURE.md has the probes and the break-even sweep). With
the pool kept, a stream and a hint always submit, a ``read`` submits
only when it misses more than one chunk, and ``read_chunk`` decodes in
the caller. Either way a pure function changes where it runs, never its
bytes.

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
from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.compressors.base import CompressionResult
from repro.compressors.registry import get_compressor
from repro.obs import span
from repro.store.chunking import Chunk, ChunkGrid, _coords
from repro.store.format import FOOTER_BYTES, HEADER_BYTES, CorruptChunkError, StoreFormatError
from repro.store.format import chunk_checksum, read_manifest

#: Smallest nominal chunk (decoded bytes) whose decode is worth a process
#: round trip: a store below it drops the pool it is handed and decodes
#: in the caller. Measured, not tuned per codec — the smallest size in
#: the committed sweep (docs/ARCHITECTURE.md, "Where decode runs")
#: at which two workers were not slower than none for szx *and* sz3, on
#: ``read`` *and* ``read_iter``; ``cat.stats().pool`` (``wait_seconds``
#: against ``worker_seconds``) re-derives it on another host.
POOL_MIN_CHUNK_BYTES = 512 << 10


def decode_chunk(compressor: str, entry: dict, payload: bytes) -> np.ndarray:
    """Stage 2: decode one chunk's payload through its recorded codec.

    Pure function of ``(compressor, manifest entry, payload)`` — no file
    handles, no reader state — and every argument pickles, so this is
    also the task a decode pool runs. The codec checks the stream's own
    ``payload_check`` before it decodes.
    """
    meta = dict(entry["meta"])
    meta["shape"] = tuple(meta["shape"])
    result = CompressionResult(
        compressor=compressor,
        payload=payload,
        metadata=meta,
        original_bytes=int(entry["raw_bytes"]),
        error_bound=float(entry["error_bound"]),
    )
    return get_compressor(compressor).decompress(result)


def assemble_region(out: np.ndarray, out_sl, data: np.ndarray, chunk_sl) -> None:
    """Stage 3: copy one chunk's intersection with the region into ``out``.

    ``out_sl`` and ``chunk_sl`` are the overlap in the output's and the
    chunk's coordinates (one placement of ``ChunkGrid._placements``). The
    chunk array is only read, never written — safe for cached arrays.
    """
    out[out_sl] = data[chunk_sl]


#: What a read takes from each manifest chunk entry, and the type it needs.
_ENTRY_TYPES = {
    "coords": list,
    "offset": int,
    "nbytes": int,
    "checksum": str,
    "meta": dict,
    "raw_bytes": (int, float),
    "error_bound": (int, float),
    "achieved_ratio": (int, float),
}


class _ChunkSource(NamedTuple):
    """A chunk begun by :meth:`StoreReader._begin`: its verified payload
    and its decode, in flight on the pool (``task``) or still to run in
    the caller (``task`` is ``None``)."""

    chunk: Chunk
    entry: dict
    payload: bytes
    task: object

    def cancel(self) -> None:
        """Best effort: a decode no longer wanted leaves the pool's queue."""
        if self.task is not None:
            self.task.cancel()


class StoreReader:
    """Read side of the store: manifest introspection + random access.

    Every payload it fetches is checked against the manifest checksum.

    ``chunk_cache`` (an :class:`repro.serve.cache.LRUCache`, typically
    cost-bounded in bytes: GreedyDual, LRU when costs are equal) caches
    decompressed chunk arrays under ``(cache_scope, coords)`` keys, each
    charged its measured decode seconds per byte, so chunks that are
    dear to decode stay resident longer; arrays entering the cache are
    frozen read-only, since hits hand back the shared object. ``pool`` (a
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
        chunk_cache=None,
        cache_scope: str | None = None,
        pool=None,
    ) -> None:
        self.path = Path(path)
        self.chunk_cache = chunk_cache
        self.cache_scope = str(cache_scope) if cache_scope is not None else str(self.path)
        self._io_lock = threading.Lock()
        self._fh = open(self.path, "rb")
        try:
            self._open_manifest(pool)
        except BaseException:
            self._fh.close()
            raise

    def _open_manifest(self, pool) -> None:
        self.manifest = read_manifest(self._fh, self.path)
        self.shape = self._manifest_field("shape", lambda v: tuple(int(s) for s in v))
        self.dtype = self._manifest_field("dtype", np.dtype)
        self.chunk_shape = self._manifest_field("chunk_shape", lambda v: tuple(int(c) for c in v))
        self.compressor = self.manifest["compressor"]
        self._codec = self._manifest_field("compressor", get_compressor)
        self.grid = self._manifest_field(
            "chunk_shape", lambda _: ChunkGrid(self.shape, self.chunk_shape)
        )
        # One decision per store, from its nominal chunk: edge chunks
        # clipped below the threshold still go where their store goes.
        nominal_bytes = prod(self.grid.chunk_shape) * self.dtype.itemsize
        self.pool = pool if nominal_bytes >= POOL_MIN_CHUNK_BYTES else None
        self._entries = self._manifest_field("chunks", self._index_chunks)

    def _index_chunks(self, entries: list) -> dict:
        """``coords -> entry`` for the manifest's chunk list. Each entry is
        checked once, here — the fields a read takes from it, its coords
        on the grid, its payload between the header and the manifest — so
        a damaged one fails the open naming the chunk, not a later read."""
        self._fh.seek(-FOOTER_BYTES, 2)
        payload_end = int.from_bytes(self._fh.read(8), "little")  # the manifest's offset
        grid = self.grid.grid_shape
        index = {}
        for i, entry in enumerate(entries):
            bad = [k for k, kind in _ENTRY_TYPES.items() if not isinstance(entry.get(k), kind)]
            if bad:
                raise ValueError(f"chunk {i} lacks a valid {', '.join(bad)}")
            coords, start = entry["coords"], entry["offset"]
            if len(coords) != len(grid) or not all(c in range(g) for c, g in zip(coords, grid)):
                raise ValueError(f"chunk {i} has coords {coords} off the grid {grid}")
            if not HEADER_BYTES <= start <= start + entry["nbytes"] <= payload_end:
                raise ValueError(f"chunk {i} has a payload outside [{HEADER_BYTES}, {payload_end})")
            index[tuple(coords)] = entry
        if len(index) != self.grid.n_chunks:
            raise ValueError(f"lists {len(index)} chunks; the grid needs {self.grid.n_chunks}")
        return index

    def _manifest_field(self, name: str, parse):
        """``parse(manifest[name])``, a value it cannot take raised as a
        :class:`StoreFormatError` naming the file and the field."""
        try:
            return parse(self.manifest[name])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise StoreFormatError(
                f"{self.path.name}: manifest field {name!r} is invalid "
                f"({type(exc).__name__}: {exc})"
            ) from exc

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
        key = _coords(coords)
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

    def fetch_payload(self, entry: dict) -> bytes:
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
        if chunk_checksum(payload) != entry["checksum"]:
            raise CorruptChunkError(coords, self.path, "checksum mismatch")
        return payload

    # -- chunk access ------------------------------------------------------------

    def _cache_key(self, coords: tuple[int, ...]):
        return (self.cache_scope, coords)

    def _cache_get(self, coords: tuple[int, ...]) -> np.ndarray | None:
        """Stage-0 cache lookup, the one every read path makes, so the
        cache's :class:`~repro.serve.cache.CacheStats` accounts hits
        identically whether it is reader-private or catalog-shared."""
        if self.chunk_cache is None:
            return None
        return self.chunk_cache.get(self._cache_key(coords))

    def _cache_put(self, coords: tuple[int, ...], data: np.ndarray, seconds: float) -> bool:
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
        # Charged its decode's seconds per byte, measured where that
        # decode ran: chunks dear to decode stay resident longer.
        return self.chunk_cache.put(
            self._cache_key(coords), data, seconds / max(data.nbytes, 1)
        )

    def _begin(self, chunk, pooled: bool) -> _ChunkSource:
        """Start one chunk the cache missed: stage 1 (fetch + verify)
        now, and stage 2 submitted to the pool when ``pooled`` and this
        reader kept one — else stage 2 waits for :meth:`_finish`."""
        entry = self.chunk_entry(chunk.coords)
        payload = self.fetch_payload(entry)
        task = None
        if pooled and self.pool is not None:
            task = self.pool.submit(decode_chunk, self.compressor, entry, payload)
        return _ChunkSource(chunk, entry, payload, task)

    def _finish(self, src: _ChunkSource) -> tuple[np.ndarray, float]:
        """Stage 2 of a begun chunk: the pool's result, or a decode here,
        with the seconds the decode itself took where it ran."""
        if src.task is not None:
            data = src.task.result()
            return data, src.task.seconds
        start = perf_counter()
        data = decode_chunk(self.compressor, src.entry, src.payload)
        return data, perf_counter() - start

    def _start(self, chunk, pooled: bool):
        """A chunk's cached array, else its begun :class:`_ChunkSource`."""
        cached = self._cache_get(chunk.coords)
        return cached if cached is not None else self._begin(chunk, pooled)

    def _resolve(self, started) -> np.ndarray:
        """The array of a started chunk: a cache hit as it is, a begun
        chunk finished and offered to the cache."""
        if isinstance(started, np.ndarray):
            return started
        data, seconds = self._finish(started)
        self._cache_put(started.chunk.coords, data, seconds)
        return data

    def read_chunk(self, coords: tuple[int, ...]) -> np.ndarray:
        """Decompress one chunk; returns its array in the stored dtype.

        With a chunk cache attached, a hit skips payload fetch, checksum
        verification, and decode entirely. Any array the cache admits is
        frozen read-only (hits hand back the shared object, and the
        first miss returns that same object); chunks the cache declines
        — cache disabled, or chunk bigger than the whole budget — stay
        writeable, as in the plain uncached reader.
        """
        self.chunk_entry(coords)  # coords outside the grid: a KeyError naming it
        return self._resolve(self._start(self.grid.chunk_at(coords), pooled=False))

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
        return self._read_placed(sel, self.grid._placements(sel))

    def _read_placed(self, sel, placed) -> np.ndarray:
        """:meth:`read` of a normalized region ``sel`` already placed on
        the grid (``placed`` is ``self.grid._placements(sel)``) — the
        path a catalog takes after placing the region once for itself."""
        out = np.empty(tuple(s.stop - s.start for s in sel), dtype=self.dtype)
        with span("store.read", path=str(self.path), n_chunks=len(placed), shape=out.shape):
            # A lone miss decodes in the caller: one chunk gains nothing
            # from a process round trip.
            started = [self._cache_get(chunk.coords) for chunk, _, _ in placed]
            missing = [i for i, data in enumerate(started) if data is None]
            try:
                for i in missing:
                    started[i] = self._begin(placed[i][0], pooled=len(missing) > 1)
                for (_, out_sl, chunk_sl), src in zip(placed, started):
                    assemble_region(out, out_sl, self._resolve(src), chunk_sl)
            except BaseException:
                for src in started:
                    if isinstance(src, _ChunkSource):
                        src.cancel()
                raise
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
        region. Look-ahead tiles decode on the reader's ``pool`` while
        the caller consumes earlier ones, or lazily at yield time when
        it kept none (same bytes, no overlap).

        A corrupt chunk raises
        :class:`~repro.store.format.CorruptChunkError` naming the chunk
        — but only when *its* tile is reached, after every earlier tile
        has been yielded intact; the reader stays usable afterward.
        """
        sel = self.grid.normalize_region(region)
        return TileStream(self, sel, self.grid.plan_region(sel, tile), max_inflight)

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


class TileStream:
    """Iterator over a region's tiles with bounded look-ahead.

    Built by :meth:`StoreReader.read_iter`; yields
    ``(tile_region, ndarray)`` with ``tile_region`` a tuple of
    field-coordinate slices and the array a fresh (writeable,
    C-contiguous) copy of that box. The pipeline starts the chunks of up
    to ``max_inflight`` tiles ahead of the caller (the reader's chunk
    path, pooled) and blocks scheduling beyond that, so in-flight decoded
    bytes stay bounded by the tile working set (backpressure, not
    queueing). A fetch error is captured at schedule time and re-raised
    when its tile's turn comes, preserving yield order. :meth:`close`
    abandons look-ahead work; :attr:`stats` reports the plan and the
    observed memory peak.
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
                (sum(c.n_elements for c, _, _ in placed) + prod(s.stop - s.start for s in t))
                * itemsize
                for t, placed in plan
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

    def _cost(self, src) -> int:
        """Decoded bytes a started chunk adds until its tile is
        assembled; a cache hit is shared with the cache and adds none."""
        if isinstance(src, np.ndarray):
            return 0
        return src.chunk.n_elements * self.reader.dtype.itemsize

    def _schedule_one(self) -> None:
        """Start the next planned tile's chunks (:meth:`StoreReader._start`,
        pooled). A fetch error is deferred to the tile's own yield slot
        so earlier tiles stream intact."""
        tile_sel, placed = self._plan[self._next]
        self._next += 1
        sources: list = []
        error: Exception | None = None
        for chunk, _, _ in placed:
            try:
                src = self.reader._start(chunk, pooled=True)
            except CorruptChunkError as exc:
                error = exc
                break
            self._charge(self._cost(src))
            sources.append(src)
        self._pending.append((tile_sel, placed, sources, error))

    def _collect(self, tile_sel, placed, sources, error):
        """Finish one scheduled tile: resolve its chunks (which caches
        them) and assemble the output box where the plan placed them."""
        if error is not None:
            self._drop(sources)
            raise error
        shape = tuple(s.stop - s.start for s in tile_sel)
        out = np.empty(shape, dtype=self.reader.dtype)
        self._charge(out.nbytes)
        try:
            for (_, out_sl, chunk_sl), src in zip(placed, sources):
                assemble_region(out, out_sl, self.reader._resolve(src), chunk_sl)
                self._release(self._cost(src))
        finally:
            self._release(out.nbytes)
        return tile_sel, out

    def _drop(self, sources) -> None:
        for src in sources:
            if isinstance(src, _ChunkSource):
                src.cancel()
            self._release(self._cost(src))

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
        try:
            result = self._collect(*self._pending.popleft())
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
            self._drop(self._pending.popleft()[2])

    def __enter__(self) -> "TileStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
