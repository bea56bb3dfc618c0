"""Many ``.rps`` stores behind one façade: the sharded read service.

One :class:`~repro.store.reader.StoreReader` serves one container;
production is thousands of them. :class:`StoreCatalog` addresses a fleet
of stores by **dataset key** — populated by scanning a directory tree
for ``*.rps`` files (the key is the relative path minus the suffix) and/
or by explicit :meth:`~StoreCatalog.register` calls — and shares two
resources across every reader it opens:

- a **byte-budgeted LRU of decompressed chunks**
  (:class:`~repro.serve.cache.LRUCache` in cost mode, keyed by
  ``(dataset key + registration generation, chunk coords)``), so
  repeated subvolume reads across concurrent callers re-decode nothing
  and total cache memory stays under one budget no matter how many
  stores are open — and re-registering a key under a new path can never
  serve the old store's chunks (see :meth:`StoreCatalog.register`);
- an optional **decode pool** (:class:`~repro.serve.pool.WorkerPool`)
  that fans a read's chunk decodes out over worker processes — for the
  stores whose chunks are big enough to repay the round trip: a reader
  keeps the pool only when its nominal chunk decodes to at least
  :data:`repro.store.reader.POOL_MIN_CHUNK_BYTES`, every other store
  decodes in the caller, and a fleet of small-chunk stores never forks a
  process (see :mod:`repro.store.reader`, "Where decode runs").

Both are *injected into* the staged reader — the catalog holds no read
logic of its own, so catalog reads are byte-identical to plain
``StoreReader`` reads for every worker count and cache size. That holds
for streaming too: :meth:`StoreCatalog.read_iter` is the reader's
bounded-memory :class:`~repro.store.reader.TileStream` with the shared
resources injected. On top of the request stream the catalog can layer a
:class:`~repro.store.prefetch.Prefetcher`
(``CatalogOptions(prefetch_depth=...)``): sequential and strided scans
are detected per key and predicted next chunks are decoded into the
shared LRU after each request, so the next request (streamed or not)
hits cache instead of disk. For a store that kept the decode pool,
those hint decodes are *submitted* to idle worker slots instead of
running inline: the request that triggered them returns immediately and
the decoded chunks are harvested into the cache before the next request
is served (or whenever stats are read) — read-ahead overlaps caller
think-time without ever blocking a request on it.

Manifests load lazily: registration and scanning only record paths;
a store's file is opened (and its manifest parsed) the first time that
key is read. A corrupt chunk in one store raises
:class:`~repro.store.format.CorruptChunkError` for that read only —
every other store (and every other chunk) stays readable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.serve.cache import CacheStats, LRUCache
from repro.serve.pool import PoolStats, WorkerPool
from repro.store.prefetch import Prefetcher, PrefetchStats
from repro.store.reader import StoreReader, TileStream

#: Default shared chunk-cache budget: 256 MiB of decompressed chunks.
DEFAULT_CACHE_BYTES = 256 << 20


@dataclass(frozen=True)
class CatalogStats:
    """Typed, immutable catalog accounting: fleet size, shared-cache
    traffic and cost, decode-pool task counts and wait/work seconds
    (``None`` without workers).

    The typed counterpart of the dict :meth:`StoreCatalog.stats` used to
    return; :meth:`as_dict` preserves that shape for serialization.
    """

    stores_registered: int
    stores_open: int
    cache: CacheStats
    cache_cost_bytes: float
    cache_budget_bytes: float
    pool: PoolStats | None = None
    prefetch: PrefetchStats | None = None

    def as_dict(self) -> dict:
        out = {
            "stores_registered": self.stores_registered,
            "stores_open": self.stores_open,
            "cache": self.cache.as_dict(),
            "cache_cost_bytes": self.cache_cost_bytes,
            "cache_budget_bytes": self.cache_budget_bytes,
        }
        if self.pool is not None:
            out["pool"] = self.pool.as_dict()
        if self.prefetch is not None:
            out["prefetch"] = self.prefetch.as_dict()
        return out


@dataclass(frozen=True, kw_only=True)
class CatalogOptions:
    """Frozen, hashable catalog configuration.

    ``cache_bytes`` budgets the shared decompressed-chunk LRU (0 disables
    caching; every read decodes). ``workers`` fans chunk decode out over
    a process pool (0 keeps decode in-process) for stores whose nominal
    chunk decodes to at least
    :data:`repro.store.reader.POOL_MIN_CHUNK_BYTES`; smaller-chunk stores
    decode in the caller whatever ``workers`` says (a process round trip
    costs more than their decode), and no worker is forked until a store
    that qualifies is read — ``stats().pool`` then simply counts 0 tasks.
    ``verify=False`` skips checksum verification on payload fetch for
    trusted local media.
    ``prefetch_depth`` enables catalog-driven read-ahead: after a key's
    request stream shows ``prefetch_min_run`` consecutive requests at
    one stride (sequential scans included), up to ``prefetch_depth``
    predicted chunks are decoded into the shared cache ahead of the next
    request (0, the default, turns the prefetcher off entirely).
    """

    cache_bytes: int = DEFAULT_CACHE_BYTES
    workers: int = 0
    max_pending: int = 32
    timeout_seconds: float = 30.0
    verify: bool = True
    prefetch_depth: int = 0
    prefetch_min_run: int = 2

    def __post_init__(self) -> None:
        if self.cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be > 0")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if self.prefetch_min_run < 2:
            raise ValueError("prefetch_min_run must be >= 2")


class StoreCatalog:
    """Addresses many ``.rps`` stores by dataset key, with a shared
    byte-budgeted chunk cache and optional parallel decode.

    ``root``, if given, is scanned immediately (see :meth:`scan`);
    more stores can be added any time via :meth:`register` or further
    scans. Keys are plain strings; scanning derives them from relative
    paths (``climate/temp.rps`` → ``climate/temp``).
    """

    def __init__(self, root=None, *, options: CatalogOptions | None = None) -> None:
        self.options = options or CatalogOptions()
        self._paths: dict[str, Path] = {}
        self._readers: dict[str, StoreReader] = {}
        # Per-key re-registration generation, folded into each reader's
        # cache scope so a re-pointed key can never hit the old store's
        # cached chunks (see register()).
        self._gens: dict[str, int] = {}
        self._lock = threading.Lock()
        self.chunk_cache = LRUCache(
            max_entries=None,
            max_cost=float(self.options.cache_bytes),
        )
        # Read-ahead: advisory, decoupled from serving (see repro.store.prefetch).
        self.prefetcher: Prefetcher | None = None
        self._prefetch_lock = threading.Lock()
        self._prefetch_pending: set = set()  # issued cache keys not yet consumed
        # Hint decodes running on the pool, not yet admitted to the cache:
        # (key, reader, coords, cache_key, PoolTask) records, harvested
        # opportunistically (see _harvest_hints).
        self._prefetch_inflight: list = []
        self._prefetch_issued = 0
        self._prefetch_hits = 0
        self._prefetch_wasted = 0
        if self.options.prefetch_depth > 0:
            self.prefetcher = Prefetcher(
                depth=self.options.prefetch_depth,
                min_run=self.options.prefetch_min_run,
            )
        # Scan before spawning workers: a bad root raises here, and at
        # this point there is no pool to leak.
        self.pool: WorkerPool | None = None
        if root is not None:
            self.scan(root)
        if self.options.workers > 0:
            self.pool = WorkerPool(
                self.options.workers,
                max_pending=self.options.max_pending,
                timeout=self.options.timeout_seconds,
            )

    # -- registration ------------------------------------------------------------

    def register(self, key: str, path) -> None:
        """Register one store under ``key``. Lazy: the file is not opened
        (nor required to exist yet) until the key is first read.

        Re-pointing an existing key to a different path retires its open
        reader and its cached chunks: the key's cache-scope generation
        is bumped (so even an in-flight read of the old store can never
        repopulate entries the new store would hit) and the old
        generation's entries are evicted eagerly to free budget. The
        displaced reader is *not* closed here — reads already in flight
        on it finish normally against the old store, and its file handle
        closes when the last reference is dropped.
        """
        key = str(key)
        with self._lock:
            old = self._paths.get(key)
            repointed = old is not None and Path(path) != old
            if repointed:
                old_scope = self._scope(key)
                self._gens[key] = self._gens.get(key, 0) + 1
                self._readers.pop(key, None)
            self._paths[key] = Path(path)
        if repointed:
            self.chunk_cache.evict_scope(old_scope)
            if self.prefetcher is not None:
                self.prefetcher.forget(key)

    def _scope(self, key: str) -> str:
        """Cache scope for ``key``'s current generation. The generation
        is always the final ``#``-separated segment, so two scopes are
        equal only for the same (key, generation) pair — no collisions
        even for keys that themselves contain ``#``. Caller must hold
        ``self._lock``."""
        return f"{key}#{self._gens.get(key, 0)}"

    def scan(self, root) -> list[str]:
        """Scan ``root`` recursively for ``*.rps`` files and register each
        under its relative path without the suffix. Returns the keys
        found (sorted), whether or not they were already registered."""
        root = Path(root)
        if not root.is_dir():
            raise FileNotFoundError(f"catalog root is not a directory: {root}")
        found: list[str] = []
        for path in sorted(root.rglob("*.rps")):
            key = path.relative_to(root).with_suffix("").as_posix()
            self.register(key, path)
            found.append(key)
        return found

    # -- key access --------------------------------------------------------------

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._paths)

    def __contains__(self, key) -> bool:
        with self._lock:
            return str(key) in self._paths

    def __len__(self) -> int:
        with self._lock:
            return len(self._paths)

    def path(self, key: str) -> Path:
        """The registered path for ``key`` (whether or not it is open)."""
        with self._lock:
            try:
                return self._paths[str(key)]
            except KeyError:
                raise KeyError(
                    f"no store registered under {key!r} "
                    f"({len(self._paths)} keys registered)"
                ) from None

    def reader(self, key: str) -> StoreReader:
        """The (lazily opened) reader for ``key``, with the shared chunk
        cache and decode pool injected."""
        key = str(key)
        with self._lock:
            reader = self._readers.get(key)
            if reader is not None:
                return reader
            try:
                path = self._paths[key]
            except KeyError:
                raise KeyError(
                    f"no store registered under {key!r} "
                    f"({len(self._paths)} keys registered)"
                ) from None
            reader = StoreReader(
                path,
                verify=self.options.verify,
                chunk_cache=self.chunk_cache,
                cache_scope=self._scope(key),
                pool=self.pool,
            )
            self._readers[key] = reader
            return reader

    __getitem__ = reader

    # -- reads -------------------------------------------------------------------

    def read(self, key: str, region=None) -> np.ndarray:
        """Read a subvolume (or the whole field, ``region=None``) from the
        store registered under ``key``. With a prefetcher configured, the
        request is recorded *after* it is served and any predicted
        next-request chunks are decoded into the shared cache."""
        key = str(key)
        reader = self.reader(key)
        if self.prefetcher is None:
            return reader.read(region)
        chunks = reader.grid.chunks_intersecting(region)
        self._settle_pending(reader, chunks)
        out = reader.read(region)
        self._after_request(key, reader, chunks)
        return out

    def read_iter(
        self, key: str, region=None, *, tile=None, max_inflight: int = 2
    ) -> TileStream:
        """Stream a subvolume as bounded-memory ``(tile_region, array)``
        pieces — :meth:`StoreReader.read_iter` with the catalog's shared
        cache and decode pool injected, plus prefetch observation: the
        request joins the key's stream when the stream *completes*, so
        read-ahead for the next request never competes with this one's
        decodes."""
        key = str(key)
        reader = self.reader(key)
        if self.prefetcher is None:
            return reader.read_iter(region, tile=tile, max_inflight=max_inflight)
        chunks = reader.grid.chunks_intersecting(region)
        self._settle_pending(reader, chunks)
        stream = reader.read_iter(region, tile=tile, max_inflight=max_inflight)
        stream.on_complete(lambda: self._after_request(key, reader, chunks))
        return stream

    def read_chunk(self, key: str, coords: tuple[int, ...]) -> np.ndarray:
        """Decompress (or serve from cache) one chunk of one store."""
        return self.reader(key).read_chunk(coords)

    def info(self, key: str) -> dict:
        return self.reader(key).info()

    # -- prefetch ----------------------------------------------------------------

    def _settle_pending(self, reader: StoreReader, chunks) -> None:
        """Account prefetch outcomes *before* a request (the ``chunks``
        it intersects) is served, while cache residency still reflects
        what the request will see: an issued chunk this request covers
        is a **hit** if still resident (the read about to happen
        consumes it from cache) and **wasted** if the LRU already
        dropped it; issued chunks outside the request stay pending
        unless evicted. Async hint decodes that have finished by now are
        admitted first, so the request sees every chunk prefetch managed
        to land."""
        self._harvest_hints()
        request = {reader._cache_key(chunk.coords) for chunk in chunks}
        with self._prefetch_lock:
            for cache_key in list(self._prefetch_pending):
                resident = cache_key in self.chunk_cache
                if cache_key in request and resident:
                    self._prefetch_pending.discard(cache_key)
                    self._prefetch_hits += 1
                elif not resident:
                    self._prefetch_pending.discard(cache_key)
                    self._prefetch_wasted += 1

    def _after_request(self, key: str, reader: StoreReader, chunks) -> None:
        """Record a served request (the ``chunks`` it intersected) with
        the prefetcher and issue the hints it unlocks. Hint *prediction*
        is a pure function of the key's request history; hint *issuance*
        skips chunks the cache already holds (see
        :mod:`repro.store.prefetch`)."""
        hints = self.prefetcher.predict(
            key, [c.index for c in chunks], reader.n_chunks
        )
        for chunk_id in hints:
            self._issue_hint(key, reader, chunk_id)

    def _issue_hint(self, key: str, reader: StoreReader, chunk_id: int) -> None:
        """Decode one predicted chunk into the shared cache. Best-effort:
        an unhelpful hint (cache disabled, chunk already resident, chunk
        too big to admit, or a fetch/decode failure) is simply skipped —
        prefetch must never fail or slow a request stream, and a corrupt
        chunk stays the *read* path's error to raise.

        When the reader kept a decode pool, the payload is fetched
        inline (file I/O is serialized on the reader anyway) but the
        CPU-bound decode is submitted to an idle worker slot and
        harvested later (:meth:`_harvest_hints`) — read-ahead overlaps
        with whatever the caller does next instead of stretching its
        request."""
        from repro.store.reader import decode_chunk

        chunk = reader.grid.chunk(int(chunk_id))
        cache_key = reader._cache_key(chunk.coords)
        if self.chunk_cache.disabled or cache_key in self.chunk_cache:
            return
        try:
            entry = reader.chunk_entry(chunk.coords)
            payload = reader.fetch_payload(entry)
        except Exception:
            return
        if reader.pool is not None:
            task = reader.pool.submit(
                decode_chunk, reader.compressor, entry, payload, reader.verify
            )
            with self._prefetch_lock:
                self._prefetch_inflight.append(
                    (key, reader, chunk.coords, cache_key, task)
                )
            return
        try:
            data = decode_chunk(reader.compressor, entry, payload, reader.verify)
        except Exception:
            return
        self._admit_hint(key, reader, chunk.coords, cache_key, data)

    def _admit_hint(self, key: str, reader: StoreReader,
                    coords: tuple[int, ...], cache_key, data) -> None:
        """Admit one decoded hint chunk to the shared cache and count it
        as issued. A hint whose reader was retired (the key re-pointed
        while the decode ran) is dropped — its cache scope is already
        evicted and its bytes belong to the old store; counting only
        *admitted* hints keeps ``issued >= hits + wasted`` exact."""
        with self._lock:
            current = self._readers.get(key) is reader
        if not current or not reader._cache_put(coords, data):
            return
        with self._prefetch_lock:
            self._prefetch_pending.add(cache_key)
            self._prefetch_issued += 1

    def _harvest_hints(self) -> None:
        """Collect async hint decodes that have finished and admit their
        chunks. Non-blocking: tasks still running stay in flight (the
        read path never waits on read-ahead), and a decode that failed
        is dropped silently, same as the inline path."""
        with self._prefetch_lock:
            if not self._prefetch_inflight:
                return
            inflight, self._prefetch_inflight = self._prefetch_inflight, []
        ready, still = [], []
        for rec in inflight:
            (ready if rec[4].done() else still).append(rec)
        if still:
            with self._prefetch_lock:
                self._prefetch_inflight.extend(still)
        for key, reader, coords, cache_key, task in ready:
            try:
                data = task.result()
            except Exception:
                continue
            self._admit_hint(key, reader, coords, cache_key, data)

    def prefetch_stats(self) -> PrefetchStats:
        """A :class:`PrefetchStats` snapshot (all zeros when the
        prefetcher is off). Harvests finished async hints first, so the
        snapshot reflects every decode that has completed by now."""
        self._harvest_hints()
        with self._prefetch_lock:
            return PrefetchStats(
                issued=self._prefetch_issued,
                hits=self._prefetch_hits,
                wasted=self._prefetch_wasted,
            )

    # -- accounting --------------------------------------------------------------

    def stats(self) -> CatalogStats:
        """A :class:`CatalogStats` snapshot: fleet size, cache hit rate
        and cost, pool task counts (``stats().as_dict()`` recovers the
        pre-typed dict)."""
        with self._lock:
            registered = len(self._paths)
            opened = len(self._readers)
        return CatalogStats(
            stores_registered=registered,
            stores_open=opened,
            cache=self.chunk_cache.stats,
            cache_cost_bytes=self.chunk_cache.total_cost,
            cache_budget_bytes=float(self.options.cache_bytes),
            pool=None if self.pool is None else self.pool.stats,
            prefetch=None if self.prefetcher is None else self.prefetch_stats(),
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close every open reader, drop the cache, shut the pool down.
        In-flight hint decodes are cancelled, not awaited — read-ahead
        for requests that will never come is not worth waiting on (a
        hint already running on a worker finishes with the pool's
        shutdown, its result discarded)."""
        with self._prefetch_lock:
            inflight, self._prefetch_inflight = self._prefetch_inflight, []
        for rec in inflight:
            rec[4].cancel()
        with self._lock:
            readers, self._readers = list(self._readers.values()), {}
        for reader in readers:
            reader.close()
        self.chunk_cache.clear()
        if self.pool is not None:
            self.pool.shutdown()

    def __enter__(self) -> "StoreCatalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StoreCatalog({len(self)} stores, "
            f"cache_bytes={self.options.cache_bytes}, "
            f"workers={self.options.workers})"
        )
