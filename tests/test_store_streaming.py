"""Streaming reads (``read_iter``): the property harness.

The streaming contract under test, end to end:

- concatenating a stream's tiles reproduces ``read()`` **byte-for-byte**
  for every worker count x tile shape x ``max_inflight`` x cache size
  (decode is pure, the tile plan is fixed up front);
- tiles arrive in the deterministic plan order
  (:meth:`ChunkGrid.plan_region`) and partition the region exactly;
- in-flight decoded bytes never exceed twice the ``max_inflight`` tile
  budget (backpressure, not queueing);
- a corrupt chunk surfaces as :class:`CorruptChunkError` naming the
  chunk at *its own* yield slot — every earlier tile streams intact,
  and the reader stays usable afterward.

The store shape is deliberately not divisible by the chunk shape on any
axis, so every configuration also crosses edge-clipped chunks.
"""

import re
import shutil

import numpy as np
import pytest

import repro.store.reader as reader_mod
from repro import CarolFramework, load_dataset, load_field
from repro.store import (
    CatalogOptions,
    CorruptChunkError,
    Store,
    StoreCatalog,
    StoreOptions,
    pack,
)

SHAPE = (20, 30, 30)  # 8 ∤ 20, 16 ∤ 30: edge-clipped chunks on every axis
CHUNK = (8, 16, 16)
TARGET = 8.0
REL = np.geomspace(1e-3, 3e-1, 8)

WORKER_COUNTS = (0, 1, 2, 4)
CACHE_SIZES = (0, 64 << 20)
MAX_INFLIGHT = (1, 2, 8)
TILE_SHAPES = (None, CHUNK, (5, 12, 16), SHAPE)


def tiles(grid, region, tile=None):
    """The tiles of ``region``'s streaming plan, in plan order."""
    return [t for t, _ in grid.plan_region(grid.normalize_region(region), tile)]


@pytest.fixture(scope="module")
def fitted():
    fw = CarolFramework(compressor="szx", rel_error_bounds=REL, n_iter=6, cv=2)
    fw.fit(load_dataset("miranda", shape=CHUNK))
    return fw


@pytest.fixture(scope="module")
def store_root(fitted, tmp_path_factory):
    """One packed store plus the exact bytes any correct read returns."""
    root = tmp_path_factory.mktemp("streaming")
    field = load_field("miranda/pressure", shape=SHAPE, seed=7)
    pack(root / "field.rps", field, fitted, TARGET, options=StoreOptions(chunk_shape=CHUNK))
    with Store(root / "field.rps") as st:
        expected = st.read()
    return root, expected


def random_region(rng) -> tuple[slice, ...]:
    """A non-empty axis-aligned box at seeded-random offsets."""
    region = []
    for n in SHAPE:
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo + 1, n + 1))
        region.append(slice(lo, hi))
    return tuple(region)


def assemble(stream, sel, dtype):
    """Scatter a stream into a region-shaped buffer; returns the buffer
    and the observed tile order. Asserts the tiles partition the region
    (every cell written exactly once)."""
    out_shape = tuple(s.stop - s.start for s in sel)
    out = np.zeros(out_shape, dtype=dtype)
    covered = np.zeros(out_shape, dtype=bool)
    order = []
    for tile_sel, tile in stream:
        local = tuple(
            slice(t.start - s.start, t.stop - s.start) for t, s in zip(tile_sel, sel)
        )
        assert not covered[local].any(), "tile overlaps an earlier tile"
        covered[local] = True
        out[local] = tile
        order.append(tile_sel)
    assert covered.all(), "tiles did not cover the region"
    return out, order


class TestStreamMatchesRead:
    """The property cross: every configuration streams the same bytes."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("cache_bytes", CACHE_SIZES)
    def test_byte_identity_across_configurations(
        self, store_root, workers, cache_bytes, property_rng, pool_small_chunks
    ):
        root, expected = store_root
        regions = [
            None,  # whole field
            (slice(16, 20), slice(16, 30), slice(16, 30)),  # pure edge-clipped corner
            random_region(property_rng),
            random_region(property_rng),
        ]
        options = CatalogOptions(cache_bytes=cache_bytes, workers=workers)
        with StoreCatalog(root, options=options) as cat:
            reader = cat.reader("field")
            for region in regions:
                sel = reader.grid.normalize_region(region)
                want = expected[sel]
                plan = tiles(reader.grid, sel)
                for tile in TILE_SHAPES:
                    for max_inflight in MAX_INFLIGHT:
                        stream = cat.read_iter(
                            "field", region, tile=tile, max_inflight=max_inflight
                        )
                        got, order = assemble(stream, sel, expected.dtype)
                        assert got.tobytes() == want.tobytes()
                        # deterministic plan order, independent of config
                        assert order == tiles(reader.grid, sel, tile)
                        stats = stream.stats
                        assert stats.tiles_yielded == stats.tiles_total == len(order)
                        assert stats.peak_inflight_bytes <= 2 * stats.budget_bytes
                assert plan == tiles(reader.grid, sel)  # plan is pure
            if workers:
                assert cat.stats().pool.submitted > 0

    def test_empty_region_yields_nothing(self, store_root):
        root, _ = store_root
        with Store(root / "field.rps") as st:
            for tile in TILE_SHAPES:
                stream = st.read_iter(
                    (slice(5, 5), slice(0, 30), slice(0, 30)), tile=tile
                )
                assert list(stream) == []
                assert stream.stats.tiles_total == 0
                assert stream.stats.peak_inflight_bytes == 0

    def test_plain_reader_and_catalog_streams_agree(self, store_root):
        root, expected = store_root
        with Store(root / "field.rps") as st:
            sel = st.grid.normalize_region(None)
            got, order = assemble(st.read_iter(max_inflight=4), sel, expected.dtype)
        np.testing.assert_array_equal(got, expected)
        assert order == tiles(st.grid, None)

    def test_stream_is_context_manager(self, store_root):
        root, expected = store_root
        with Store(root / "field.rps") as st:
            with st.read_iter(max_inflight=2) as stream:
                tile_sel, tile = next(iter(stream))
                np.testing.assert_array_equal(tile, expected[tile_sel])
            # closed: abandoned look-ahead, iteration over
            assert list(stream) == []


NOMINAL_BYTES = int(np.prod(CHUNK)) * 4  # the float32 store's nominal chunk


class TestDecodeSite:
    """One decision per store, from its nominal chunk: at or above
    ``POOL_MIN_CHUNK_BYTES`` the reader keeps the injected pool, below it
    every decode runs in the caller — and the bytes never differ."""

    @pytest.mark.parametrize("workers", (0, 1, 2))
    @pytest.mark.parametrize("side", ("below", "at", "above"))
    def test_same_bytes_on_both_sides_of_the_threshold(
        self, store_root, workers, side, monkeypatch
    ):
        threshold = NOMINAL_BYTES + {"below": 1, "at": 0, "above": -1}[side]
        monkeypatch.setattr(reader_mod, "POOL_MIN_CHUNK_BYTES", threshold)
        root, expected = store_root
        pooled = workers > 0 and side != "below"
        options = CatalogOptions(cache_bytes=64 << 20, workers=workers, prefetch_depth=4)
        with StoreCatalog(root, options=options) as cat:
            assert (cat.reader("field").pool is not None) == pooled
            for lo in (0, 8, 16):  # slab scan: the third request lands on hints
                slab = (slice(lo, min(lo + 8, SHAPE[0])),)
                assert cat.read("field", slab).tobytes() == expected[slab].tobytes()
                cat.prefetch_stats()  # harvest whatever hint decodes finished
            got, _ = assemble(
                cat.read_iter("field", max_inflight=4),
                cat.reader("field").grid.normalize_region(None),
                expected.dtype,
            )
            assert got.tobytes() == expected.tobytes()
        with StoreCatalog(root, options=CatalogOptions(cache_bytes=0, workers=workers)) as cat:
            assert cat.read("field").tobytes() == expected.tobytes()
            got, _ = assemble(
                cat.read_iter("field", tile=(5, 12, 16), max_inflight=2),
                cat.reader("field").grid.normalize_region(None),
                expected.dtype,
            )
            assert got.tobytes() == expected.tobytes()
            if workers:
                assert (cat.stats().pool.submitted > 0) == pooled
                assert (cat.pool._executor is not None) == pooled

    def test_clipped_edge_chunks_go_where_their_store_goes(self, store_root, monkeypatch):
        monkeypatch.setattr(reader_mod, "POOL_MIN_CHUNK_BYTES", NOMINAL_BYTES)
        root, expected = store_root
        corner = (slice(16, 20), slice(16, 30), slice(16, 30))  # one 4x14x14 chunk
        with StoreCatalog(root, options=CatalogOptions(cache_bytes=0, workers=1)) as cat:
            ((tile_sel, tile),) = list(cat.read_iter("field", corner))
            assert tile.nbytes < NOMINAL_BYTES
            assert tile.tobytes() == expected[tile_sel].tobytes()
            assert cat.stats().pool.submitted == 1

    @pytest.mark.parametrize("pooled", (False, True))
    def test_single_chunk_store(self, fitted, tmp_path, pooled, monkeypatch):
        """The nominal chunk of a one-chunk store is the field itself,
        whatever chunk shape it was packed with."""
        monkeypatch.setattr(
            reader_mod, "POOL_MIN_CHUNK_BYTES", NOMINAL_BYTES + (0 if pooled else 1)
        )
        field = load_field("miranda/pressure", shape=CHUNK, seed=11)
        path = tmp_path / "one.rps"
        pack(path, field, fitted, TARGET, options=StoreOptions(chunk_shape=(16, 32, 32)))
        with Store(path) as plain:
            assert plain.n_chunks == 1
            whole = plain.read()
        with StoreCatalog(tmp_path, options=CatalogOptions(cache_bytes=0, workers=2)) as cat:
            assert (cat.reader("one").pool is not None) == pooled
            assert cat.read("one").tobytes() == whole.tobytes()
            ((_, tile),) = list(cat.read_iter("one"))
            assert tile.tobytes() == whole.tobytes()
            # read() decodes a lone chunk in the caller; the stream submits it
            assert cat.stats().pool.submitted == (1 if pooled else 0)


class TestBackpressure:
    def test_peak_stays_within_budget_and_below_materialized(self, store_root):
        root, expected = store_root
        with Store(root / "field.rps") as st:
            stream = st.read_iter(max_inflight=1)
            for _ in stream:
                pass
            stats = stream.stats
        assert 0 < stats.peak_inflight_bytes <= 2 * stats.budget_bytes
        # streaming the whole field never holds the whole field
        assert stats.budget_bytes < expected.nbytes

    @pytest.mark.parametrize("max_inflight", MAX_INFLIGHT)
    def test_budget_scales_with_max_inflight(self, store_root, max_inflight):
        root, _ = store_root
        with Store(root / "field.rps") as st:
            stream = st.read_iter(max_inflight=max_inflight)
            stats = stream.stats
            assert stats.budget_bytes == max_inflight * stats.max_tile_cost_bytes
            stream.close()

    @pytest.mark.parametrize("tile", TILE_SHAPES)
    def test_tile_cost_is_decoded_chunks_plus_output_box(self, store_root, tile):
        root, expected = store_root
        with Store(root / "field.rps") as st:
            region = (slice(3, 19), slice(5, 30), slice(0, 17))
            stream = st.read_iter(region, tile=tile)
            want = max(
                sum(int(np.prod(c.shape)) for c, _, _ in st.grid._placements(t))
                + int(np.prod([s.stop - s.start for s in t]))
                for t in tiles(st.grid, region, tile)
            ) * expected.itemsize
            assert stream.stats.max_tile_cost_bytes == want
            stream.close()

    def test_invalid_arguments_rejected(self, store_root):
        root, _ = store_root
        with Store(root / "field.rps") as st:
            with pytest.raises(ValueError, match="max_inflight"):
                st.read_iter(max_inflight=0)
            with pytest.raises(ValueError, match="rank"):
                st.read_iter(tile=(8, 16))
            with pytest.raises(ValueError, match="positive"):
                st.read_iter(tile=(0, 16, 16))


class TestCorruptionMidStream:
    """A bitflipped or truncated chunk fails *its* tile, in order."""

    @pytest.fixture()
    def corrupt_store(self, store_root, tmp_path):
        """A copy of the store with one mid-file chunk bitflipped.

        Returns ``(path, coords, bad_id)`` where ``bad_id`` is the
        victim's flat chunk id — with ``tile=None`` streams, also the
        index of the tile that must raise.
        """
        root, _ = store_root
        path = tmp_path / "corrupt.rps"
        shutil.copyfile(root / "field.rps", path)
        with Store(path) as st:
            grid = st.grid
            bad_id = grid.n_chunks // 2
            coords = grid.chunk(bad_id).coords
            victim = st.chunk_entry(coords)
        blob = bytearray(path.read_bytes())
        blob[victim["offset"]] ^= 0xFF
        path.write_bytes(bytes(blob))
        return path, coords, bad_id

    @pytest.mark.parametrize("workers", (0, 2))
    @pytest.mark.parametrize("max_inflight", (1, 8))
    def test_bitflip_raises_at_its_tile_after_earlier_tiles(
        self, corrupt_store, store_root, workers, max_inflight, tmp_path, pool_small_chunks
    ):
        path, coords, bad_id = corrupt_store
        _, expected = store_root
        options = CatalogOptions(cache_bytes=0, workers=workers)
        with StoreCatalog(tmp_path, options=options) as cat:
            cat.register("bad", path)
            stream = cat.read_iter("bad", max_inflight=max_inflight)
            it = iter(stream)
            # with max_inflight=8 the error is *captured* while earlier
            # tiles are still pending; it must still be *raised* in order
            for _ in range(bad_id):
                tile_sel, tile = next(it)
                np.testing.assert_array_equal(tile, expected[tile_sel])
            with pytest.raises(CorruptChunkError, match=re.escape(str(coords))):
                next(it)
            assert stream.stats.tiles_yielded == bad_id

            # the reader survives: clean chunks and fresh streams still work
            reader = cat.reader("bad")
            clean = reader.grid.chunk(0)
            np.testing.assert_array_equal(
                cat.read_chunk("bad", clean.coords), expected[clean.slices]
            )
            clean_region = tuple(slice(0, c) for c in CHUNK)
            sel = reader.grid.normalize_region(clean_region)
            got, _ = assemble(
                cat.read_iter("bad", clean_region), sel, expected.dtype
            )
            assert got.tobytes() == expected[sel].tobytes()
            if workers:
                assert cat.stats().pool.submitted > 0

    def test_truncated_payload_raises_in_order(self, store_root, tmp_path):
        root, expected = store_root
        path = tmp_path / "trunc.rps"
        shutil.copyfile(root / "field.rps", path)
        with Store(path) as st:
            bad_id = st.grid.n_chunks // 2
            coords = st.grid.chunk(bad_id).coords
            # lie about the payload length: the fetch comes up short
            st._entries[coords]["nbytes"] = 1 << 30
            it = iter(st.read_iter(max_inflight=2))
            for _ in range(bad_id):
                tile_sel, tile = next(it)
                np.testing.assert_array_equal(tile, expected[tile_sel])
            with pytest.raises(CorruptChunkError, match="truncated"):
                next(it)

    def test_close_midway_leaves_reader_usable(self, store_root, pool_small_chunks):
        root, expected = store_root
        options = CatalogOptions(cache_bytes=0, workers=2)
        with StoreCatalog(root, options=options) as cat:
            stream = cat.read_iter("field", max_inflight=8)
            next(iter(stream))
            stream.close()  # cancels the look-ahead decodes
            assert list(stream) == []
            np.testing.assert_array_equal(cat.read("field"), expected)
            assert cat.stats().pool.submitted > 0


class TestStreamObservability:
    def test_tiles_streamed_counter(self, store_root):
        root, _ = store_root
        with Store(root / "field.rps") as st:
            stream = st.read_iter()
            n = sum(1 for _ in stream)
            assert n > 0
            assert stream.stats.tiles_yielded == n == stream.stats.tiles_total
