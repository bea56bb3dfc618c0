"""Deterministic chunk grids: tiling, enumeration, region intersection."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from repro.store.chunking import Chunk, ChunkGrid, default_chunk_shape


class TestDefaultChunkShape:
    def test_small_field_is_one_chunk(self):
        assert default_chunk_shape((4, 5, 6), target_elements=1000) == (4, 5, 6)

    def test_halves_largest_axis_until_fit(self):
        shape = default_chunk_shape((64, 64, 64), target_elements=32768)
        assert np.prod(shape) <= 32768
        assert all(1 <= c <= 64 for c in shape)

    def test_deterministic(self):
        a = default_chunk_shape((100, 200, 300), target_elements=4096)
        b = default_chunk_shape((100, 200, 300), target_elements=4096)
        assert a == b

    def test_degenerate_axis_never_zero(self):
        shape = default_chunk_shape((1, 1, 7), target_elements=2)
        assert all(c >= 1 for c in shape)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target_elements"):
            default_chunk_shape((4, 4), target_elements=0)


class TestGridBasics:
    def test_grid_shape_and_count(self):
        grid = ChunkGrid((10, 10), (4, 5))
        assert grid.grid_shape == (3, 2)
        assert grid.n_chunks == 6
        assert len(grid) == 6

    def test_chunk_shape_clipped_to_field(self):
        grid = ChunkGrid((3, 4), (10, 10))
        assert grid.chunk_shape == (3, 4)
        assert grid.n_chunks == 1

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            ChunkGrid((4, 4), (2,))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ChunkGrid((4, 0), (2, 2))
        with pytest.raises(ValueError):
            ChunkGrid((4, 4), (0, 2))

    def test_for_shape_derives_default(self):
        grid = ChunkGrid.for_shape((20, 20), target_elements=100)
        assert np.prod(grid.chunk_shape) <= 100


class TestTiling:
    def test_chunks_tile_field_exactly_once(self):
        grid = ChunkGrid((7, 10, 5), (3, 4, 5))
        cover = np.zeros((7, 10, 5), dtype=int)
        for chunk in grid:
            cover[chunk.slices] += 1
        assert (cover == 1).all()

    def test_iteration_is_flat_id_order(self):
        grid = ChunkGrid((6, 6), (3, 2))
        ids = [c.index for c in grid]
        assert ids == list(range(grid.n_chunks))

    def test_chunk_roundtrip_by_index_and_coords(self):
        grid = ChunkGrid((6, 7, 8), (2, 3, 4))
        for chunk in grid:
            assert grid.chunk(chunk.index) == chunk
            assert grid.chunk_at(chunk.coords) == chunk

    def test_edge_chunk_clipped(self):
        grid = ChunkGrid((7,), (3,))
        last = grid.chunk(grid.n_chunks - 1)
        assert last.slices == (slice(6, 7),)
        assert last.shape == (1,)
        assert last.n_elements == 1

    def test_out_of_range_rejected(self):
        grid = ChunkGrid((6, 6), (3, 3))
        with pytest.raises(IndexError):
            grid.chunk(99)
        with pytest.raises(IndexError):
            grid.chunk_at((5, 0))


class TestRegions:
    def test_normalize_none_is_full_field(self):
        grid = ChunkGrid((6, 8), (3, 4))
        assert grid.normalize_region(None) == (slice(0, 6), slice(0, 8))
        assert grid.normalize_region(Ellipsis) == (slice(0, 6), slice(0, 8))

    def test_normalize_mixed_int_and_slice(self):
        grid = ChunkGrid((6, 8), (3, 4))
        assert grid.normalize_region((2, slice(1, 5))) == (slice(2, 3), slice(1, 5))

    def test_normalize_negative_index(self):
        grid = ChunkGrid((6, 8), (3, 4))
        assert grid.normalize_region((-1,)) == (slice(5, 6), slice(0, 8))

    def test_normalize_ellipsis_mid_tuple(self):
        grid = ChunkGrid((4, 5, 6), (2, 2, 2))
        assert grid.normalize_region((1, Ellipsis)) == (
            slice(1, 2),
            slice(0, 5),
            slice(0, 6),
        )

    def test_strided_rejected(self):
        grid = ChunkGrid((6, 8), (3, 4))
        with pytest.raises(ValueError, match="strided"):
            grid.normalize_region((slice(0, 6, 2),))

    def test_too_many_axes_rejected(self):
        grid = ChunkGrid((6,), (3,))
        with pytest.raises(ValueError, match="axes"):
            grid.normalize_region((slice(None), slice(None)))

    def test_out_of_bounds_int_rejected(self):
        grid = ChunkGrid((6,), (3,))
        with pytest.raises(IndexError):
            grid.normalize_region((6,))

    @pytest.mark.parametrize("index", [1.7, "2", np.float32(2.9), True, np.True_, None])
    def test_non_integer_index_rejected(self, index):
        # NumPy refuses a float or str index and reads a bool as a mask:
        # none of them may select a truncated row
        grid = ChunkGrid((6, 8), (4, 4))
        with pytest.raises(IndexError, match="axis 0"):
            grid.normalize_region((index,))

    def test_intersection_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        grids = [ChunkGrid((9, 11, 7), (4, 3, 5)), ChunkGrid((5, 3), (8, 3))]
        for _ in range(60):
            rank = int(rng.integers(1, 5))
            shape = tuple(int(s) for s in rng.integers(1, 10, size=rank))
            # edge chunks clipped by the field, and chunks past the field
            chunk = tuple(int(c) for c in rng.integers(1, 12, size=rank))
            grids.append(ChunkGrid(shape, chunk))
        for grid in grids:
            chunks = list(grid)
            for c in chunks:
                assert c == _chunk_oracle(grid, c.coords)
                assert grid.chunk(c.index) == grid.chunk_at(c.coords) == c
            for _ in range(12):
                region = tuple(_random_axis(rng, s) for s in grid.shape)
                sel = grid.normalize_region(region)
                expected = [
                    c
                    for c in chunks
                    if all(
                        r.start < r.stop and r.start < cs.stop and cs.start < r.stop
                        for r, cs in zip(sel, c.slices)
                    )
                ]
                placed = grid._placements(sel)
                assert [chunk for chunk, _, _ in placed] == expected
                for chunk, out_sl, chunk_sl in placed:
                    assert (out_sl, chunk_sl) == _placement_oracle(sel, chunk)

    def test_huge_grid_builds_nothing_per_chunk(self):
        # a grid answers from per-axis facts: a billion chunks cost no
        # more to count, index or intersect than eight
        tracemalloc.start()
        try:
            grid = ChunkGrid((10**9,), (1,))
            assert grid.n_chunks == len(grid) == 10**9
            last = grid.chunk(10**9 - 1)
            assert last.coords == (10**9 - 1,)
            assert last.slices == (slice(10**9 - 1, 10**9),)
            assert [c.index for c, _, _ in grid._placements((slice(5, 7),))] == [5, 6]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert all(len(v) == 1 for v in vars(grid).values())  # one entry per axis

    def test_empty_region_intersects_nothing(self):
        grid = ChunkGrid((6, 8), (3, 4))
        assert grid._placements(grid.normalize_region((slice(2, 2),))) == []

    def test_chunk_is_frozen_value(self):
        chunk = ChunkGrid((4,), (2,)).chunk(0)
        assert isinstance(chunk, Chunk)
        with pytest.raises(AttributeError):
            chunk.index = 3


def _random_axis(rng, size: int):
    """One axis of a region: an int slab (negative counts from the end),
    the whole axis, an open-ended slice, a span, or an empty span."""
    kind = int(rng.integers(6))
    if kind == 0:
        return int(rng.integers(-size, size))
    if kind == 1:
        return slice(None)
    start = int(rng.integers(0, size + 1))
    if kind == 2:
        return slice(start, None)
    if kind == 3:
        return slice(start, start)
    return slice(start, int(rng.integers(start, size + 1)))


def _chunk_oracle(grid: ChunkGrid, coords) -> Chunk:
    """A chunk as ``ChunkGrid.chunk_at`` built it one at a time: the flat
    id by ``np.ravel_multi_index``, the slices clipped at the field edge."""
    ends = [min((c + 1) * cs, s) for c, cs, s in zip(coords, grid.chunk_shape, grid.shape)]
    slices = tuple(slice(c * cs, end) for c, cs, end in zip(coords, grid.chunk_shape, ends))
    return Chunk(int(np.ravel_multi_index(coords, grid.grid_shape)), tuple(coords), slices)


def _placement_oracle(sel, chunk: Chunk):
    """Where a chunk lands in a region's output, by the per-chunk slice
    arithmetic ``assemble_region`` once did for every chunk it copied."""
    out_sl, chunk_sl = [], []
    for r, c in zip(sel, chunk.slices):
        start = max(r.start, c.start)
        stop = min(r.stop, c.stop)
        out_sl.append(slice(start - r.start, stop - r.start))
        chunk_sl.append(slice(start - c.start, stop - c.start))
    return tuple(out_sl), tuple(chunk_sl)


def _two_pass_plan(grid: ChunkGrid, sel, tile_shape):
    """The streaming plan as ``StoreReader.read_iter`` used to build it:
    the tile list first, then one grid intersection per tile, each chunk
    placed in its tile by the per-chunk slice arithmetic. Kept here as
    the reference ``ChunkGrid.plan_region`` must reproduce."""
    if any(s.stop <= s.start for s in sel):
        tiles = []
    elif tile_shape is None:
        tiles = [
            tuple(
                slice(max(r.start, c.start), min(r.stop, c.stop))
                for r, c in zip(sel, chunk.slices)
            )
            for chunk, _, _ in grid._placements(sel)
        ]
    else:
        starts = [range(s.start, s.stop, t) for s, t in zip(sel, tile_shape)]
        tiles = [
            tuple(
                slice(start, min(start + t, s.stop))
                for start, t, s in zip(origin, tile_shape, sel)
            )
            for origin in product(*starts)
        ]
    return [
        (t, [(c, *_placement_oracle(t, c)) for c, _, _ in grid._placements(t)])
        for t in tiles
    ]


class TestStreamingPlan:
    def test_single_pass_plan_matches_two_pass_construction(self, property_rng):
        rng = property_rng
        for _ in range(120):
            rank = int(rng.integers(1, 4))
            shape = tuple(int(rng.integers(1, 14)) for _ in range(rank))
            grid = ChunkGrid(shape, tuple(int(rng.integers(1, 7)) for _ in range(rank)))
            lo = [int(rng.integers(0, s)) for s in shape]
            # hi == lo now and then: the empty region has an empty plan
            hi = [int(rng.integers(low, s + 1)) for low, s in zip(lo, shape)]
            sel = tuple(slice(a, b) for a, b in zip(lo, hi))
            for tile_shape in (None, tuple(int(rng.integers(1, 9)) for _ in range(rank))):
                want = _two_pass_plan(grid, sel, tile_shape)
                assert grid.plan_region(sel, tile_shape) == want

    def test_chunk_sized_tile_is_the_chunk_clipped_to_the_region(self):
        grid = ChunkGrid((10, 10), (4, 5))
        sel = grid.normalize_region((slice(3, 9), slice(2, 7)))
        for tile, placed in grid.plan_region(sel):
            ((chunk, out_sl, chunk_sl),) = placed
            assert tile == chunk.clip(sel)
            assert (out_sl, chunk_sl) == _placement_oracle(tile, chunk)
            assert chunk.n_elements == int(np.prod(chunk.shape))
