"""Deterministic chunk grids over N-dimensional fields.

The store compresses a field chunk by chunk, SZ3-style: a fixed grid of
axis-aligned chunks, each carrying its own error bound, so the byte
budget can be steered per chunk while reads stay random-access. The grid
is a pure function of ``(shape, chunk_shape)`` — writer and reader
enumerate chunks in the same C order (last axis fastest) without any
stored index, and a subvolume request maps to the exact set of chunks it
intersects by integer arithmetic alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

#: Default per-chunk element target: big enough that per-chunk container
#: overhead (manifest entry + compressor header) stays negligible, small
#: enough that a chunk is always an in-RAM object even for memmapped inputs.
DEFAULT_CHUNK_ELEMENTS = 32768


def default_chunk_shape(shape: tuple[int, ...], target_elements: int = DEFAULT_CHUNK_ELEMENTS):
    """A chunk shape with roughly ``target_elements`` per chunk.

    Starts from the full field and repeatedly halves the largest axis until
    the chunk fits the target — deterministic, aspect-ratio-preserving, and
    never producing a zero-length axis.
    """
    if target_elements < 1:
        raise ValueError("target_elements must be >= 1")
    chunk = [int(s) for s in shape]
    if any(s < 1 for s in chunk):
        raise ValueError(f"shape must be positive, got {shape}")
    while int(np.prod(chunk)) > target_elements:
        axis = int(np.argmax(chunk))
        if chunk[axis] == 1:
            break
        chunk[axis] = -(-chunk[axis] // 2)
    return tuple(chunk)


@dataclass(frozen=True)
class Chunk:
    """One grid cell: its flat id, grid coordinates, and array slices."""

    index: int
    coords: tuple[int, ...]
    slices: tuple[slice, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(s.stop - s.start for s in self.slices)

    @property
    def n_elements(self) -> int:
        return prod(self.shape)

    def clip(self, sel: tuple[slice, ...]) -> tuple[slice, ...]:
        """This chunk's intersection with a normalized region, in field
        coordinates (non-empty whenever the chunk intersects ``sel``)."""
        return tuple(
            slice(max(r.start, c.start), min(r.stop, c.stop))
            for r, c in zip(sel, self.slices)
        )


@dataclass(frozen=True)
class ChunkGrid:
    """Fixed chunk grid over an N-d field shape.

    Edge chunks are clipped to the field boundary (no padding), so the
    union of all chunk slices tiles the field exactly once.
    """

    shape: tuple[int, ...]
    chunk_shape: tuple[int, ...]

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        chunk = tuple(int(c) for c in self.chunk_shape)
        if len(shape) != len(chunk):
            raise ValueError(f"chunk_shape {chunk} does not match field rank {len(shape)}")
        if any(s < 1 for s in shape):
            raise ValueError(f"shape must be positive, got {shape}")
        if any(c < 1 for c in chunk):
            raise ValueError(f"chunk_shape must be positive, got {chunk}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "chunk_shape", tuple(min(c, s) for c, s in zip(chunk, shape)))

    @classmethod
    def for_shape(
        cls,
        shape: tuple[int, ...],
        chunk_shape: tuple[int, ...] | None = None,
        target_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> "ChunkGrid":
        """Grid with an explicit ``chunk_shape`` or a derived default."""
        if chunk_shape is None:
            chunk_shape = default_chunk_shape(tuple(shape), target_elements)
        return cls(tuple(shape), tuple(chunk_shape))

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """Number of chunks along each axis."""
        return tuple(-(-s // c) for s, c in zip(self.shape, self.chunk_shape))

    @property
    def n_chunks(self) -> int:
        return int(np.prod(self.grid_shape))

    def chunk_at(self, coords: tuple[int, ...]) -> Chunk:
        """The chunk at grid coordinates ``coords``."""
        coords = tuple(int(c) for c in coords)
        grid = self.grid_shape
        if len(coords) != len(grid):
            raise ValueError(f"coords {coords} do not match grid rank {len(grid)}")
        for c, g in zip(coords, grid):
            if not 0 <= c < g:
                raise IndexError(f"chunk coords {coords} outside grid {grid}")
        slices = tuple(
            slice(c * cs, min((c + 1) * cs, s))
            for c, cs, s in zip(coords, self.chunk_shape, self.shape)
        )
        return Chunk(index=int(np.ravel_multi_index(coords, grid)), coords=coords, slices=slices)

    def chunk(self, index: int) -> Chunk:
        """The chunk with flat id ``index`` (C order over the grid)."""
        if not 0 <= index < self.n_chunks:
            raise IndexError(f"chunk index {index} outside [0, {self.n_chunks})")
        coords = tuple(int(c) for c in np.unravel_index(index, self.grid_shape))
        return self.chunk_at(coords)

    def __iter__(self):
        """All chunks in flat-id order (the storage order of the container)."""
        for coords in product(*(range(g) for g in self.grid_shape)):
            yield self.chunk_at(coords)

    def __len__(self) -> int:
        return self.n_chunks

    def normalize_region(self, region) -> tuple[slice, ...]:
        """Coerce a subvolume request into per-axis ``slice`` objects.

        Accepts a single slice/int, a tuple mixing slices and ints, or
        ``None``/``Ellipsis`` for the whole field. Integers select a
        length-one slab (kept as an axis, numpy-basic-indexing aside, so
        chunk intersection stays rank-preserving); steps are rejected.
        """
        if region is None or region is Ellipsis:
            region = ()
        if not isinstance(region, tuple):
            region = (region,)
        if Ellipsis in region:
            i = region.index(Ellipsis)
            fill = len(self.shape) - (len(region) - 1)
            region = region[:i] + (slice(None),) * fill + region[i + 1 :]
        if len(region) > len(self.shape):
            raise ValueError(f"region has {len(region)} axes; field has {len(self.shape)}")
        region = region + (slice(None),) * (len(self.shape) - len(region))
        out = []
        for axis, (r, s) in enumerate(zip(region, self.shape)):
            if isinstance(r, slice):
                if r.step not in (None, 1):
                    raise ValueError("strided store reads are not supported")
                start, stop, _ = r.indices(s)
            else:
                idx = int(r)
                if idx < 0:
                    idx += s
                if not 0 <= idx < s:
                    raise IndexError(f"index {r} out of bounds for axis {axis} of size {s}")
                start, stop = idx, idx + 1
            if stop < start:
                stop = start
            out.append(slice(start, stop))
        return tuple(out)

    def tiles_for_region(self, region, tile_shape=None) -> list[tuple[slice, ...]]:
        """Split a subvolume into tiles (field-coordinate slice tuples).

        The planning step of a streaming read: ``tile_shape=None`` makes
        each tile one chunk's intersection with the region, enumerated in
        flat chunk-id order — the storage order, so a full-region stream
        walks the file forward. An explicit ``tile_shape`` grids the
        region itself into boxes of that shape anchored at the region's
        start (edge tiles clipped), enumerated in C order. Either way the
        tile list is a pure function of ``(region, tile_shape)`` — the
        ordering-determinism half of the streaming contract — and tiles
        the region exactly once. An empty region has no tiles.
        """
        sel = self.normalize_region(region)
        if any(s.stop <= s.start for s in sel):
            return []
        if tile_shape is None:
            return [chunk.clip(sel) for chunk in self.chunks_intersecting(sel)]
        tile = tuple(int(t) for t in tile_shape)
        if len(tile) != len(self.shape):
            raise ValueError(f"tile_shape {tile} does not match field rank {len(self.shape)}")
        if any(t < 1 for t in tile):
            raise ValueError(f"tile_shape must be positive, got {tile}")
        starts = [range(s.start, s.stop, t) for s, t in zip(sel, tile)]
        return [
            tuple(
                slice(start, min(start + t, s.stop))
                for start, t, s in zip(origin, tile, sel)
            )
            for origin in product(*starts)
        ]

    def plan_region(
        self, region, tile_shape=None
    ) -> list[tuple[tuple[slice, ...], list[Chunk]]]:
        """The streaming plan: every tile of :meth:`tiles_for_region`, in
        its order, paired with the chunks that feed it (flat-id order).

        With ``tile_shape=None`` a tile *is* one chunk's intersection
        with the region, so the whole plan comes out of a single
        :meth:`chunks_intersecting` pass; explicit tiles intersect the
        grid once each.
        """
        sel = self.normalize_region(region)
        if tile_shape is None:
            return [(chunk.clip(sel), [chunk]) for chunk in self.chunks_intersecting(sel)]
        return [
            (tile, self.chunks_intersecting(tile))
            for tile in self.tiles_for_region(sel, tile_shape)
        ]

    def chunks_intersecting(self, region) -> list[Chunk]:
        """Chunks overlapping a subvolume, in flat-id order.

        An empty region intersects nothing — the caller gets an empty read
        rather than a decompression of zero-width chunks.
        """
        sel = self.normalize_region(region)
        if any(s.stop <= s.start for s in sel):
            return []
        ranges = [
            range(s.start // c, -(-s.stop // c)) for s, c in zip(sel, self.chunk_shape)
        ]
        return [self.chunk_at(coords) for coords in product(*ranges)]
