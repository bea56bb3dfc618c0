"""Deterministic chunk grids over N-dimensional fields.

The store compresses a field chunk by chunk, SZ3-style: a fixed grid of
axis-aligned chunks, each carrying its own error bound, so the byte
budget can be steered per chunk while reads stay random-access. The grid
is a pure function of ``(shape, chunk_shape)`` — writer and reader
enumerate chunks in the same C order (last axis fastest) without any
stored index, and a subvolume request maps to the exact set of chunks it
intersects by integer arithmetic alone, worked out per axis, not per chunk.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
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


def _coords(coords) -> tuple[int, ...]:
    """Coordinates by ``operator.index``; a float, str or bool (NumPy's mask) is refused."""
    if any(isinstance(c, (bool, np.bool_)) or not hasattr(c, "__index__") for c in coords):
        raise TypeError(f"chunk coords {coords!r} are not integers")
    return tuple(map(operator.index, coords))


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

    @cached_property
    def grid_shape(self) -> tuple[int, ...]:
        """Number of chunks along each axis."""
        return tuple(-(-s // c) for s, c in zip(self.shape, self.chunk_shape))

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        """Flat-id step of one chunk along each axis (C order)."""
        return tuple(prod(self.grid_shape[i + 1 :]) for i in range(len(self.shape)))

    @property
    def n_chunks(self) -> int:
        return prod(self.grid_shape)

    def chunk_at(self, coords: tuple[int, ...]) -> Chunk:
        """The chunk at grid coordinates ``coords``."""
        coords = _coords(coords)
        grid = self.grid_shape
        if len(coords) != len(grid):
            raise ValueError(f"coords {coords} do not match grid rank {len(grid)}")
        for c, g in zip(coords, grid):
            if not 0 <= c < g:
                raise IndexError(f"chunk coords {coords} outside grid {grid}")
        corner = tuple(slice(c * cs, c * cs + 1) for c, cs in zip(coords, self.chunk_shape))
        return self._placements(corner)[0][0]

    def chunk(self, index: int) -> Chunk:
        """The chunk with flat id ``index`` (C order over the grid)."""
        if not 0 <= index < self.n_chunks:
            raise IndexError(f"chunk index {index} outside [0, {self.n_chunks})")
        coords = tuple(index // st % g for st, g in zip(self._strides, self.grid_shape))
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
                try:
                    idx = _coords((r,))[0]
                except TypeError:
                    raise IndexError(f"axis {axis}: {r!r} is not an integer index") from None
                if idx < 0:
                    idx += s
                if not 0 <= idx < s:
                    raise IndexError(f"index {r} out of bounds for axis {axis} of size {s}")
                start, stop = idx, idx + 1
            if stop < start:
                stop = start
            out.append(slice(start, stop))
        return tuple(out)

    def plan_region(self, sel: tuple[slice, ...], tile_shape=None) -> list:
        """The streaming plan of a normalized region ``sel`` (the output
        of :meth:`normalize_region`, which this does not repeat): its
        tiles, each paired with the placements that feed it — the
        ``(chunk, out_slices, chunk_slices)`` of :meth:`_placements`, in
        flat-id order, with ``out_slices`` relative to the tile — so a
        stream assembles each tile without placing it again.

        ``tile_shape=None`` makes each tile one chunk's intersection with
        the region, enumerated in flat chunk-id order — the storage
        order, so a full-region stream walks the file forward — and the
        whole plan comes out of one grid pass. An explicit ``tile_shape``
        grids the region itself into boxes of that shape anchored at the
        region's start (edge tiles clipped), enumerated in C order, each
        placed on the grid once. Either way the plan is a pure
        function of ``(region, tile_shape)`` — the ordering-determinism
        half of the streaming contract — and tiles the region exactly
        once. An empty region has no tiles.
        """
        if tile_shape is None:
            plan = []
            for chunk, _, part in self._placements(sel):
                whole = tuple(slice(0, p.stop - p.start) for p in part)
                plan.append((chunk.clip(sel), [(chunk, whole, part)]))
            return plan
        if any(s.stop <= s.start for s in sel):
            return []
        tile = tuple(int(t) for t in tile_shape)
        if len(tile) != len(self.shape):
            raise ValueError(f"tile_shape {tile} does not match field rank {len(self.shape)}")
        if any(t < 1 for t in tile):
            raise ValueError(f"tile_shape must be positive, got {tile}")
        starts = [range(s.start, s.stop, t) for s, t in zip(sel, tile)]
        boxes = (
            tuple(slice(start, min(start + t, s.stop)) for start, t, s in zip(origin, tile, sel))
            for origin in product(*starts)
        )
        return [(box, self._placements(box)) for box in boxes]

    def _placements(self, sel: tuple[slice, ...]) -> list:
        """``(chunk, out_slices, chunk_slices)`` of each chunk a normalized
        region meets, in flat-id order: each axis's coordinates are placed
        once (flat-id term and slices), and a chunk zips one per axis."""
        if any(s.stop <= s.start for s in sel):
            return []
        axes = []
        for r, c, s, st in zip(sel, self.chunk_shape, self.shape, self._strides):
            axis = []
            for k in range(r.start // c, -(-r.stop // c)):
                lo, hi, o = k * c, min(k * c + c, s), r.start
                a, b = max(o, lo), min(r.stop, hi)
                axis.append((k, k * st, slice(lo, hi), slice(a - o, b - o), slice(a - lo, b - lo)))
            axes.append(axis)
        placed = (zip(*combo) for combo in product(*axes))
        return [(Chunk(sum(terms), ks, field), out, part) for ks, terms, field, out, part in placed]
