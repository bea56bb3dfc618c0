"""Data-sampling strategies matched to each compressor's window (Table 1)."""

from __future__ import annotations

import numpy as np


def sample_flat_blocks(
    data: np.ndarray, block_size: int, stride: int, min_blocks: int = 8
) -> np.ndarray:
    """Block-wise sampling on the flattened array (SZx's and cuSZp's window).

    Takes one ``block_size`` block every ``stride`` blocks; the stride is
    shrunk if the array is too small to yield ``min_blocks`` samples.
    """
    flat = data.ravel()
    nblocks = max(flat.size // block_size, 1)
    stride = max(min(stride, nblocks // min_blocks), 1)
    starts = np.arange(0, nblocks, stride) * block_size
    idx = starts[:, None] + np.arange(block_size)[None, :]
    idx = idx[idx[:, -1] < flat.size]
    if idx.size == 0:
        return flat.copy()
    return flat[idx].ravel()


def sample_grid_blocks(
    data: np.ndarray, block_edge: int, stride: int, min_blocks: int = 8
) -> np.ndarray:
    """Multidimensional block sampling (ZFP's window).

    Selects one ``block_edge^d`` block every ``stride`` blocks in flattened
    block order and returns them stacked along axis 0 as a 1-D-per-block
    layout reshaped to ``(nsampled, block_edge, ...)``.
    """
    d = data.ndim
    grid = tuple(max(s // block_edge, 1) for s in data.shape)
    nblocks = int(np.prod(grid))
    stride = max(min(stride, nblocks // min_blocks), 1)
    chosen = np.arange(0, nblocks, stride)
    coords = np.unravel_index(chosen, grid)
    blocks = np.empty((chosen.size,) + (block_edge,) * d, dtype=np.float64)
    for i in range(chosen.size):
        slicer = tuple(
            slice(int(c[i]) * block_edge, int(c[i]) * block_edge + block_edge)
            for c in coords
        )
        blk = data[slicer]
        if blk.shape != (block_edge,) * d:
            pad = [(0, block_edge - s) for s in blk.shape]
            blk = np.pad(blk, pad, mode="edge")
        blocks[i] = blk
    return blocks


def sample_points(data: np.ndarray, stride: int) -> np.ndarray:
    """Point-wise strided sampling (SZ3's window): one point every ``stride``
    along each axis, preserving dimensionality."""
    slicer = tuple(slice(0, None, stride) for _ in range(data.ndim))
    return np.ascontiguousarray(data[slicer])


def sample_chunk(data: np.ndarray, fraction_per_axis: float = 0.5) -> np.ndarray:
    """Contiguous center-chunk sampling (SPERR's large-chunk window).

    SPERR compresses independent large chunks, so its surrogate runs the real
    pipeline on one representative chunk. A centered chunk avoids boundary
    artefacts of simulation domains.
    """
    if not 0.0 < fraction_per_axis <= 1.0:
        raise ValueError("fraction_per_axis must be in (0, 1]")
    slicer = []
    for s in data.shape:
        ext = max(int(round(s * fraction_per_axis)), min(s, 8))
        start = (s - ext) // 2
        slicer.append(slice(start, start + ext))
    return np.ascontiguousarray(data[tuple(slicer)])
