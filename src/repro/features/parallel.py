"""CAROL's parallel (GPU-kernel-style) feature extraction.

Implements the three algorithmic choices of Section 5.4, which are what the
paper contributes (the SIMT mapping is simulated — see DESIGN.md):

1. *surface exclusion* — no feature contributions from points on the block
   surface, removing boundary conditionals (GPU branch divergence);
2. *block-wise sampling* — D-dimensional blocks of 32 elements per
   dimension, one block kept every 4, so memory reads are contiguous
   (coalesced) instead of FXRZ's scattered point samples;
3. *fused single pass* — all five features accumulate over the stacked
   sampled blocks in a handful of batched array operations (the
   shared-memory accumulation of the kernel).

Vectorized NumPy over the block batch is this platform's analogue of the
CUDA kernel; the measured speedup over the serial extractor comes from the
same locality properties the paper exploits.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.obs import timed_span
from repro.transforms.spline import spline_predict_axis
from repro.utils.validation import as_float_array

BLOCK_EDGE = 32
BLOCK_STRIDE = 4  # keep 1 block every 4 per dimension


def sample_blocks(
    arr: np.ndarray, edge: int = BLOCK_EDGE, stride: int = BLOCK_STRIDE
) -> np.ndarray:
    """Everything the extractor reads of ``arr``: the stack of blocks, one
    every ``stride`` per axis, shape ``(nb, edge, ...)``, in ``arr``'s dtype.

    The features are a pure function of this stack, which is what lets the
    serving layer address its feature cache by it. Blocks are gathered with
    contiguous slices. Arrays smaller than one block yield a single clipped
    block.
    """
    d = arr.ndim
    counts = [max(s // edge, 1) for s in arr.shape]
    keep = [np.arange(0, c, stride) for c in counts]
    mesh = np.meshgrid(*keep, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    eff = min(edge, *arr.shape)
    blocks = np.empty((coords.shape[0],) + (eff,) * d, dtype=arr.dtype)
    for i, c in enumerate(coords):
        slicer = tuple(
            slice(min(int(ci) * edge, arr.shape[a] - eff),
                  min(int(ci) * edge, arr.shape[a] - eff) + eff)
            for a, ci in enumerate(c)
        )
        blocks[i] = arr[slicer]
    return blocks


def _batched_lorenzo(blocks: np.ndarray) -> np.ndarray:
    """Lorenzo prediction within each block (batch along axis 0)."""
    d = blocks.ndim - 1
    padded = np.zeros((blocks.shape[0],) + tuple(s + 1 for s in blocks.shape[1:]))
    padded[(slice(None),) + tuple(slice(1, None) for _ in range(d))] = blocks
    pred = np.zeros_like(blocks)
    for offsets in itertools.product((0, 1), repeat=d):
        k = sum(offsets)
        if k == 0:
            continue
        view = padded[
            (slice(None),)
            + tuple(
                slice(1 - o, padded.shape[i + 1] - o) for i, o in enumerate(offsets)
            )
        ]
        if k % 2:
            pred += view
        else:
            pred -= view
    return pred


def _parallel_features(arr: np.ndarray, block_edge: int, block_stride: int) -> np.ndarray:
    # Upcast the sample, not the field: float32 -> float64 is exact per
    # element, so the features are the same bits at 1/4-1/64 of the traffic.
    blocks = sample_blocks(arr, block_edge, block_stride).astype(np.float64, copy=False)
    d = arr.ndim
    interior = (slice(None),) + (slice(1, -1),) * d
    if any(s <= 2 for s in blocks.shape[1:]):
        interior = (slice(None),) * (d + 1)

    mean = float(blocks.mean())
    vrange = float(blocks.max() - blocks.min())

    # MND: average of the 2d axis neighbours (interior points have all 2d).
    neigh = np.zeros_like(blocks)
    for axis in range(1, d + 1):
        moved = np.moveaxis(blocks, axis, 1)
        acc = np.moveaxis(neigh, axis, 1)
        acc[:, 1:] += moved[:, :-1]
        acc[:, :-1] += moved[:, 1:]
    mnd = float(np.abs(blocks - neigh / (2.0 * d))[interior].mean())

    # MLD: batched Lorenzo prediction.
    mld = float(np.abs(blocks - _batched_lorenzo(blocks))[interior].mean())

    # MSD: per-axis spline deviations, batched over the block axis.
    msd_arr = np.zeros_like(blocks)
    for axis in range(1, d + 1):
        msd_arr += np.abs(blocks - spline_predict_axis(blocks, axis))
    msd = float(msd_arr[interior].mean())

    return np.array([mean, vrange, mnd, mld, msd])


def extract_features_parallel(
    data: np.ndarray,
    block_edge: int = BLOCK_EDGE,
    block_stride: int = BLOCK_STRIDE,
) -> tuple[np.ndarray, float]:
    """Block-sampled fused feature extraction; returns ``(features, seconds)``.

    Feature definitions match :func:`repro.features.serial` but are computed
    on sampled blocks with block surfaces excluded, so values agree closely
    (not bit-exactly) with the serial extractor — the same approximation the
    paper's GPU kernel makes.
    """
    arr = as_float_array(data)
    with timed_span("features.parallel", block_edge=block_edge,
                    block_stride=block_stride, n_elements=int(arr.size)) as sp:
        feats = _parallel_features(arr, block_edge, block_stride)
    return feats, sp.elapsed


def extract_features_parallel_many(
    arrays,
    block_edge: int = BLOCK_EDGE,
    block_stride: int = BLOCK_STRIDE,
) -> tuple[np.ndarray, float]:
    """Block-sampled features for several fields; returns ``((n, 5), seconds)``.

    The stacked multi-field entry point used by :mod:`repro.serve`. Rows are
    computed by the exact code path of :func:`extract_features_parallel`, so
    each is bitwise-identical to a standalone call on the same array; fields
    of different shapes batch together under one span.
    """
    arrs = [as_float_array(a) for a in arrays]
    with timed_span("features.parallel_many", block_edge=block_edge,
                    block_stride=block_stride, n_fields=len(arrs),
                    n_elements=int(sum(a.size for a in arrs))) as sp:
        if arrs:
            feats = np.stack([_parallel_features(a, block_edge, block_stride) for a in arrs])
        else:
            feats = np.empty((0, 5))
    return feats, sp.elapsed
