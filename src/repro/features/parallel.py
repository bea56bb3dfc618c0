"""CAROL's parallel (GPU-kernel-style) feature extraction.

Implements the three algorithmic choices of Section 5.4, which are what the
paper contributes (the SIMT mapping is simulated — see DESIGN.md):

1. *surface exclusion* — no feature contributions from points on the block
   surface, removing boundary conditionals (GPU branch divergence): MND,
   MLD and MSD are evaluated only over the span of the flattened stack
   that holds the interior, where every stencil tap is in bounds;
2. *block-wise sampling* — D-dimensional blocks of 32 elements per
   dimension, one block kept every 4, so memory reads are contiguous
   (coalesced) instead of FXRZ's scattered point samples;
3. *fused single pass* — every stencil tap is one contiguous slice of the
   flattened stack at a fixed offset, accumulated into two reused buffers
   (the shared-memory accumulation of the kernel); nothing of the stack's
   size is padded, shifted or copied per term.

Flat NumPy passes over the block stack are this platform's analogue of the
CUDA kernel; the measured speedup over the serial extractor comes from the
same locality properties the paper exploits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.obs import timed_span
from repro.transforms.spline import _C0, _C1
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


def _interior_smoothness(blocks: np.ndarray) -> tuple[float, float, float]:
    """MND, MLD and MSD over the interior points of a C-contiguous float64
    stack of blocks whose every edge is at least 3.

    One flat pass per stencil term: along the flattened stack, a tap at
    ``±stride[axis]`` (and its sums) is a contiguous slice, so each term is
    evaluated over ``[Σ strides, N − Σ strides)`` — the span holding every
    interior point, where every such tap stays in bounds. Positions in that
    span off the interior see other rows' or blocks' values and are never
    read. Each mean is taken over ``buf.reshape(blocks.shape)[interior]``,
    the same shape and strides as a stack-sized temporary, so the summation
    order — and every value — matches the whole-stack formulation
    (``tests/features_oracle.py``) bit for bit.
    """
    shape = blocks.shape
    d = blocks.ndim - 1
    n_total = blocks.size
    strides = [math.prod(shape[a + 1 :]) for a in range(1, d + 1)]
    lo = sum(strides)
    core = slice(lo, n_total - lo)
    interior = (slice(None),) + (slice(1, -1),) * d
    x = blocks.reshape(-1)

    def tap(offset: int) -> np.ndarray:
        return x[lo + offset : n_total - lo + offset]

    # Two reused buffers. MND fills one and MLD the other over the whole
    # span, so whatever MSD's per-axis terms leave unwritten there is a
    # finite residual of the same data, never uninitialised memory.
    res = np.empty(n_total)
    tmp = np.empty(n_total)

    # MND: |x − (sum of the 2d axis neighbours) / 2d|. Sums start from their
    # first term, not from 0.0 + it: that differs only in the sign of an
    # exactly-zero sum, which the |·| erases.
    r = res[core]
    np.add(tap(-strides[0]), tap(strides[0]), out=r)
    for s in strides[1:]:
        r += tap(-s)
        r += tap(s)
    r /= 2.0 * d
    np.subtract(x[core], r, out=r)
    np.abs(r, out=r)
    mnd = float(res.reshape(shape)[interior].mean())

    # MLD: |x − Lorenzo|, the 2^d − 1 corner terms behind each point in
    # itertools.product order, odd corners added and even ones subtracted.
    terms = [
        (sum(o) % 2, -sum(k * s for k, s in zip(o, strides)))
        for o in itertools.product((0, 1), repeat=d)
        if any(o)
    ]
    t = tmp[core]
    np.copyto(t, tap(terms[0][1]))
    for odd, offset in terms[1:]:
        (np.add if odd else np.subtract)(t, tap(offset), out=t)
    np.subtract(x[core], t, out=t)
    np.abs(t, out=t)
    mld = float(tmp.reshape(shape)[interior].mean())

    # MSD: Σ over axes of |x − spline|, the cubic −1/16, 9/16, 9/16, −1/16
    # taps at ±1 and ±3 where both exist (rows 3 … n−4), the linear mean of
    # the ±1 taps on rows 1, 2, n−3 and n−2 (every interior row when n ≤ 6).
    c0x = _C0 * x
    c1x = _C1 * x
    for axis, (n, s) in enumerate(zip(shape[1:], strides), start=1):
        out = res if axis == 1 else tmp
        if n > 6:
            start, stop = max(lo, 3 * s), min(n_total - lo, n_total - 3 * s)
            t = out[start:stop]
            np.add(c0x[start - 3 * s : stop - 3 * s], c1x[start - s : stop - s], out=t)
            t += c1x[start + s : stop + s]
            t += c0x[start + 3 * s : stop + 3 * s]
            np.subtract(x[start:stop], t, out=t)
            np.abs(t, out=t)
        grid = out.reshape(shape)
        lead = (slice(None),) * axis
        for a, b in ((1, 3), (n - 3, n - 1)) if n > 6 else ((1, n - 1),):
            # Computed compact, written back once: along the last axis a
            # slab is runs of two elements, where each strided ufunc pass
            # costs several times a contiguous one.
            g = blocks[lead + (slice(a - 1, b - 1),)] + blocks[lead + (slice(a + 1, b + 1),)]
            g *= 0.5
            np.subtract(blocks[lead + (slice(a, b),)], g, out=g)
            np.abs(g, out=g)
            grid[lead + (slice(a, b),)] = g
        if axis > 1:
            res[core] += tmp[core]
    msd = float(res.reshape(shape)[interior].mean())
    return mnd, mld, msd


def _thin_smoothness(blocks: np.ndarray) -> tuple[float, float, float]:
    """MND, MLD and MSD of a stack of cubes with edge 1 or 2, which have no
    interior to keep: the mean over blocks of each block's values under
    :mod:`repro.features.definitions`, every point using the neighbours it
    has.

    Along an axis of length 2 a point's one neighbour, and its spline
    prediction, is the other point — the block mirrored along that axis —
    and Lorenzo predicts only the far corner. A one-point block has no
    neighbour at all and contributes 0.
    """
    d = blocks.ndim - 1
    if blocks.shape[1] == 1:
        return 0.0, 0.0, 0.0
    axes = tuple(range(1, d + 1))
    mirrors = [np.flip(blocks, axis) for axis in axes]
    mnd = np.abs(blocks - sum(mirrors) / d).mean(axis=axes).mean()
    msd = sum(np.abs(blocks - m) for m in mirrors).mean(axis=axes).mean()

    def corner(offsets) -> np.ndarray:
        return blocks[(slice(None),) + tuple(1 - o for o in offsets)]

    pred = sum(
        corner(o) if sum(o) % 2 else -corner(o)
        for o in itertools.product((0, 1), repeat=d)
        if any(o)
    )
    mld = np.abs(corner((0,) * d) - pred).mean()
    return float(mnd), float(mld), float(msd)


def _parallel_features(arr: np.ndarray, block_edge: int, block_stride: int) -> np.ndarray:
    # Upcast the sample, not the field: float32 -> float64 is exact per
    # element, so the features are the same bits at 1/4-1/64 of the traffic.
    blocks = sample_blocks(arr, block_edge, block_stride).astype(np.float64, copy=False)
    mean = float(blocks.mean())
    vrange = float(blocks.max() - blocks.min())
    # sample_blocks' blocks are cubes: either every edge has an interior or none does.
    if blocks.shape[1] <= 2:
        smooth = _thin_smoothness(blocks)
    else:
        smooth = _interior_smoothness(blocks)
    return np.array([mean, vrange, *smooth])


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
