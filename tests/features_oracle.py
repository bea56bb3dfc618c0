"""The block-stack feature kernel ``repro.features.parallel`` shipped before
the flat interior-only one, kept verbatim as the test-side reference.

``reference_parallel_features`` is the old ``_parallel_features`` (MND from
2d whole-stack neighbour sums, MLD from ``_batched_lorenzo``'s zero-padded
shifted views, MSD from one ``spline_predict_axis`` per axis, surface
dropped only at the reduction). For every stack whose blocks have an
interior (edge ≥ 3) the kernel under ``src/`` must reproduce its five
values bit for bit. Stacks of edge 1 or 2 are where the two differ on
purpose: this one averages surface points against zero padding there.
Nothing here is imported by the package.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.features.parallel import sample_blocks
from repro.transforms.spline import spline_predict_axis


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


def reference_parallel_features(
    arr: np.ndarray, block_edge: int, block_stride: int
) -> np.ndarray:
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
