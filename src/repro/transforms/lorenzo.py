"""Multidimensional Lorenzo predictor.

The Lorenzo predictor estimates each point from its already-visited corner
neighbours: in d dimensions the prediction is the alternating-sign sum over
the 2^d - 1 proper corners of the unit hypercube behind the point. For 3-D
this is Eq. (6) of the CAROL paper. Out-of-domain neighbours are treated as
zero, matching SZ's convention.
"""

from __future__ import annotations

import itertools

import numpy as np


def lorenzo_predict(data: np.ndarray) -> np.ndarray:
    """Return the Lorenzo prediction for every point of ``data``.

    Vectorized: each corner term is a shifted view of a zero-padded copy, so
    the cost is 2^d - 1 array additions.
    """
    data = np.asarray(data)
    d = data.ndim
    if d < 1 or d > 4:
        raise ValueError(f"Lorenzo predictor supports 1-4 dimensions, got {d}")
    padded = np.zeros(tuple(s + 1 for s in data.shape), dtype=np.float64)
    padded[tuple(slice(1, None) for _ in range(d))] = data
    pred = np.zeros(data.shape, dtype=np.float64)
    for offsets in itertools.product((0, 1), repeat=d):
        k = sum(offsets)
        if k == 0:
            continue  # the point itself
        sign = -((-1) ** k)  # odd # of backward steps -> +, even -> -
        view = padded[tuple(slice(1 - o, padded.shape[i] - o) for i, o in enumerate(offsets))]
        if sign > 0:
            pred += view
        else:
            pred -= view
    return pred
