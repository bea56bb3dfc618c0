"""4-point cubic spline interpolation predictor (SZ3's interpolation stage).

Along one axis, the interior prediction of the CAROL paper's Eq. (7):

    spline_i = -1/16 d_{i-3} + 9/16 d_{i-1} + 9/16 d_{i+1} - 1/16 d_{i+3}

predicts odd-indexed points from their even-indexed neighbours. Points too
close to the boundary fall back to 2-point linear interpolation, matching
SZ3's behaviour at block edges.
"""

from __future__ import annotations

import numpy as np

_C0 = -1.0 / 16.0
_C1 = 9.0 / 16.0


def spline_predict_axis(data: np.ndarray, axis: int) -> np.ndarray:
    """Predict every point from neighbours at +-1 and +-3 along ``axis``.

    Returns an array of the same shape; points within 3 of either edge use
    linear interpolation of the +-1 neighbours (or copy the single available
    neighbour at the very edge).
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[axis]
    moved = np.moveaxis(data, axis, 0)
    pred = np.empty_like(moved)
    if n == 1:
        pred[...] = moved
        return np.moveaxis(pred, 0, axis)

    # Linear fallback everywhere first (cheap), then overwrite the interior.
    pred[1 : n - 1] = 0.5 * (moved[: n - 2] + moved[2:n])
    pred[0] = moved[1]
    pred[n - 1] = moved[n - 2]
    if n > 6:
        pred[3 : n - 3] = (
            _C0 * moved[: n - 6]
            + _C1 * moved[2 : n - 4]
            + _C1 * moved[4 : n - 2]
            + _C0 * moved[6:n]
        )
    return np.moveaxis(pred, 0, axis)
