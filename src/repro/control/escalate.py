"""The surrogate heuristic tier (T0).

:mod:`repro.surrogate` already estimates ratio curves without
compressing; this module adapts that to the control plane's shape: one
error bound out, deterministic, bounded cost. The other non-model tier
(T2) is :meth:`repro.control.Controller.refine`, a warm-started
:class:`repro.core.fraz.FrazSearch`.
"""

from __future__ import annotations

import numpy as np

from repro.core.fraz import REL_EB_BRACKET
from repro.core.prediction import invert_curve
from repro.surrogate.base import SurrogateEstimator
from repro.surrogate.registry import get_surrogate
from repro.utils.validation import as_float_array


def heuristic_error_bound(
    data: np.ndarray,
    target_ratio: float,
    *,
    compressor: str,
    points: int = 5,
    surrogate: SurrogateEstimator | None = None,
) -> float:
    """T0: invert a small surrogate-estimated curve — no features, no model.

    Samples ``points`` error bounds log-spaced over the value range,
    estimates their ratios with the compressor's surrogate (never running
    the real codec), and inverts the curve at ``target_ratio``. Cheap and
    deterministic; accuracy is whatever the surrogate's is, which is why
    the policy only relaxes here when the model has been agreeing with
    observed outcomes (low spread, low drift).
    """
    if target_ratio <= 0:
        raise ValueError("target_ratio must be positive")
    if points < 2:
        raise ValueError("points must be >= 2")
    arr = as_float_array(data)
    if surrogate is None:
        surrogate = get_surrogate(compressor)
    vrange = float(arr.max() - arr.min()) or 1.0
    # FrazSearch's own bracket, so a heuristic guess always lands inside
    # the range a T2 escalation would search.
    lo, hi = REL_EB_BRACKET
    ebs = np.exp(np.linspace(np.log(lo), np.log(hi), int(points))) * vrange
    ratios, _ = surrogate.estimate_curve(arr, ebs)
    return invert_curve(ebs, ratios, float(target_ratio))
