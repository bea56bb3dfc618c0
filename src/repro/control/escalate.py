"""The two non-model tiers: surrogate heuristic (T0) and FRaZ refinement (T2).

Both endpoints of the escalation ladder already exist in the codebase —
:mod:`repro.surrogate` estimates ratio curves without compressing, and
:class:`repro.core.fraz.FrazSearch` searches the real compressor — this
module just adapts them to the control plane's shape: one error bound
out, deterministic, bounded cost.
"""

from __future__ import annotations

import numpy as np

from repro.core.fraz import FrazResult, FrazSearch
from repro.core.prediction import invert_curve
from repro.surrogate.base import SurrogateEstimator
from repro.surrogate.registry import get_surrogate
from repro.utils.validation import as_float_array

#: Relative error-bound range the heuristic curve samples — the same span
#: :class:`FrazSearch` brackets, so a heuristic guess always lands inside
#: the range a T2 escalation would search.
HEURISTIC_REL_EB_RANGE = (1e-6, 0.5)


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
    lo, hi = HEURISTIC_REL_EB_RANGE
    ebs = np.exp(np.linspace(np.log(lo), np.log(hi), int(points))) * vrange
    ratios, _ = surrogate.estimate_curve(arr, ebs)
    return invert_curve(ebs, ratios, float(target_ratio))


def refine_error_bound(
    data: np.ndarray,
    target_ratio: float,
    *,
    compressor: str,
    initial_eb: float,
    max_compressions: int = 4,
    tolerance: float = 0.05,
) -> FrazResult:
    """T2: warm-started FRaZ search against the real compressor.

    The prior tier's error bound seeds the search
    (:meth:`FrazSearch.compress_to_ratio` with ``initial_eb``), so a
    roughly-right guess converges in 1–3 probes instead of the cold
    bracket's full budget. ``max_compressions`` is a hard cap on probes
    (each a real compression unless the codec sizes in closed form);
    the result reports ``converged``, ``reachable`` and its full
    ``(eb, ratio)`` history — each entry a free ground-truth observation
    for the feedback loop.
    """
    search = FrazSearch(
        compressor, tolerance=tolerance, max_iterations=max_compressions
    )
    return search.compress_to_ratio(data, target_ratio, initial_eb=float(initial_eb))
