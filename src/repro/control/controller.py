"""The Controller: stateful tier accounting over one pack.

:class:`Controller` owns the mutable side of the control plane — the
risk budget, the committed-spread window, and the tier counters — while
every *decision* goes through the pure :func:`repro.control.policy.decide_tier`
table. It is deliberately ignorant of stores and services: callers feed
it observations (``record_std``), ask for decisions (``wave_tier`` /
``chunk_tier``), and invoke the non-model tiers (``heuristic_prediction``
/ ``refine``). The store writer drives it at wave boundaries from
committed state only, which is what keeps controller-on packs
byte-identical across worker counts.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.core.framework import Prediction
from repro.core.fraz import FrazResult, FrazSearch
from repro.control.escalate import heuristic_error_bound
from repro.control.policy import ControlOptions, ControlStats, Tier, decide_tier
from repro.surrogate.registry import get_surrogate


def _require_framework(framework):
    """``framework`` itself, or a ``TypeError`` naming what was passed
    (a :class:`repro.serve.PredictionService` is told to pass its
    ``.framework``)."""
    if hasattr(framework, "predict_error_bound"):
        return framework
    hint = "; pass service.framework" if hasattr(framework, "framework") else ""
    raise TypeError(
        f"predictor must be a fitted framework, got {type(framework).__name__}{hint}"
    )


class Controller:
    """Risk- and budget-aware tier escalation over one framework.

    ``framework`` is a fitted
    :class:`~repro.core.framework.RatioControlledFramework` (anything
    with its ``predict_error_bound`` and ``compressor_name``).
    """

    def __init__(self, framework, *, options: ControlOptions | None = None) -> None:
        self.options = options or ControlOptions()
        self.framework = _require_framework(framework)
        self._surrogate = None
        self._search: FrazSearch | None = None
        self._search_codec: str | None = None
        self._stds: deque[float] = deque(maxlen=self.options.std_window)
        self._errors: deque[float] = deque(maxlen=self.options.std_window)
        self.reset()

    def reset(self) -> None:
        """Start a fresh accounting scope (one pack): full risk budget,
        zeroed counters. The committed-spread window survives — past
        agreement between model and compressor is still evidence."""
        self._risk_remaining = int(self.options.risk_budget)
        self._t0 = self._t1 = self._t2 = 0
        self._esc_std = self._esc_pressure = 0
        self._compressions = self._probes = self._unreachable = 0

    @property
    def risk_remaining(self) -> int:
        """T2 escalations the current scope may still spend."""
        return self._risk_remaining

    # -- observations ------------------------------------------------------------

    def record_std(self, std: float) -> None:
        """Feed one committed chunk's model spread into the relax window
        (``nan`` spreads — model kinds without one — are not evidence)."""
        if not math.isnan(std):
            self._stds.append(float(std))

    def record_outcome(self, target_ratio: float, achieved_ratio: float) -> None:
        """Feed one committed chunk's measured cheap-tier accuracy into
        the trust window (relative ratio error vs its wave target).

        For a T0/T1 chunk ``achieved_ratio`` is simply the stored chunk's
        real ratio. For an escalated chunk, pass the warm search's *first
        probe* ratio — the one measured at the model's own error bound —
        not the refined result: the window tracks how wrong the cheap
        tier *would have been*, so trust keeps updating (and can recover)
        even while every chunk refines. Without that, a tripped window
        would never see another cheap-tier outcome and escalation would
        latch on for the rest of the pack.
        """
        if target_ratio <= 0:
            return
        self._errors.append(
            abs(float(achieved_ratio) - float(target_ratio)) / float(target_ratio)
        )

    def observed_pressure(self, budget_drift: float) -> float:
        """The pressure signal for the next decision: the worse of the
        aggregate budget drift and the cheap tiers' *typical* recent
        per-chunk ratio error (window median).

        Aggregate drift alone is gameable by cancellation — an
        undershooting first wave and an overshooting later one can sum
        to a budget that *looks* on target while every individual chunk
        misses badly. The per-chunk error window cannot cancel (errors
        are absolute values), so systematic model misprediction keeps
        the pressure high until refined chunks stop feeding it. The
        median (not the mean) is what makes it a *systematic* signal: a
        usable model with a minority of hard chunks stays trusted, while
        an out-of-distribution model — wrong on every chunk — trips it.
        """
        pressure = max(0.0, float(budget_drift))
        if len(self._errors) >= 2:
            pressure = max(pressure, float(np.median(self._errors)))
        return pressure

    # -- decisions ---------------------------------------------------------------

    def wave_tier(self, pressure: float) -> Tier:
        """May the next wave skip the model entirely (T0)?

        Relaxing needs *accumulated* evidence: the committed-spread
        window must be full (``std_window`` observed chunks) and its mean
        must clear the same :func:`decide_tier` table a single chunk
        would. Anything short of that answers :attr:`Tier.MODEL` — the
        wave then runs features + model and escalates per chunk.
        """
        opts = self.options
        if opts.t0_std <= 0.0 or len(self._stds) < self._stds.maxlen:
            return Tier.MODEL
        mean_std = float(np.mean(self._stds))
        tier = decide_tier(
            std=mean_std, pressure=float(pressure),
            risk_remaining=self._risk_remaining, options=opts,
        )
        return Tier.HEURISTIC if tier is Tier.HEURISTIC else Tier.MODEL

    def chunk_tier(self, std: float, pressure: float) -> Tier:
        """Decide one already-predicted chunk: stay at T1 or escalate.

        Consumes the risk budget on escalation, so callers **must**
        invoke this in flat chunk-id order — that is what makes the
        budget bind deterministically. Never answers T0 (the model pass
        is already paid for; relaxing is a wave-boundary decision).
        """
        tier = decide_tier(
            std=float(std), pressure=float(pressure),
            risk_remaining=self._risk_remaining, options=self.options,
        )
        if tier is Tier.REFINE:
            self._risk_remaining -= 1
            self._t2 += 1
            if not math.isnan(std) and std >= self.options.t2_std:
                self._esc_std += 1
            else:
                self._esc_pressure += 1
            return Tier.REFINE
        self._t1 += 1
        return Tier.MODEL

    # -- tier execution ----------------------------------------------------------

    def heuristic_prediction(self, data: np.ndarray, target_ratio: float) -> Prediction:
        """T0: a surrogate-curve error bound shaped as a :class:`Prediction`.

        The features array is *empty* — nothing was extracted — which is
        the marker downstream consumers key on (the store skips feedback
        for such chunks; ``std`` stays ``nan``).
        """
        if self._surrogate is None:
            self._surrogate = get_surrogate(self.framework.compressor_name)
        eb = heuristic_error_bound(
            data,
            target_ratio,
            compressor=self.framework.compressor_name,
            points=self.options.heuristic_points,
            surrogate=self._surrogate,
        )
        self._t0 += 1
        return Prediction(
            error_bound=float(eb),
            target_ratio=float(target_ratio),
            features=np.empty(0),
            feature_seconds=0.0,
            inference_seconds=0.0,
        )

    def refine(self, data: np.ndarray, target_ratio: float, *, initial_eb: float) -> FrazResult:
        """T2: warm-started search against the real compressor.

        Runs strictly in-process (never on a worker pool), so escalated
        chunks cost the same bytes for every worker count. Probes go
        through the codec's sizer, so they are exact but not necessarily
        compressions: the stats count both (``probes_spent`` vs
        ``compressions_spent``), and the result's ``history`` keeps every
        probe's ``(eb, ratio)`` for the caller to learn from.
        """
        codec = self.framework.compressor_name
        if self._search is None or self._search_codec != codec:
            self._search = FrazSearch(
                codec,
                tolerance=self.options.refine_tolerance,
                max_iterations=self.options.refine_compressions,
            )
            self._search_codec = codec
        fraz = self._search.compress_to_ratio(
            data, target_ratio, initial_eb=initial_eb
        )
        self._compressions += fraz.n_compressions
        self._probes += fraz.n_probes
        self._unreachable += int(not fraz.reachable)
        return fraz

    # -- introspection -----------------------------------------------------------

    def stats(self, *, budget_drift: float = float("nan")) -> ControlStats:
        """A :class:`ControlStats` snapshot of the current scope."""
        return ControlStats(
            t0=self._t0,
            t1=self._t1,
            t2=self._t2,
            escalations_std=self._esc_std,
            escalations_pressure=self._esc_pressure,
            compressions_spent=self._compressions,
            probes_spent=self._probes,
            unreachable=self._unreachable,
            budget_drift=float(budget_drift),
        )
