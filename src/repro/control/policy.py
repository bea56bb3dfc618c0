"""Escalation policy: which tier answers a ratio-control request.

The control plane chooses, per chunk or request, between three tiers of
increasing cost and increasing trustworthiness:

====  ==========  ===============================================  ========
tier  name        how the error bound is produced                  cost
====  ==========  ===============================================  ========
T0    HEURISTIC   surrogate-curve inversion, no features/model     cheapest
T1    MODEL       the fitted model's prediction (the default)      1 feature
                                                                   pass + 1
                                                                   forest pass
T2    REFINE      FRaZ-style iterative search against the real     1–N probes
                  compressor, warm-started from the prior tier     (at most N
                                                                   compressions)
====  ==========  ===============================================  ========

:func:`decide_tier` is the *entire* decision — a pure, deterministic
function of three observables:

- ``std``: the model's across-tree spread for this request (log-eb
  space), ``nan`` when unknown (no model pass yet, or a model kind with
  no spread);
- ``pressure``: the observed relative drift of achieved ratio from the
  target — the store writer's closed loop measures it over committed
  chunks;
- ``risk_remaining``: how many T2 escalations the caller may still
  spend (the per-pack risk budget).

Determinism matters because the store packs in parallel waves: every
decision input is *committed* state (wave-boundary budget accounting,
bitwise-reproducible model spreads), never timing or completion order,
so controller-on packs are byte-identical for every worker count.

The decision is monotone by construction: growing ``std`` or
``pressure`` can only raise the tier, and a larger ``risk_remaining``
can only enable (never suppress) escalation — the property the
escalation-table tests assert over input grids.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Tier(enum.IntEnum):
    """Escalation tiers, ordered so ``max(tier_a, tier_b)`` escalates."""

    HEURISTIC = 0  # T0: surrogate-curve inversion
    MODEL = 1      # T1: fitted-model prediction
    REFINE = 2     # T2: iterative search against the real compressor


@dataclass(frozen=True, kw_only=True)
class ControlOptions:
    """Frozen, hashable control-plane configuration.

    Thresholds split the (std, pressure) plane into the three tiers:

    - ``t0_std`` / ``t0_pressure``: the *relax* corner. A request may
      drop to the heuristic tier only when the model's spread is known
      and at most ``t0_std`` AND observed drift is at most
      ``t0_pressure``. ``t0_std = 0.0`` (the default) disables the
      heuristic tier entirely — relaxing below the model is opt-in.
    - ``t2_std`` / ``t2_pressure``: the *escalate* edge. A spread at or
      above ``t2_std``, or drift at or above ``t2_pressure``, escalates
      to iterative refinement — if the risk budget still allows it.

    ``risk_budget`` caps T2 escalations per pack (the store consumes it
    chunk-by-chunk in flat chunk-id order, so the cap binds
    deterministically). ``refine_compressions`` bounds the probes
    (``(eb, ratio)`` measurements — real compressions unless the codec
    sizes in closed form) any single T2 search may spend, and
    ``refine_tolerance`` is its per-request convergence band.
    ``heuristic_points`` sizes the surrogate curve the T0 tier inverts,
    and ``std_window`` is how many committed chunk spreads the store's
    wave-boundary relax decision averages over.
    """

    t0_std: float = 0.0
    t0_pressure: float = 0.02
    t2_std: float = 0.25
    t2_pressure: float = 0.10
    risk_budget: int = 16
    refine_compressions: int = 4
    refine_tolerance: float = 0.05
    heuristic_points: int = 5
    std_window: int = 32

    def __post_init__(self) -> None:
        if self.t0_std < 0:
            raise ValueError("t0_std must be >= 0")
        if self.t0_pressure < 0:
            raise ValueError("t0_pressure must be >= 0")
        if self.t2_std <= self.t0_std:
            raise ValueError("need t0_std < t2_std (tiers must be ordered)")
        if self.t2_pressure <= self.t0_pressure:
            raise ValueError("need t0_pressure < t2_pressure (tiers must be ordered)")
        if self.risk_budget < 0:
            raise ValueError("risk_budget must be >= 0")
        if self.refine_compressions < 1:
            raise ValueError("refine_compressions must be >= 1")
        if self.refine_tolerance <= 0:
            raise ValueError("refine_tolerance must be > 0")
        if self.heuristic_points < 2:
            raise ValueError("heuristic_points must be >= 2")
        if self.std_window < 1:
            raise ValueError("std_window must be >= 1")


def decide_tier(
    *, std: float, pressure: float, risk_remaining: int, options: ControlOptions
) -> Tier:
    """The escalation decision table — pure and deterministic.

    ``std`` may be ``nan`` (unknown): an unknown spread never qualifies
    for the heuristic tier (relaxing needs positive evidence of
    confidence) and never by itself triggers refinement (drift still
    can). Escalation to :attr:`Tier.REFINE` requires ``risk_remaining``
    > 0; with the budget exhausted the decision caps at
    :attr:`Tier.MODEL`.
    """
    std_known = not math.isnan(std)
    if (std_known and std >= options.t2_std) or pressure >= options.t2_pressure:
        if risk_remaining > 0:
            return Tier.REFINE
        return Tier.MODEL
    if (
        options.t0_std > 0.0
        and std_known
        and std <= options.t0_std
        and pressure <= options.t0_pressure
    ):
        return Tier.HEURISTIC
    return Tier.MODEL


@dataclass(frozen=True)
class ControlStats:
    """Typed, immutable control-plane counters (PR 7 stats convention).

    ``t0``/``t1``/``t2`` count requests answered per tier;
    ``escalations_std`` / ``escalations_pressure`` split the T2 count by
    what triggered it (a low-confidence model vs. observed budget
    drift); ``compressions_spent`` is the total real compressor runs the
    T2 searches consumed (each chunk would have cost one compression
    anyway, so the *overhead* is ``compressions_spent - t2``);
    ``probes_spent`` is the search budget those T2 searches used — every
    ``(eb, ratio)`` they measured; it equals ``compressions_spent`` for
    a codec whose only sizer is the compressor itself and exceeds it
    where the size has a closed form (szx: one compression per T2
    chunk); ``unreachable`` counts T2 searches that ended on a bracket
    end with the target outside the codec's range there — the chunk was
    stored at that end, not at its target; ``budget_drift`` is the final
    whole-pack relative ratio drift (``nan`` outside a pack context).
    """

    t0: int
    t1: int
    t2: int
    escalations_std: int
    escalations_pressure: int
    compressions_spent: int
    probes_spent: int
    unreachable: int
    budget_drift: float

    @property
    def requests(self) -> int:
        return self.t0 + self.t1 + self.t2

    @property
    def escalations(self) -> int:
        return self.escalations_std + self.escalations_pressure

    def as_dict(self) -> dict:
        return {
            "t0": self.t0,
            "t1": self.t1,
            "t2": self.t2,
            "escalations_std": self.escalations_std,
            "escalations_pressure": self.escalations_pressure,
            "compressions_spent": self.compressions_spent,
            "probes_spent": self.probes_spent,
            "unreachable": self.unreachable,
            "budget_drift": self.budget_drift,
        }
