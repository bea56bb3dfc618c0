"""Risk- and budget-aware control plane: heuristic → model → FRaZ.

One fitted model answers most requests (T1), but two failure modes call
for different tiers: a model that has *earned trust* on this data can be
relaxed to a surrogate-curve heuristic (T0, no features, no forest), and
a chunk the model is *visibly unsure about* — or a pack drifting off its
byte budget — escalates to a warm-started FRaZ search against the real
compressor (T2). :mod:`repro.control.policy` is the pure decision table;
:class:`Controller` adds the stateful accounting (risk budget, spread
window, tier counters) and runs the T2 search;
:mod:`repro.control.escalate` is the T0 heuristic. The ledger's
``pack-szx-ctl`` workload measures the whole plane end to end
(``ledger/README.md``).
"""

from repro.control.controller import Controller
from repro.control.escalate import heuristic_error_bound
from repro.control.policy import ControlOptions, ControlStats, Tier, decide_tier

__all__ = [
    "ControlOptions",
    "ControlStats",
    "Controller",
    "Tier",
    "decide_tier",
    "heuristic_error_bound",
]
