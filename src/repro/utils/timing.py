"""Named wall-clock totals.

Training-data collection reports what it cost through a
:class:`TimingRecord` (``TrainingData.timing``), and merged training
sets merge their records.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TimingRecord:
    """Accumulates named wall-clock measurements.

    Measurements with the same name accumulate, so a record can be shared
    across repeated stage invocations (e.g. one compressor run per error
    bound during data collection).
    """

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + float(seconds)
        self.counts[name] = self.counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def mean(self, name: str) -> float:
        count = self.counts.get(name, 0)
        return self.totals[name] / count if count else 0.0

    def merge(self, other: "TimingRecord") -> None:
        for name, seconds in other.totals.items():
            self.totals[name] = self.totals.get(name, 0.0) + seconds
            self.counts[name] = self.counts.get(name, 0) + other.counts[name]

    def as_dict(self) -> dict[str, float]:
        return dict(self.totals)

    def __contains__(self, name: str) -> bool:
        return name in self.totals
