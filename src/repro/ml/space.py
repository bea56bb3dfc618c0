"""Hyper-parameter search spaces (paper Section 5.3).

The paper searches six random-forest hyper-parameters; ``PAPER_SPACE`` is
that space verbatim (~4x10^5 unique configurations). ``SCALED_SPACE`` keeps
the same six dimensions but shrinks the expensive ones (``n_estimators``,
``max_depth``) so the full experiment suite runs in minutes on one CPU core
— the scaling is recorded in EXPERIMENTS.md.

Parameters encode to the unit hypercube for the Gaussian-process optimizer:
integer ranges map affinely, categoricals map to evenly spaced bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IntRange:
    """Integer parameter in [lo, hi] with a step (inclusive endpoints)."""

    lo: int
    hi: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.hi < self.lo or self.step < 1:
            raise ValueError("invalid IntRange")

    @property
    def n_values(self) -> int:
        return (self.hi - self.lo) // self.step + 1

    def sample(self, rng: np.random.Generator) -> int:
        return int(self.lo + self.step * rng.integers(0, self.n_values))

    def encode(self, value: int) -> float:
        if self.n_values == 1:
            return 0.5
        return ((int(value) - self.lo) / self.step) / (self.n_values - 1)

    def decode(self, u: float) -> int:
        k = int(round(float(np.clip(u, 0.0, 1.0)) * (self.n_values - 1)))
        return self.lo + self.step * k


@dataclass(frozen=True)
class Choice:
    """Categorical parameter over an ordered tuple of values."""

    values: tuple

    @property
    def n_values(self) -> int:
        return len(self.values)

    def sample(self, rng: np.random.Generator):
        return self.values[int(rng.integers(0, len(self.values)))]

    def encode(self, value) -> float:
        idx = self.values.index(value)
        if len(self.values) == 1:
            return 0.5
        return idx / (len(self.values) - 1)

    def decode(self, u: float):
        idx = int(round(float(np.clip(u, 0.0, 1.0)) * (len(self.values) - 1)))
        return self.values[idx]


class SearchSpace:
    """Named collection of parameter specs with unit-cube encoding."""

    def __init__(self, specs: dict[str, IntRange | Choice]) -> None:
        if not specs:
            raise ValueError("search space must have at least one parameter")
        self.specs = dict(specs)
        self.names = list(specs)

    @property
    def dim(self) -> int:
        return len(self.specs)

    def size(self) -> int:
        """Number of unique configurations (the paper reports 396 000)."""
        total = 1
        for spec in self.specs.values():
            total *= spec.n_values
        return total

    def sample(self, rng: np.random.Generator) -> dict:
        return {name: spec.sample(rng) for name, spec in self.specs.items()}

    def encode(self, params: dict) -> np.ndarray:
        return np.array([self.specs[n].encode(params[n]) for n in self.names])

    def decode(self, vec: np.ndarray) -> dict:
        return {n: self.specs[n].decode(v) for n, v in zip(self.names, vec)}


def _forest_space(n_estimators: IntRange, max_depth: IntRange) -> SearchSpace:
    return SearchSpace(
        {
            "n_estimators": n_estimators,
            "max_features": Choice(("auto", "sqrt")),
            "max_depth": max_depth,
            "min_samples_split": Choice((2, 5, 10)),
            "min_samples_leaf": Choice((1, 2, 4)),
            "bootstrap": Choice((True, False)),
        }
    )


#: The paper's space: n_estimators [90:1200], max_depth [10:110]; ~4.4e5
#: unique configurations (the paper quotes 396 000 for the same six axes).
PAPER_SPACE = _forest_space(IntRange(90, 1200, 1), IntRange(10, 110, 10))

#: Laptop-scale variant used by the default benchmark configuration.
SCALED_SPACE = _forest_space(IntRange(10, 80, 5), IntRange(4, 16, 2))
