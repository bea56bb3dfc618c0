"""Field container used throughout the frameworks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Field:
    """One named scalar field from a (synthetic) scientific dataset."""

    dataset: str
    name: str
    data: np.ndarray
    timestep: int = 0

    @property
    def path(self) -> str:
        """Stable identifier, e.g. ``"miranda/viscosity"``."""
        if self.timestep:
            return f"{self.dataset}/{self.name}@t{self.timestep}"
        return f"{self.dataset}/{self.name}"

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def value_range(self) -> float:
        return float(self.data.max() - self.data.min())

    def relative_error_bound(self, rel: float) -> float:
        """Absolute error bound corresponding to a value-range fraction."""
        vr = self.value_range
        return rel * vr if vr > 0 else rel

    def __repr__(self) -> str:
        return f"Field({self.path}, shape={self.data.shape}, dtype={self.data.dtype})"
