"""Declarative framework configuration.

Experiments should be reproducible from a single artifact: a
:class:`FrameworkConfig` captures everything that determines a fit —
framework kind, compressor, error-bound grid, trainer budget, calibration
points, model family — and loads from a plain JSON file, so a training
run can be pinned in a config file and rebuilt bit-for-bit (modulo wall
clock) anywhere.

The CLI's ``train`` builds one, from its flags or from ``--config``, and
fits what :meth:`FrameworkConfig.build` returns on
:meth:`FrameworkConfig.load_training_fields`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_FRAMEWORKS = ("carol", "fxrz")


@dataclass
class FrameworkConfig:
    """Everything that determines a framework fit."""

    framework: str = "carol"
    compressor: str = "sz3"
    rel_eb_min: float = 1e-3
    rel_eb_max: float = 1e-1
    n_error_bounds: int = 16
    n_iter: int = 8
    cv: int = 3
    seed: int = 0
    calibration_points: int = 4
    model_kind: str = "forest"
    datasets: list[str] = field(default_factory=lambda: ["miranda"])
    shape: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.framework not in _FRAMEWORKS:
            raise ValueError(f"framework must be one of {_FRAMEWORKS}")
        if not 0 < self.rel_eb_min < self.rel_eb_max:
            raise ValueError("need 0 < rel_eb_min < rel_eb_max")
        if self.n_error_bounds < 2:
            raise ValueError("n_error_bounds must be >= 2")
        if self.n_iter < 1 or self.cv < 2:
            raise ValueError("n_iter must be >= 1 and cv >= 2")
        if self.shape is not None:
            self.shape = tuple(int(s) for s in self.shape)

    # -- construction -----------------------------------------------------

    def rel_error_bounds(self) -> np.ndarray:
        return np.geomspace(self.rel_eb_min, self.rel_eb_max, self.n_error_bounds)

    def build(self):
        """Instantiate the configured (unfitted) framework."""
        from repro.core.carol import CarolFramework
        from repro.core.fxrz import FxrzFramework

        cls = CarolFramework if self.framework == "carol" else FxrzFramework
        return cls(
            compressor=self.compressor,
            rel_error_bounds=self.rel_error_bounds(),
            n_iter=self.n_iter,
            cv=self.cv,
            seed=self.seed,
            calibration_points=self.calibration_points,
            model_kind=self.model_kind,
        )

    def load_training_fields(self):
        """Materialize the configured training fields."""
        from repro.data.datasets import load_dataset

        kwargs = {"shape": self.shape} if self.shape else {}
        fields = []
        for ds in self.datasets:
            fields.extend(load_dataset(ds, **kwargs))
        return fields

    # -- loading ------------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "FrameworkConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def load(cls, path: str | Path) -> "FrameworkConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))
