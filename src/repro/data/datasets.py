"""Synthetic stand-ins for the paper's six datasets (Table 2).

Every generator is deterministic in its seed, returns float32 fields (the
SDRBench convention), and accepts a ``shape`` override. Default shapes are
scaled-down versions of the paper's (Table 2) so the full experiment suite
runs on one CPU; the aspect ratios and per-field character are preserved.

===========  =========================  =============================
dataset      paper dims                 default here
===========  =========================  =============================
Miranda      256 x 384 x 384, 7 fields  48 x 64 x 64
NYX          512^3, 4 fields, t-steps   48^3
CESM         1800 x 3600 (2-D)          180 x 360
Hurricane    100 x 500 x 500, 13 x 48t  24 x 72 x 72
HCCI         560^3                      56^3
MRS          512^3                      48^3
===========  =========================  =============================
"""

from __future__ import annotations

import numpy as np

from repro.data.fields import Field
from repro.data.synthetic import (
    current_sheet_field,
    front_field,
    gaussian_random_field,
    lognormal_field,
    radial_coords,
    vortex_field,
)

_F32 = np.float32


def _mk(dataset: str, name: str, data: np.ndarray, timestep: int = 0) -> Field:
    return Field(dataset=dataset, name=name, data=data.astype(_F32), timestep=timestep)


def miranda(shape: tuple[int, ...] = (48, 64, 64), seed: int = 7) -> list[Field]:
    """Radiation-hydrodynamics turbulence (LLNL Miranda): 7 fields.

    Mixing-layer character: smooth large-scale structure with a turbulent
    interface band — density/viscosity smooth and highly compressible,
    velocities closer to Kolmogorov turbulence.
    """
    rng = np.random.default_rng(seed)
    mesh, _ = radial_coords(shape)
    # Mixing interface along axis 0, as in the Rayleigh-Taylor setup.
    interface = np.tanh(6.0 * (mesh[0] - 0.5) + gaussian_random_field(shape, -3.0, rng))
    fields = [
        _mk(
            "miranda",
            "density",
            1.0 + 0.8 * interface + 0.05 * gaussian_random_field(shape, -3.2, rng),
        ),
        _mk("miranda", "diffusivity", np.exp(0.4 * gaussian_random_field(shape, -4.0, rng))),
        _mk("miranda", "pressure", 10.0 + 2.0 * gaussian_random_field(shape, -3.6, rng)),
        _mk("miranda", "velocityx", gaussian_random_field(shape, -5.0 / 3.0 - 2.0, rng)),
        _mk("miranda", "velocityy", gaussian_random_field(shape, -5.0 / 3.0 - 2.0, rng)),
        _mk("miranda", "velocityz", gaussian_random_field(shape, -5.0 / 3.0 - 2.0, rng)),
        _mk(
            "miranda",
            "viscosity",
            np.exp(0.3 * gaussian_random_field(shape, -3.8, rng)) * (1.2 + interface),
        ),
    ]
    return fields


def nyx(
    shape: tuple[int, ...] = (48, 48, 48), seed: int = 11, timestep: int = 0
) -> list[Field]:
    """Cosmological hydrodynamics (NYX): 4 fields, multiple timesteps.

    Density fields are log-normal with strong clumping (huge dynamic range),
    temperature log-normal but milder, velocity a near-Gaussian field.
    ``timestep`` evolves the structure via phase rotation + growth, the
    analogue of gravitational clustering between snapshots.
    """
    rng = np.random.default_rng(seed)
    shift = 0.015 * timestep
    growth = 0.06 * timestep
    kwargs = dict(phase_shift=shift, amplitude_growth=growth)
    baryon = lognormal_field(shape, slope=-2.2, sigma=1.8 + 0.02 * timestep, seed=rng, **kwargs)
    dm = lognormal_field(shape, slope=-2.0, sigma=2.2 + 0.02 * timestep, seed=rng, **kwargs)
    temp = 1e4 * lognormal_field(shape, slope=-2.6, sigma=0.9, seed=rng, **kwargs)
    vel = 3e7 * gaussian_random_field(shape, slope=-2.4, seed=rng, **kwargs)
    return [
        _mk("nyx", "baryon_density", baryon, timestep),
        _mk("nyx", "dark_matter_density", dm, timestep),
        _mk("nyx", "temperature", temp, timestep),
        _mk("nyx", "velocity_x", vel, timestep),
    ]


def cesm(shape: tuple[int, ...] = (180, 360), seed: int = 13) -> list[Field]:
    """Community Earth System Model (2-D climate): 6 representative fields.

    Strong zonal (latitudinal) structure plus smooth anomalies; CESM's 77
    fields fall into a few statistical families, one field per family here.
    """
    rng = np.random.default_rng(seed)
    lat = np.linspace(-np.pi / 2, np.pi / 2, shape[0])[:, None]
    zonal = np.cos(lat) ** 2 * np.ones((1, shape[1]))
    aniso = (1.0, 3.0)  # smoother east-west than north-south
    return [
        _mk(
            "cesm",
            "ts",
            220.0 + 80.0 * zonal + 5.0 * gaussian_random_field(shape, -3.4, rng, anisotropy=aniso),
        ),
        _mk("cesm", "psl", 1e5 + 2e3 * gaussian_random_field(shape, -3.8, rng, anisotropy=aniso)),
        _mk("cesm", "precip", np.maximum(lognormal_field(shape, -2.4, 1.2, rng) * zonal, 0.0)),
        _mk(
            "cesm",
            "u850",
            15.0 * zonal * np.sin(3 * lat)
            + 4.0 * gaussian_random_field(shape, -2.9, rng, anisotropy=aniso),
        ),
        _mk(
            "cesm",
            "cloud",
            np.clip(0.5 + 0.4 * gaussian_random_field(shape, -2.6, rng), 0.0, 1.0),
        ),
        _mk(
            "cesm",
            "q",
            np.exp(-4.0 + 2.0 * zonal + 0.5 * gaussian_random_field(shape, -3.1, rng)),
        ),
    ]


_HURRICANE_FIELDS = (
    "u", "v", "w", "tc", "p", "qvapor", "qcloud", "qice",
    "qrain", "qsnow", "qgraup", "precip", "vapor",
)


def hurricane(
    shape: tuple[int, ...] = (24, 72, 72), seed: int = 17, timestep: int = 0
) -> list[Field]:
    """Hurricane Isabel (weather): 13 fields; the vortex moves with time.

    The time-varying data characteristics — the eye translating across the
    domain while intensifying — are the behaviour that motivates CAROL's
    incremental model refinement (paper Section 1).
    """
    rng = np.random.default_rng(seed)
    # Eye translates diagonally and deepens with timestep.
    cx = 0.30 + 0.010 * timestep
    cy = 0.30 + 0.008 * timestep
    strength = 1.0 + 0.04 * timestep
    center = (0.5, cx % 1.0, cy % 1.0) if len(shape) == 3 else (cx % 1.0, cy % 1.0)
    vortex = vortex_field(shape, center, radius=0.15, strength=strength)
    shift = 0.01 * timestep
    fields = []
    for i, name in enumerate(_HURRICANE_FIELDS):
        background = gaussian_random_field(
            shape, slope=-2.8 - 0.1 * (i % 4), seed=rng, phase_shift=shift
        )
        if name in ("u", "v"):
            data = 30.0 * vortex * (1 if name == "u" else -1) + 5.0 * background
        elif name == "p":
            peak = np.exp(-((vortex / vortex.max()) ** 2))
            data = 1e5 - 5e3 * strength * peak + 300.0 * background
        elif name.startswith("q") or name in ("vapor", "precip"):
            data = np.maximum(np.exp(0.8 * background) * (0.2 + vortex), 0.0) * 1e-3
        else:
            data = 280.0 + 20.0 * background + 10.0 * vortex
        fields.append(_mk("hurricane", name, data, timestep))
    return fields


def hcci(shape: tuple[int, ...] = (56, 56, 56), seed: int = 19) -> list[Field]:
    """Homogeneous charge compression ignition (Klacansky): sharp fronts."""
    rng = np.random.default_rng(seed)
    return [_mk("hcci", "oh", 1.0 + front_field(shape, rng, sharpness=30.0, n_fronts=4))]


def mrs(shape: tuple[int, ...] = (48, 48, 48), seed: int = 23) -> list[Field]:
    """Magnetic reconnection simulation (Klacansky): current sheets."""
    rng = np.random.default_rng(seed)
    return [_mk("mrs", "magnetic_reconnection", current_sheet_field(shape, rng))]


def duct(shape: tuple[int, ...] = (24, 48, 96), seed: int = 29) -> list[Field]:
    """Duct flow (Klacansky, used in Fig. 3): channel turbulence."""
    rng = np.random.default_rng(seed)
    mesh, _ = radial_coords(shape)
    profile = 4.0 * mesh[0] * (1.0 - mesh[0])  # parabolic channel profile
    turb = gaussian_random_field(
        shape, slope=-5.0 / 3.0 - 2.0, seed=rng, anisotropy=(1.0, 1.0, 0.4)
    )
    return [_mk("duct", "velocity_magnitude", 10.0 * profile + 2.0 * turb * profile)]


_GENERATORS = {
    "miranda": miranda,
    "nyx": nyx,
    "cesm": cesm,
    "hurricane": hurricane,
    "hcci": hcci,
    "mrs": mrs,
    "duct": duct,
}

DATASET_NAMES = tuple(_GENERATORS)


def load_dataset(name: str, **kwargs) -> list[Field]:
    """Generate all fields of a dataset by name."""
    key = name.lower()
    if key not in _GENERATORS:
        raise KeyError(f"unknown dataset {name!r}; available: {', '.join(_GENERATORS)}")
    shape = kwargs.get("shape")
    if shape is not None and not all(
        isinstance(n, (int, np.integer)) and n > 0 for n in shape
    ):
        raise ValueError(f"shape {tuple(shape)}: every axis must be a positive integer")
    return _GENERATORS[key](**kwargs)


def load_field(path: str, **kwargs) -> Field:
    """Load one field by ``"dataset/field"`` path, e.g. ``"miranda/viscosity"``."""
    dataset, _, fname = path.partition("/")
    for f in load_dataset(dataset, **kwargs):
        if f.name == fname:
            return f
    raise KeyError(f"dataset {dataset!r} has no field {fname!r}")
