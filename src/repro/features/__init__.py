"""Compressibility feature extraction (FXRZ's five features, Section 5.4).

- :mod:`repro.features.definitions` — mean value, value range, mean
  neighbor difference (MND), mean Lorenzo difference (MLD), mean spline
  difference (MSD), Eqs. (5)-(8);
- :mod:`repro.features.serial` — FXRZ's extraction: full-data and
  stride-4 point-sampled variants;
- :mod:`repro.features.parallel` — CAROL's extraction: block-wise sampling
  with surface exclusion, fused single pass (the GPU-kernel algorithm,
  vectorized here);
- :mod:`repro.features.gpu_model` — analytical cost model reporting the
  simulated GPU kernel time used by the figure harnesses (see DESIGN.md
  substitutions).
"""

from repro.features.definitions import (
    FEATURE_NAMES,
    feature_vector,
    mean_lorenzo_difference,
    mean_neighbor_difference,
    mean_spline_difference,
)
from repro.features.parallel import extract_features_parallel
from repro.features.serial import extract_features_serial

__all__ = [
    "FEATURE_NAMES",
    "feature_vector",
    "mean_neighbor_difference",
    "mean_lorenzo_difference",
    "mean_spline_difference",
    "extract_features_serial",
    "extract_features_parallel",
]
