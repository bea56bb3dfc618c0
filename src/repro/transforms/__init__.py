"""Numerical transforms and predictors used by the compressors.

- :mod:`repro.transforms.lorenzo` — multidimensional Lorenzo predictor
  (SZ3's low-order predictor, also feature MLD).
- :mod:`repro.transforms.spline` — 4-point cubic spline interpolation
  predictor (SZ3's interpolation stage, also feature MSD).
- :mod:`repro.transforms.wavelet` — CDF 9/7 biorthogonal lifting wavelet
  (SPERR's transform), multilevel, any dimensionality.
- :mod:`repro.transforms.zfp_transform` — ZFP's decorrelating block
  transform on 4^d blocks with its exact inverse.
"""

from repro.transforms.lorenzo import lorenzo_predict
from repro.transforms.spline import spline_predict_axis
from repro.transforms.wavelet import cdf97_forward, cdf97_inverse
from repro.transforms.zfp_transform import zfp_block_forward, zfp_block_inverse

__all__ = [
    "lorenzo_predict",
    "spline_predict_axis",
    "cdf97_forward",
    "cdf97_inverse",
    "zfp_block_forward",
    "zfp_block_inverse",
]
