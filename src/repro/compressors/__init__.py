"""Error-bounded lossy compressors (the paper's four reference codecs).

Each codec is a from-scratch NumPy implementation of the published
algorithm's architecture (see DESIGN.md for the fidelity argument):

- :class:`repro.compressors.szx.SZXCompressor` — block-wise delta/truncation
  (SZx, HPDC'22);
- :class:`repro.compressors.zfp.ZFPCompressor` — 4^d block transform +
  embedded bit-plane coding (ZFP, TVCG'14);
- :class:`repro.compressors.sz3.SZ3Compressor` — spline-interpolation /
  Lorenzo prediction + Huffman + LZ (SZ3, TBD'23);
- :class:`repro.compressors.sperr.SPERRCompressor` — CDF 9/7 wavelet +
  SPECK set partitioning + outlier correction + LZ (SPERR, IPDPS'23).

All satisfy the pointwise absolute error bound and are monotone:
compression ratio is non-decreasing in the error bound.
"""

from repro.compressors.base import CompressionResult, LossyCompressor, Sizer
from repro.compressors.registry import available_compressors, get_compressor
from repro.compressors.sperr import SPERRCompressor
from repro.compressors.sz3 import SZ3Compressor
from repro.compressors.szx import SZXCompressor
from repro.compressors.zfp import ZFPCompressor

__all__ = [
    "CompressionResult",
    "LossyCompressor",
    "Sizer",
    "SZXCompressor",
    "ZFPCompressor",
    "SZ3Compressor",
    "SPERRCompressor",
    "get_compressor",
    "available_compressors",
]
