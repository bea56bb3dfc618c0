"""SECRE: surrogate-based compression-ratio estimation (Khan et al., HiPC'23).

Each estimator mimics one compressor with (a) data sampling matched to the
compressor's compression window and (b) a lightweight pipeline that skips the
expensive stages (Table 1 of the CAROL paper):

============  ===========  ==========================================
compressor    sampling     surrogate pipeline
============  ===========  ==========================================
SZx           block-wise   the real codec on sampled 128-blocks
ZFP           block-wise   the real codec on sampled 4^d blocks
SZ3           point-wise   last-level spline interp, *no* Huffman/LZ
SPERR         large chunk  wavelet+SPECK on one chunk, *no* outliers/LZ
============  ===========  ==========================================

SZx and ZFP (and cuSZp, the paper's Compressor Behavior 3 fallback) share
one estimator, :class:`~repro.surrogate.sampled_full.SampledFullSurrogate`:
the codec plus a sampler matched to its window. The skipped stages are
exactly why SECRE is near-exact for SZx/ZFP but systematically biased (up
to tens of %) for SZ3/SPERR — the behaviour CAROL's calibration corrects.
"""

from repro.surrogate.base import SurrogateEstimator
from repro.surrogate.registry import get_surrogate
from repro.surrogate.sperr_surrogate import SPERRSurrogate
from repro.surrogate.sz3_surrogate import SZ3Surrogate

__all__ = [
    "SurrogateEstimator",
    "SZ3Surrogate",
    "SPERRSurrogate",
    "get_surrogate",
]
