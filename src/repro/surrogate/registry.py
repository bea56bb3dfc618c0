"""Registry of surrogate estimators by compressor name."""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.compressors.registry import get_compressor
from repro.compressors.szx import BLOCK as SZX_BLOCK
from repro.surrogate.base import SurrogateEstimator
from repro.surrogate.sampled_full import SampledFullSurrogate
from repro.surrogate.sampling import sample_flat_blocks, sample_grid_blocks
from repro.surrogate.sperr_surrogate import SPERRSurrogate
from repro.surrogate.sz3_surrogate import SZ3Surrogate


def _szx_surrogate(stride: int = 128) -> SurrogateEstimator:
    # One 128-value block every ``stride`` (paper: 0.16% error). min_blocks=32
    # keeps sampling noise low on the scaled-down datasets; on paper-sized
    # data the stride stays at the faithful 1-in-128.
    sample = partial(
        sample_flat_blocks, block_size=SZX_BLOCK, stride=int(stride), min_blocks=32
    )
    return SampledFullSurrogate(get_compressor("szx"), sample)


def _zfp_sample(data: np.ndarray) -> np.ndarray:
    blocks = sample_grid_blocks(data, 4, 32)
    # Stacking along axis 0 keeps every sampled block 4-aligned, so the
    # codec partitions the stack back into exactly the sampled blocks.
    return blocks.reshape((-1,) + blocks.shape[2:])


def _zfp_surrogate() -> SurrogateEstimator:
    # One 4^d block every 32 (paper: 1.7% error).
    return SampledFullSurrogate(get_compressor("zfp"), _zfp_sample)


def _cuszp_surrogate() -> SurrogateEstimator:
    # No tailored SECRE design exists for cuSZp; use the paper's fallback
    # (Compressor Behavior 3): the codec on one 128-value block in 10.
    sample = partial(sample_flat_blocks, block_size=128, stride=10)
    return SampledFullSurrogate(get_compressor("cuszp"), sample)


_REGISTRY: dict[str, Callable[..., SurrogateEstimator]] = {
    "szx": _szx_surrogate,
    "zfp": _zfp_surrogate,
    "sz3": SZ3Surrogate,
    "sperr": SPERRSurrogate,
    "cuszp": _cuszp_surrogate,
}


def get_surrogate(name: str, **kwargs) -> SurrogateEstimator:
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"no surrogate for {name!r}; available: {', '.join(_REGISTRY)}")
    return _REGISTRY[key](**kwargs)
