"""Registry of surrogate estimators by compressor name."""

from __future__ import annotations

from typing import Callable

from repro.surrogate.base import SurrogateEstimator
from repro.surrogate.sperr_surrogate import SPERRSurrogate
from repro.surrogate.sz3_surrogate import SZ3Surrogate
from repro.surrogate.szx_surrogate import SZXSurrogate
from repro.surrogate.zfp_surrogate import ZFPSurrogate


def _cuszp_surrogate() -> SurrogateEstimator:
    # No tailored SECRE design exists for cuSZp; use the paper's fallback
    # (Compressor Behavior 3): full compression on block-window samples.
    from repro.surrogate.sampled_full import SampledFullSurrogate

    return SampledFullSurrogate("cuszp", window="block", fraction=0.1)


_REGISTRY: dict[str, Callable[[], SurrogateEstimator]] = {
    "szx": SZXSurrogate,
    "zfp": ZFPSurrogate,
    "sz3": SZ3Surrogate,
    "sperr": SPERRSurrogate,
    "cuszp": _cuszp_surrogate,
}


def available_surrogates() -> list[str]:
    return list(_REGISTRY)


def get_surrogate(name: str, **kwargs) -> SurrogateEstimator:
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"no surrogate for {name!r}; available: {', '.join(_REGISTRY)}")
    return _REGISTRY[key](**kwargs)
