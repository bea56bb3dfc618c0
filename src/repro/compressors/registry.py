"""Name-based registry for the reference compressors.

The frameworks, surrogates and benchmark harnesses all address compressors
by the paper's names ("szx", "zfp", "sz3", "sperr").
"""

from __future__ import annotations

from typing import Callable

from repro.compressors.base import LossyCompressor
from repro.compressors.cuszp import CuSZpCompressor
from repro.compressors.sperr import SPERRCompressor
from repro.compressors.sz3 import SZ3Compressor
from repro.compressors.szx import SZXCompressor
from repro.compressors.zfp import ZFPCompressor

#: The four compressors the paper evaluates, in its order.
PAPER_COMPRESSORS = ("szx", "zfp", "sz3", "sperr")

_REGISTRY: dict[str, Callable[[], LossyCompressor]] = {
    "szx": SZXCompressor,
    "zfp": ZFPCompressor,
    "sz3": SZ3Compressor,
    "sperr": SPERRCompressor,
    "cuszp": CuSZpCompressor,  # paper-referenced extension (SC'23)
}


def available_compressors() -> list[str]:
    """Names of all registered compressors (paper four + extensions)."""
    return list(_REGISTRY)


def get_compressor(name: str, **kwargs) -> LossyCompressor:
    """Instantiate a compressor by name (case-insensitive)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown compressor {name!r}; available: {', '.join(_REGISTRY)}"
        )
    return _REGISTRY[key](**kwargs)
