"""Shared curve-measurement helpers for the experiment harnesses.

Measuring a ground-truth compression function f(e) (running the full
compressor over the whole error-bound grid) is the dominant cost of several
experiments, so it is cached per (field, compressor, grid) within a process.
"""

from __future__ import annotations

import time

import numpy as np

from repro.compressors.registry import get_compressor
from repro.data.fields import Field
from repro.obs import span

_CACHE: dict[tuple, tuple[np.ndarray, float]] = {}


def true_curve(field: Field, compressor: str, ebs: np.ndarray) -> tuple[np.ndarray, float]:
    """Ground-truth f(e) and the wall seconds it took to measure.

    Cached: repeated calls with the same field/compressor/grid reuse the
    first measurement (and report its original cost).
    """
    key = (field.path, field.data.shape, compressor, ebs.tobytes())
    if key in _CACHE:
        return _CACHE[key]
    with span("bench.true_curve", field=field.path, compressor=compressor,
              n_points=int(ebs.size)):
        codec = get_compressor(compressor)
        start = time.perf_counter()
        ratios = np.array([codec.compression_ratio(field.data, float(eb)) for eb in ebs])
        elapsed = time.perf_counter() - start
    _CACHE[key] = (ratios, elapsed)
    return ratios, elapsed


def clear_cache() -> None:
    _CACHE.clear()
