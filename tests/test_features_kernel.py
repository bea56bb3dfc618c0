"""The flat interior-only feature kernel against the whole-stack one it
replaced (``tests/features_oracle.py``): all five features bit for bit on
every stack whose blocks have an interior, across ndim, block edge, block
count, input dtype and the floating-point edge cases; the thin-block path
against ``repro.features.definitions`` applied block by block.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest

from repro.features.definitions import (
    mean_lorenzo_difference,
    mean_neighbor_difference,
    mean_spline_difference,
)
from repro.features.parallel import (
    BLOCK_EDGE,
    BLOCK_STRIDE,
    _parallel_features,
    _thin_smoothness,
    extract_features_parallel,
    extract_features_parallel_many,
    sample_blocks,
)
from tests.features_oracle import reference_parallel_features

EDGES = (3, 4, 5, 6, 7, 8, 16, 32)
BLOCK_COUNTS = (1, 2, 8, 27)
DTYPES = (np.float32, np.float64, np.int64)
KINDS = ("random", "constant", "denormal", "huge", "nonfinite")
MAX_ELEMENTS = 1 << 18  # keeps the whole matrix to a few seconds

# Fields smaller than an edge (one clipped block) and shapes that are not a
# multiple of the edge, at the shipped edge and stride.
SHAPES = (
    (7,),
    (33,),
    (100,),
    (1000,),
    (5, 9),
    (31, 33),
    (100, 70),
    (129, 65),
    (40, 20, 50),
    (65, 97, 40),
    (50, 100, 130),
    (3, 40, 40),
    (12, 12, 12, 12),
    (40, 35, 33, 34),
)


def _per_axis_counts(k: int, d: int) -> list[int]:
    """Blocks per axis whose product is ``k``: prime factors dealt round-robin."""
    counts = [1] * d
    factor, i = 2, 0
    while k > 1:
        while k % factor == 0:
            counts[i % d] *= factor
            k //= factor
            i += 1
        factor += 1
    return counts


def _field(shape, dtype, kind: str, rng) -> np.ndarray:
    if kind == "constant":
        return np.full(shape, 5, dtype=dtype)
    if dtype == np.int64:
        hi = {"random": 1000, "denormal": 2, "huge": 1 << 62, "nonfinite": 1 << 62}[kind]
        return rng.integers(-hi, hi, size=shape, dtype=np.int64)
    x = rng.standard_normal(shape)
    if kind == "random":
        x *= 10.0
        flat = x.reshape(-1)
        flat[rng.integers(0, flat.size, size=max(flat.size // 16, 1))] = -0.0
        flat[rng.integers(0, flat.size, size=max(flat.size // 16, 1))] = 0.0
    elif kind == "denormal":
        x *= 1e-310 if dtype == np.float64 else 1e-40
    elif kind == "huge":
        x = np.sign(x) * (1e300 if dtype == np.float64 else 2e38) * (1.0 + np.abs(x) % 0.7)
    elif kind == "nonfinite":
        flat = x.reshape(-1)
        for value in (np.inf, -np.inf, np.nan, -np.nan):
            flat[rng.integers(0, flat.size, size=max(flat.size // 64, 1))] = value
    with np.errstate(all="ignore"):
        return x.astype(dtype)


def _assert_bitwise(arr, edge, stride, kind="random"):
    # Sums of ±1e300 overflow and inf − inf is invalid, in the oracle as much
    # as in the kernel; every other input must compute without a warning.
    noisy = kind == "nonfinite" or (kind == "huge" and arr.dtype == np.float64)
    with np.errstate(all="ignore") if noisy else contextlib.nullcontext():
        got = _parallel_features(arr, edge, stride)
        want = reference_parallel_features(arr, edge, stride)
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(
        got.view(np.int64),
        want.view(np.int64),
        err_msg=f"shape {arr.shape} {arr.dtype} edge {edge}: {got} vs {want}",
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ndim", (1, 2, 3, 4))
def test_kernel_matches_oracle_bitwise(ndim, kind):
    rng = np.random.default_rng(ndim * 100 + KINDS.index(kind))
    cases = 0
    for edge, k in itertools.product(EDGES, BLOCK_COUNTS):
        if edge**ndim * k > MAX_ELEMENTS:
            continue
        shape = tuple(c * edge for c in _per_axis_counts(k, ndim))
        for dtype in DTYPES:
            arr = _field(shape, dtype, kind, rng)
            assert sample_blocks(arr, edge, 1).shape[0] == k
            _assert_bitwise(arr, edge, 1, kind)
            cases += 1
    assert cases >= 3 * 20


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_clipped_and_uneven_shapes_match_oracle(shape, kind):
    rng = np.random.default_rng(len(shape) * 7 + KINDS.index(kind))
    for dtype in DTYPES:
        _assert_bitwise(_field(shape, dtype, kind, rng), BLOCK_EDGE, BLOCK_STRIDE, kind)


def test_strided_sampling_matches_oracle(rng):
    """Block strides other than 1 and 4, and stacks wider than one block per axis."""
    for shape, edge, stride in (((64, 48), 5, 2), ((70, 30, 44), 6, 3), ((200,), 7, 5)):
        _assert_bitwise(rng.standard_normal(shape), edge, stride)


def test_finite_float32_input_raises_no_floating_point_error(rng):
    """The kernel also evaluates positions it discards (their taps reach into
    neighbouring rows and blocks); on finite float32 data, even at the
    dtype's extremes, none of them may overflow or go invalid."""
    top = np.finfo(np.float32).max
    for shape in ((96, 96, 96), (40, 40), (300,), (2, 64, 64)):
        x = (np.sign(rng.standard_normal(shape)) * top).astype(np.float32)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            feats, _ = extract_features_parallel(x)
        assert np.isfinite(feats).all()


def test_many_rows_equal_single_calls(rng):
    arrays = [
        rng.standard_normal((64, 64, 64)).astype(np.float32),
        rng.standard_normal((40, 50)),
        np.full((2, 40, 40), 5.0),
        rng.integers(-9, 9, size=(130, 33, 20)),
        rng.standard_normal((77,)),
        rng.standard_normal((64, 64, 64)).astype(np.float32),
    ]
    rows, _ = extract_features_parallel_many(arrays)
    assert rows.shape == (len(arrays), 5)
    for row, arr in zip(rows, arrays):
        single, _ = extract_features_parallel(arr)
        np.testing.assert_array_equal(row.view(np.int64), single.view(np.int64))


@pytest.mark.parametrize(
    "shape",
    [(2,), (2, 2), (2, 300), (300, 2), (2, 200, 300), (200, 2, 130), (2, 40, 70, 140)],
    ids=str,
)
def test_thin_blocks_are_definitions_per_block(shape, rng):
    """Blocks with edge 2 have no interior: MND / MLD / MSD are the mean over
    blocks of ``features.definitions``' values on each block."""
    blocks = sample_blocks(rng.standard_normal(shape))
    assert blocks.shape[1] == 2
    want = np.mean(
        [
            [mean_neighbor_difference(b), mean_lorenzo_difference(b), mean_spline_difference(b)]
            for b in blocks
        ],
        axis=0,
    )
    np.testing.assert_allclose(_thin_smoothness(blocks), want, rtol=1e-12)
