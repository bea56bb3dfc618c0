"""Cross-check vectorized feature/predictor code against naive loops.

The vectorized implementations are the ones that could silently drift from
the paper's Eqs. (5)-(8); these tests recompute them with straightforward
Python loops on tiny arrays and demand near-exact agreement.
"""

import itertools

import numpy as np
import pytest

from repro.features.definitions import (
    mean_lorenzo_difference,
    mean_neighbor_difference,
    mean_spline_difference,
)
from repro.features.parallel import _interior_smoothness
from repro.transforms.lorenzo import lorenzo_predict
from repro.transforms.spline import spline_predict_axis


@pytest.fixture()
def tiny(rng):
    return rng.standard_normal((5, 6, 7))


def test_mnd_matches_naive_loops(tiny):
    d = tiny
    total = 0.0
    count = 0
    ni, nj, nk = d.shape
    for i in range(ni):
        for j in range(nj):
            for k in range(nk):
                neigh = []
                for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    a, b, c = i + di, j + dj, k + dk
                    if 0 <= a < ni and 0 <= b < nj and 0 <= c < nk:
                        neigh.append(d[a, b, c])
                total += abs(d[i, j, k] - sum(neigh) / len(neigh))
                count += 1
    assert mean_neighbor_difference(d) == pytest.approx(total / count, rel=1e-12)


def test_lorenzo_matches_naive_loops(tiny):
    d = tiny
    ni, nj, nk = d.shape
    pred = lorenzo_predict(d)

    def val(i, j, k):
        return d[i, j, k] if (i >= 0 and j >= 0 and k >= 0) else 0.0

    for i in range(ni):
        for j in range(nj):
            for k in range(nk):
                expected = (
                    val(i - 1, j, k) + val(i, j - 1, k) + val(i, j, k - 1)
                    + val(i - 1, j - 1, k - 1)
                    - val(i - 1, j - 1, k) - val(i - 1, j, k - 1)
                    - val(i, j - 1, k - 1)
                )
                assert pred[i, j, k] == pytest.approx(expected, abs=1e-12)


def test_mld_matches_naive_interior_mean(tiny):
    d = tiny
    pred = lorenzo_predict(d)
    res = np.abs(d - pred)[1:, 1:, 1:]
    assert mean_lorenzo_difference(d) == pytest.approx(res.mean(), rel=1e-12)


def test_spline_matches_naive_loops(rng):
    d = rng.standard_normal(20)
    pred = spline_predict_axis(d, 0)
    n = d.size
    for i in range(n):
        if 3 <= i < n - 3:
            expected = (-d[i - 3] + 9 * d[i - 1] + 9 * d[i + 1] - d[i + 3]) / 16.0
        elif 1 <= i < n - 1:
            expected = 0.5 * (d[i - 1] + d[i + 1])
        elif i == 0:
            expected = d[1]
        else:
            expected = d[n - 2]
        assert pred[i] == pytest.approx(expected, abs=1e-12), i


def test_msd_matches_naive_sum(tiny):
    d = tiny
    acc = np.zeros_like(d)
    for axis in range(3):
        acc += np.abs(d - spline_predict_axis(d, axis))
    assert mean_spline_difference(d) == pytest.approx(acc.mean(), rel=1e-12)


def _naive_interior_smoothness(stack):
    """MND, MLD and MSD averaged over the interior points of every block of
    ``stack`` (axis 0 indexes blocks), one point and one stencil tap at a time."""
    _, *dims = stack.shape
    d = len(dims)
    units = [tuple(int(k == a) for k in range(d)) for a in range(d)]

    def tap(blk, p, direction, k):
        return blk[tuple(pi + k * oi for pi, oi in zip(p, direction))]

    mnd = mld = msd = 0.0
    count = 0
    for blk in stack:
        for p in itertools.product(*(range(1, n - 1) for n in dims)):
            x = blk[p]
            neigh = sum(tap(blk, p, u, k) for u in units for k in (-1, 1))
            mnd += abs(x - neigh / (2 * d))
            lorenzo = sum(
                (-1) ** (sum(o) + 1) * tap(blk, p, o, -1)
                for o in itertools.product((0, 1), repeat=d)
                if any(o)
            )
            mld += abs(x - lorenzo)
            for a, u in enumerate(units):
                near = tap(blk, p, u, -1) + tap(blk, p, u, 1)
                if 3 <= p[a] <= dims[a] - 4:
                    spline = (9 * near - tap(blk, p, u, -3) - tap(blk, p, u, 3)) / 16
                else:
                    spline = near / 2
                msd += abs(x - spline)
            count += 1
    return mnd / count, mld / count, msd / count


@pytest.mark.parametrize("shape", [(2, 7, 8, 9), (3, 6, 11), (4, 10)], ids=str)
def test_parallel_kernel_excludes_the_surface(shape, rng):
    """CAROL's extractor averages MND / MLD / MSD over block interiors only
    (surface exclusion), with the cubic spline where both ±3 taps lie inside
    the block and the linear one elsewhere."""
    stack = rng.standard_normal(shape)
    got = _interior_smoothness(stack)
    assert got == pytest.approx(_naive_interior_smoothness(stack), rel=1e-12)


class TestWaveletAnalytic:
    def test_lowpass_dc_gain_is_sqrt2(self):
        """Constant signal -> lowpass = sqrt(2)*c (the near-orthonormal
        scaling), highpass = 0."""
        from repro.transforms.wavelet import cdf97_forward

        c = 3.0
        x = np.full(64, c)
        coefs = cdf97_forward(x, 1)
        np.testing.assert_allclose(coefs[:32], np.sqrt(2) * c, rtol=1e-9)
        np.testing.assert_allclose(coefs[32:], 0.0, atol=1e-9)

    def test_parseval_within_biorthogonal_band(self, rng):
        x = rng.standard_normal(256)
        from repro.transforms.wavelet import cdf97_forward

        coefs = cdf97_forward(x, 4)
        ratio = (coefs**2).sum() / (x**2).sum()
        assert 0.7 < ratio < 1.5
