"""FRaZ iterative search, quality metrics, ZFP fixed-rate mode."""

import numpy as np
import pytest

from repro.compressors.base import LossyCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.core.fraz import FrazSearch
from repro.core.quality import max_abs_error, nrmse, psnr, rmse
from repro.data import load_field

SHAPE = (16, 24, 24)


class TestQualityMetrics:
    def test_identical_arrays(self, smooth2d):
        assert rmse(smooth2d, smooth2d) == 0.0
        assert nrmse(smooth2d, smooth2d) == 0.0
        assert psnr(smooth2d, smooth2d) == float("inf")
        assert max_abs_error(smooth2d, smooth2d) == 0.0

    def test_known_values(self):
        a = np.array([0.0, 1.0])
        b = np.array([0.0, 0.5])
        assert rmse(a, b) == pytest.approx(np.sqrt(0.125))
        assert nrmse(a, b) == pytest.approx(np.sqrt(0.125))
        assert max_abs_error(a, b) == pytest.approx(0.5)

    def test_psnr_decreases_with_noise(self, rng, smooth2d):
        small = smooth2d + 1e-4 * rng.standard_normal(smooth2d.shape)
        big = smooth2d + 1e-2 * rng.standard_normal(smooth2d.shape)
        assert psnr(smooth2d, small) > psnr(smooth2d, big)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))

    def test_constant_original(self):
        c = np.full(10, 2.0)
        assert nrmse(c, c) == 0.0
        assert nrmse(c, c + 1.0) == float("inf")


class TestFrazSearch:
    @pytest.fixture(scope="class")
    def field(self):
        return load_field("miranda/viscosity", shape=SHAPE)

    def test_converges_to_achievable_target(self, field):
        fraz = FrazSearch("szx", tolerance=0.1, max_iterations=14)
        out = fraz.compress_to_ratio(field.data, 8.0)
        assert out.converged
        assert abs(out.achieved_ratio - 8.0) / 8.0 <= 0.1
        assert out.n_probes >= 3 and out.reachable

    def test_costs_multiple_compressions(self, field):
        """Section 3.2: trial-and-error pays several full compressions —
        on a codec whose size only the compressor itself can tell."""
        fraz = FrazSearch("sz3", tolerance=0.02, max_iterations=14)
        out = fraz.compress_to_ratio(field.data, 10.0)
        assert out.n_compressions >= 4
        assert len(out.history) == out.n_compressions

    def test_closed_form_codec_compresses_once(self, field):
        """szx probes read the size without encoding: the same search
        budget, one real compression — at the error bound it settled on."""
        fraz = FrazSearch("szx", tolerance=0.02, max_iterations=14)
        out = fraz.compress_to_ratio(field.data, 10.0)
        assert out.n_probes >= 4 and out.n_compressions == 1
        assert out.result.error_bound == out.error_bound
        assert (out.error_bound, out.achieved_ratio) in out.history

    def test_target_below_achievable_clamps(self, field):
        fraz = FrazSearch("szx", max_iterations=6)
        out = fraz.compress_to_ratio(field.data, 0.5)  # < ratio at tiny eb
        # settles at the smallest achievable ratio (lo bracket end) —
        # and says so instead of passing the end off as an answer
        assert out.achieved_ratio >= 1.0
        assert out.n_probes <= 2
        assert not out.reachable and not out.converged

    def test_target_above_achievable_clamps(self, field):
        fraz = FrazSearch("szx", max_iterations=6)
        out = fraz.compress_to_ratio(field.data, 1e7)
        assert out.n_probes <= 3  # both ends checked, hi wins
        assert not out.reachable and not out.converged

    @pytest.mark.parametrize("target", [0.5, 1e7])
    def test_warm_search_reports_unreachable_too(self, field, target):
        fraz = FrazSearch("szx", max_iterations=12)
        vrange = float(np.ptp(field.data))
        out = fraz.compress_to_ratio(field.data, target, initial_eb=1e-2 * vrange)
        assert not out.reachable and not out.converged
        end = fraz.rel_eb_bracket[0 if target < 1 else 1] * vrange
        assert out.error_bound == pytest.approx(end)

    def test_budget_exhausted_is_not_unreachable(self, field):
        """Running out of probes inside the bracket is a different
        outcome from a target no error bound in the bracket can reach."""
        fraz = FrazSearch("szx", tolerance=1e-6, max_iterations=4)
        out = fraz.compress_to_ratio(field.data, 8.0)
        assert not out.converged and out.reachable

    def test_monotone_history(self, field):
        """Bisection keeps the bracket: ratios at lo/hi straddle target."""
        fraz = FrazSearch("sperr", tolerance=0.05, max_iterations=10)
        out = fraz.compress_to_ratio(field.data, 12.0)
        ebs = np.array([eb for eb, _ in out.history])
        ratios = np.array([r for _, r in out.history])
        order = np.argsort(ebs)
        assert (np.diff(ratios[order]) >= -1e-9 * ratios[order][:-1]).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            FrazSearch("szx", tolerance=0.0)
        with pytest.raises(ValueError):
            FrazSearch("szx", max_iterations=0)
        with pytest.raises(ValueError):
            FrazSearch("szx", rel_eb_bracket=(0.5, 0.1))
        with pytest.raises(ValueError):
            FrazSearch("szx").compress_to_ratio(np.ones(10), -1.0)
        with pytest.raises(ValueError):
            FrazSearch("szx").compress_to_ratio(np.ones(10), 8.0, initial_eb=0.0)
        with pytest.raises(ValueError):
            FrazSearch("szx").compress_to_ratio(np.ones(10), 8.0, initial_eb=-1e-3)

    def test_warm_start_beats_cold(self, field):
        """The control plane's T2 economics: seeding the search with a
        good guess must cost strictly fewer compressions than the cold
        bracket (this is what makes per-chunk escalation affordable)."""
        fraz = FrazSearch("szx", tolerance=0.05, max_iterations=14)
        cold = fraz.compress_to_ratio(field.data, 8.0)
        warm = fraz.compress_to_ratio(
            field.data, 8.0, initial_eb=cold.error_bound
        )
        assert warm.converged
        assert warm.n_probes < cold.n_probes

    def test_warm_start_far_guess_still_converges(self, field):
        """The accelerating bracket: a guess off by orders of magnitude
        doubles its log step each probe instead of crawling."""
        fraz = FrazSearch("szx", tolerance=0.1, max_iterations=12)
        anchor = fraz.compress_to_ratio(field.data, 8.0)
        for factor in (1e3, 1e-3):
            out = fraz.compress_to_ratio(
                field.data, 8.0, initial_eb=anchor.error_bound * factor
            )
            assert out.converged, factor
            assert abs(out.achieved_ratio - 8.0) / 8.0 <= 0.1


class TestSearchProbesThroughSizer:
    """One search loop for every codec: driving it with the default
    (real-compress) sizer is the oracle for what it does with a
    closed-form one, and for the compressions it spent before the split."""

    CODECS = ("szx", "zfp", "sz3", "sperr", "cuszp")

    @pytest.fixture(scope="class")
    def data(self):
        return load_field("miranda/viscosity", shape=(10, 12, 14)).data

    @pytest.mark.parametrize("codec", CODECS)
    def test_matches_real_compress_oracle(self, data, codec, monkeypatch):
        vrange = float(np.ptp(data))
        runs = [
            (target, initial)
            for target in (0.5, 4.0, 9.0, 1e7)
            for initial in (None, 1e-9 * vrange, 1e-3 * vrange, 10.0 * vrange)
        ]
        search = FrazSearch(codec, tolerance=0.03, max_iterations=7)
        got = [search.compress_to_ratio(data, t, initial_eb=i) for t, i in runs]
        monkeypatch.setattr(type(search._codec), "sizer", LossyCompressor.sizer)
        want = [search.compress_to_ratio(data, t, initial_eb=i) for t, i in runs]
        for run, a, b in zip(runs, got, want):
            assert a.history == b.history, run
            assert a.error_bound == b.error_bound, run
            assert a.result.payload == b.result.payload, run
            assert a.result.metadata == b.result.metadata, run
            assert (a.converged, a.reachable) == (b.converged, b.reachable), run
            # the oracle is today's cost: one compression per probe
            assert b.n_compressions == b.n_probes == a.n_probes
            assert a.n_compressions == (1 if codec == "szx" else a.n_probes)


class TestZfpFixedRate:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(7)
        return np.cumsum(np.cumsum(rng.standard_normal((36, 40)), 0), 1) / 10

    def test_size_tracks_rate(self, data):
        z = ZFPCompressor()
        sizes = [z.compress_fixed_rate(data, r).compressed_bytes for r in (2, 4, 8)]
        assert sizes[0] < sizes[1] < sizes[2]
        # within ~60% of the nominal budget (headers + any-bits overhead)
        nominal = data.size * 4 / 8
        assert sizes[1] <= nominal * 1.6

    def test_round_trip_and_error_decreases_with_rate(self, data):
        z = ZFPCompressor()
        errs = []
        for rate in (2, 8, 20):
            res = z.compress_fixed_rate(data, rate)
            out = z.decompress(res)
            assert out.shape == data.shape
            errs.append(np.abs(out - data).max())
        assert errs[0] > errs[1] > errs[2]

    def test_no_error_guarantee_at_low_rate(self, data):
        """The paper's point: fixed rate gives size, not quality."""
        z = ZFPCompressor()
        res = z.compress_fixed_rate(data, 1.0)
        out = z.decompress(res)
        # at 1 bit/value the reconstruction is visibly degraded
        assert np.abs(out - data).max() > 1e-3 * np.abs(data).max()

    def test_fixed_accuracy_beats_fixed_rate_quality(self, data):
        """At matched compressed size, error-bounded mode reconstructs
        better — Section 2.2's motivating claim."""
        from repro.core.quality import psnr

        z = ZFPCompressor()
        fr = z.compress_fixed_rate(data, 6.0)
        # Find the error bound whose size matches the fixed-rate stream.
        target_size = fr.compressed_bytes
        ebs = np.geomspace(1e-7, 1.0, 28) * (data.max() - data.min())
        best = None
        for eb in ebs:
            res = z.compress(data, eb)
            if best is None or abs(res.compressed_bytes - target_size) < abs(
                best.compressed_bytes - target_size
            ):
                best = res
        q_rate = psnr(data, z.decompress(fr))
        q_acc = psnr(data, z.decompress(best))
        assert q_acc >= q_rate - 1.0  # never meaningfully worse

    def test_invalid_rate(self, data):
        with pytest.raises(ValueError):
            ZFPCompressor().compress_fixed_rate(data, 0.0)
