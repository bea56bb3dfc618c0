"""FRaZ-style fixed-ratio control by iterative error-bound search.

FRaZ (Underwood et al., IPDPS'20 — the paper's reference [24]) achieves a
target ratio with *no* model at all: it repeatedly runs the real compressor,
searching the error bound until the measured ratio lands within a tolerance
of the target. Section 3.2 of the CAROL paper frames this as the bar a
learned framework must beat: "the framework should run no slower than its
underlying compressor" — FRaZ costs several full compressions per request,
which is untenable exactly for the slow high-ratio codecs where ratio
control matters most.

The search exploits the monotonicity of f(e): geometric bracketing followed
by bisection on log(error bound).

Measure, then encode: the search only ever reads the *ratio* of a probe
and keeps the bytes of one, so it probes through
:meth:`~repro.compressors.base.LossyCompressor.sizer`. For most codecs a
probe is still a full compression (and the best probe's result is kept,
so nothing is compressed twice); where the codec's size has a closed form
(szx) a probe costs one pass over per-block statistics and the search
runs the real compressor exactly once, at the error bound it settled on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.compressors.base import CompressionResult
from repro.compressors.registry import get_compressor
from repro.utils.validation import as_float_array


@dataclass
class FrazResult:
    """Outcome of one fixed-ratio search.

    ``history`` holds every probe's exact ``(eb, ratio)``;
    ``n_compressions`` counts the real compressor runs behind them (one
    per probe, or a single final encode when the codec's sizer is a
    closed form). ``reachable`` is False when a probe at a
    ``rel_eb_bracket`` end showed the target lies outside the codec's
    range there — ``result`` is then the nearest end, not an answer.
    """

    result: CompressionResult
    error_bound: float
    target_ratio: float
    n_compressions: int
    elapsed: float
    converged: bool
    history: list[tuple[float, float]] = field(default_factory=list)  # (eb, ratio)
    reachable: bool = True

    @property
    def achieved_ratio(self) -> float:
        return self.result.ratio

    @property
    def n_probes(self) -> int:
        return len(self.history)


class FrazSearch:
    """Model-free fixed-ratio compression via bounded bisection."""

    def __init__(
        self,
        compressor: str,
        tolerance: float = 0.05,
        max_iterations: int = 12,
        rel_eb_bracket: tuple[float, float] = (1e-6, 0.5),
    ) -> None:
        if tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        lo, hi = rel_eb_bracket
        if not 0 < lo < hi:
            raise ValueError("rel_eb_bracket must satisfy 0 < lo < hi")
        self.compressor_name = compressor
        self._codec = get_compressor(compressor)
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.rel_eb_bracket = (float(lo), float(hi))

    def compress_to_ratio(
        self, data: np.ndarray, target_ratio: float, *, initial_eb: float | None = None
    ) -> FrazResult:
        """Search the error bound whose ratio matches ``target_ratio``.

        ``initial_eb`` warm-starts the search: instead of bracketing the
        whole relative-eb range from both ends (the cold path, unchanged),
        the guess is measured first and the bracket grows geometrically
        *around it* in whichever direction the measured ratio missed. A
        guess from a surrogate curve or a model prediction is usually
        within a factor of a few of the answer, so the warm search spends
        1–3 probes where the cold bracket spends its full budget.
        """
        if target_ratio <= 0:
            raise ValueError("target_ratio must be positive")
        if initial_eb is not None and initial_eb <= 0:
            raise ValueError("initial_eb must be positive")
        arr = as_float_array(data)
        vrange = float(arr.max() - arr.min()) or 1.0
        lo = lo_end = np.log(self.rel_eb_bracket[0] * vrange)
        hi = hi_end = np.log(self.rel_eb_bracket[1] * vrange)

        start = time.perf_counter()
        size = self._codec.sizer(arr)
        history: list[tuple[float, float]] = []
        best: CompressionResult | None = None
        best_eb = float(np.exp(0.5 * (lo + hi)))
        best_gap = np.inf
        converged = False
        reachable = True
        n_compressions = 0

        def run(log_eb: float) -> float:
            nonlocal best, best_eb, best_gap, converged, reachable, n_compressions
            eb = float(np.exp(log_eb))
            ratio = arr.nbytes / size(eb)
            if size.result is not None:  # the probe ran the real compressor
                n_compressions += 1
            history.append((eb, ratio))
            gap = abs(ratio - target_ratio) / target_ratio
            if gap < best_gap:
                best, best_eb, best_gap = size.result, eb, gap
            if gap <= self.tolerance:
                converged = True
            elif (log_eb <= lo_end and ratio > target_ratio) or (
                log_eb >= hi_end and ratio < target_ratio
            ):
                # Measured at a bracket end and still outside the band:
                # no error bound in the bracket reaches this target.
                reachable = False
            return ratio

        if initial_eb is not None:
            self._warm_search(
                run, float(initial_eb), lo, hi, target_ratio, history,
                done=lambda: converged,
            )
        else:
            # Bracket ends first: a target outside the achievable range
            # ends the search there (``run`` marks it unreachable).
            run(lo)
            if reachable and not converged:
                run(hi)
            while reachable and not converged and len(history) < self.max_iterations:
                mid = 0.5 * (lo + hi)
                if run(mid) < target_ratio:
                    lo = mid
                else:
                    hi = mid

        if best is None:  # the best probe measured without encoding
            best = self._codec.compress(arr, best_eb)
            n_compressions += 1
        return FrazResult(
            result=best,
            error_bound=best_eb,
            target_ratio=float(target_ratio),
            n_compressions=n_compressions,
            elapsed=time.perf_counter() - start,
            converged=converged,
            history=history,
            reachable=reachable,
        )

    def _warm_search(
        self, run, initial_eb: float, lo_abs: float, hi_abs: float,
        target_ratio: float, history: list, done,
    ) -> None:
        """Bracket geometrically around ``initial_eb``, then bisect.

        The guess is measured first; the bracket then grows by a log step
        that *doubles with each probe* in whichever direction the ratio
        missed, clamped to the absolute ``rel_eb_bracket`` ends, and the
        usual bisection finishes inside it. Accelerating the step keeps
        the probe count logarithmic in how wrong the guess is: a
        guess off by three orders of magnitude brackets in ~3 probes
        where a constant step would burn the whole budget walking. Every
        probe goes through ``run`` (which tracks best/converged and
        marks a miss at a bracket end unreachable); ``done()`` reads the
        convergence flag.
        """
        grow = float(np.log(4.0))
        log0 = float(np.clip(np.log(initial_eb), lo_abs, hi_abs))
        r0 = run(log0)
        if done():
            return
        if r0 < target_ratio:
            # eb too small (ratio under target): expand upward.
            lo, hi, probe = log0, None, log0
            while hi is None and len(history) < self.max_iterations:
                if probe >= hi_abs:
                    return  # target beyond the achievable range; best is the end
                probe = min(probe + grow, hi_abs)
                grow *= 2.0
                if run(probe) >= target_ratio:
                    hi = probe
                else:
                    lo = probe
                if done():
                    return
        else:
            # eb too large (ratio over target): expand downward.
            lo, hi, probe = None, log0, log0
            while lo is None and len(history) < self.max_iterations:
                if probe <= lo_abs:
                    return
                probe = max(probe - grow, lo_abs)
                grow *= 2.0
                if run(probe) < target_ratio:
                    lo = probe
                else:
                    hi = probe
                if done():
                    return
        if lo is None or hi is None:
            return
        while not done() and len(history) < self.max_iterations:
            mid = 0.5 * (lo + hi)
            if run(mid) < target_ratio:
                lo = mid
            else:
                hi = mid
