"""Streaming store writer with a closed-loop byte budget and wave parallelism.

:class:`StoreWriter` turns "this field must fit N bytes" into a chunked
``.rps`` container: it walks a deterministic :class:`~repro.store.chunking.ChunkGrid`
over the input, predicts each chunk's error bound through a fitted
framework (or a :class:`repro.serve.PredictionService`, inheriting its
feature cache), compresses, and appends the payload — the input is only
ever touched one *wave* at a time, so fields loaded via ``np.memmap``
stream through without materializing.

The byte budget is *closed-loop*: after each wave lands, the remaining
budget is redistributed over the remaining raw bytes, so a chunk that
came in over target raises the ratio asked of later chunks (and vice
versa) instead of letting the error accumulate. Open-loop mode
(``closed_loop=False``) asks every chunk for the global target — the
per-chunk-prediction baseline the closed loop is measured against.

**Wave parallelism.** The pack loop is organized into deterministic
waves of ``wave_size`` chunks (flat chunk-id order). All chunks in a
wave share one re-target computed from the budget state at the wave
boundary; their features are extracted in the caller's process, their
compression fans out across a :class:`repro.serve.WorkerPool`
(``workers > 0``), and the payloads are committed to the file strictly
in chunk-id order. Because the re-target sequence depends only on
``wave_size`` — never on ``workers`` — the output file is
**byte-identical for every worker count**, including the in-process
``workers=0`` path. ``wave_size=1`` degenerates to the original serial
chunk-at-a-time loop bit-for-bit.

Every ``(features, error bound, achieved ratio, target)`` outcome can be
fed to a :class:`repro.core.feedback.FeedbackLoop` (``feedback=``): a
pack run is a batch of free ground-truth observations, so packing
improves the very model that budgets the next pack.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from repro.compressors.registry import get_compressor
from repro.control.controller import Controller
from repro.control.policy import ControlOptions, ControlStats, Tier
from repro.core.framework import Prediction
from repro.obs import timed_span
from repro.serve.pool import PoolStats, WorkerPool
from repro.store.chunking import DEFAULT_CHUNK_ELEMENTS, ChunkGrid
from repro.store.format import chunk_checksum, json_safe, write_header, write_manifest
from repro.utils.validation import as_float_array

#: Wave width used when ``wave_size`` is unset and ``workers > 0``. A
#: constant (never derived from the worker count) so every worker count
#: re-targets at the same chunk boundaries and produces the same bytes.
DEFAULT_WAVE_SIZE = 8


@dataclass(frozen=True, kw_only=True)
class StoreOptions:
    """Frozen, hashable packing configuration.

    ``chunk_shape=None`` derives a grid of roughly ``chunk_elements``
    values per chunk. ``min_chunk_ratio``/``max_chunk_ratio`` clamp the
    per-chunk targets the closed loop may request, keeping one badly
    mispredicted chunk from driving the next target somewhere the model
    was never trained.

    ``workers`` fans each wave's compression out over a process pool (0
    keeps everything in-process); features are always extracted in the
    caller's process. ``timeout_seconds`` (> 0) is the per-task limit on
    the pool before a task re-runs in-process. ``wave_size``
    sets how many chunks share one closed-loop re-target; ``None`` means
    1 without workers (the classic serial loop) and
    :data:`DEFAULT_WAVE_SIZE` with them. The packed bytes depend on
    ``wave_size``; for an explicit ``wave_size`` they do **not** depend
    on ``workers``. With ``wave_size=None`` the width is *picked from*
    ``workers`` (1 or :data:`DEFAULT_WAVE_SIZE`), so ``workers=0`` and
    ``workers=2`` can pack different bytes — ``PackReport.wave_size``
    records which width was used.

    ``control`` attaches the tier-escalation plane of
    :mod:`repro.control`: low-confidence chunks (or a drifting budget)
    escalate to a warm FRaZ search, and a consistently-confident model
    may relax whole waves to the surrogate heuristic. All control
    decisions are made at wave boundaries from committed state, and T2
    refinement runs in-process, so a controlled pack stays byte-identical
    for every worker count — ``control`` changes the bytes (vs ``None``),
    ``workers`` at a given wave width does not.
    """

    chunk_shape: tuple[int, ...] | None = None
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
    closed_loop: bool = True
    safety: float = 0.0
    min_chunk_ratio: float = 1.01
    max_chunk_ratio: float = 1e4
    workers: int = 0
    wave_size: int | None = None
    timeout_seconds: float = 120.0
    control: ControlOptions | None = None

    def __post_init__(self) -> None:
        if self.chunk_shape is not None:
            object.__setattr__(self, "chunk_shape", tuple(int(c) for c in self.chunk_shape))
        if self.chunk_elements < 1:
            raise ValueError("chunk_elements must be >= 1")
        if not 1.0 <= self.min_chunk_ratio <= self.max_chunk_ratio:
            raise ValueError("need 1 <= min_chunk_ratio <= max_chunk_ratio")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.wave_size is not None and self.wave_size < 1:
            raise ValueError("wave_size must be >= 1")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be > 0")

    @property
    def resolved_wave_size(self) -> int:
        """The wave width actually used (resolves the ``None`` default)."""
        if self.wave_size is not None:
            return int(self.wave_size)
        return DEFAULT_WAVE_SIZE if self.workers > 0 else 1

    def grid_for(self, shape: tuple[int, ...]) -> ChunkGrid:
        return ChunkGrid.for_shape(shape, self.chunk_shape, self.chunk_elements)


@dataclass
class ChunkWriteRecord:
    """One packed chunk's outcome (mirrors its manifest entry)."""

    coords: tuple[int, ...]
    target_ratio: float
    error_bound: float
    achieved_ratio: float
    raw_bytes: int
    stored_bytes: int


@dataclass
class PackReport:
    """Whole-pack accounting returned by :meth:`StoreWriter.write`."""

    path: Path
    target_ratio: float
    closed_loop: bool
    original_bytes: int
    stored_bytes: int
    file_bytes: int
    chunks: list[ChunkWriteRecord] = dc_field(default_factory=list)
    wave_size: int = 1
    workers: int = 0
    pool_stats: PoolStats | None = None  # None without workers
    control: ControlStats | None = None

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    @property
    def n_waves(self) -> int:
        return -(-self.n_chunks // self.wave_size) if self.n_chunks else 0

    @property
    def achieved_ratio(self) -> float:
        """Original over stored bytes (chunk payloads + per-chunk headers;
        the manifest is fixed bookkeeping, not compression)."""
        return self.original_bytes / self.stored_bytes if self.stored_bytes else 0.0

    @property
    def budget_drift(self) -> float:
        """Relative deviation of the achieved ratio from the target."""
        return abs(self.achieved_ratio - self.target_ratio) / self.target_ratio

    def summary(self) -> str:
        text = (
            f"{self.path.name}: {self.n_chunks} chunks, "
            f"{self.original_bytes} -> {self.stored_bytes} bytes, "
            f"ratio {self.achieved_ratio:.2f} (target {self.target_ratio:.2f}, "
            f"drift {100.0 * self.budget_drift:.1f}%, "
            f"{'closed' if self.closed_loop else 'open'}-loop, "
            f"{self.n_waves} waves x {self.wave_size}, {self.workers} workers)"
        )
        if self.control is not None:
            c = self.control
            text += (
                f" [control: t0={c.t0} t1={c.t1} t2={c.t2}, "
                f"{c.probes_spent} refine probes, "
                f"{c.compressions_spent} refine compressions, "
                f"{c.unreachable} unreachable]"
            )
        return text


def _as_source_array(source) -> np.ndarray:
    """A chunk-sliceable array view of the input, without copying it whole.

    Accepts a :class:`repro.data.fields.Field`, an ndarray (including
    ``np.memmap``), or anything array-like. Memmaps pass through untouched
    so slicing reads only the pages a chunk needs.
    """
    if hasattr(source, "data") and isinstance(source.data, np.ndarray):
        source = source.data  # a Field
    if isinstance(source, np.ndarray):
        if not np.issubdtype(source.dtype, np.floating):
            return as_float_array(source)
        return source
    return as_float_array(source)


def open_raw(path, shape: tuple[int, ...], dtype=np.float32) -> np.memmap:
    """Memory-map a headerless SDRBench-style raw file for packing.

    The returned memmap streams through :meth:`StoreWriter.write` one
    wave at a time — fields larger than RAM never fully materialize.
    """
    path = Path(path)
    dtype = np.dtype(dtype)
    expected = int(np.prod(shape)) * dtype.itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise ValueError(
            f"{path.name}: file has {actual} bytes but shape {tuple(shape)} with "
            f"dtype {dtype} needs {expected}"
        )
    return np.memmap(path, dtype=dtype, mode="r", shape=tuple(shape))


def _compress_task(codec_name: str, data: np.ndarray, error_bound: float):
    """Worker-side chunk compression (module-level for pickling).

    Deterministic: the payload depends only on ``(data, error_bound)``,
    so in-process and worker execution produce identical bytes.
    """
    return get_compressor(codec_name).compress(data, error_bound)


class StoreWriter:
    """Packs one field into one ``.rps`` container.

    ``predictor`` is either a fitted
    :class:`~repro.core.framework.RatioControlledFramework` or a
    :class:`repro.serve.PredictionService` wrapping one — the service
    route reuses its sample-addressed feature cache, so re-packing an
    already-served field skips feature extraction per chunk.
    """

    def __init__(self, path, predictor, *, options: StoreOptions | None = None) -> None:
        self.path = Path(path)
        self.options = options or StoreOptions()
        if hasattr(predictor, "predict_error_bound"):
            self._framework = predictor
            self._service = None
        elif hasattr(predictor, "predict") and hasattr(predictor, "framework"):
            self._framework = predictor.framework
            self._service = predictor
        else:
            raise TypeError(
                "predictor must be a fitted framework or a PredictionService, "
                f"got {type(predictor).__name__}"
            )
        if self._framework.model.forest is None:
            raise ValueError("predictor's framework is not fitted")

    # -- prediction --------------------------------------------------------------

    def _predict_wave(self, arrays: list[np.ndarray], target: float) -> list[Prediction]:
        """Error-bound predictions for one wave, in chunk order.

        Single-chunk waves follow the same batched code path — the
        batched entry points are bitwise-identical to their scalar
        counterparts, so ``wave_size=1`` reproduces the serial pack.
        """
        opts = self.options
        if self._service is not None:
            # The service batches and caches; results are bitwise-identical
            # to service.predict.
            return list(
                self._service.predict_batch(
                    [(arr, target) for arr in arrays], safety=opts.safety
                )
            )
        framework = self._framework
        F = framework.extract_features_many(arrays)
        ratios = np.full(len(arrays), float(target))
        ebs = framework.model.predict_error_bound_batch(F, ratios, safety=opts.safety)
        return [
            Prediction(float(eb), float(target), F[i], 0.0, 0.0)
            for i, eb in enumerate(ebs)
        ]

    # -- packing -----------------------------------------------------------------

    def _wave_target(
        self, target_ratio: float, budget: float, spent: int, raw_remaining: int
    ) -> float:
        """The shared target for the next wave, from the budget state.

        Hardened against budget exhaustion mid-pack: the remaining budget
        is floored at one byte (never zero, so the division is safe) and
        the result is clamped into ``[min_chunk_ratio, max_chunk_ratio]``
        — an impossibly tight budget asks for the ceiling ratio instead
        of a nonsensical (or < 1) target.
        """
        opts = self.options
        if not opts.closed_loop:
            return target_ratio
        remaining_budget = max(budget - spent, 1.0)
        if raw_remaining <= 0:
            return opts.max_chunk_ratio
        target = raw_remaining / remaining_budget
        return min(max(target, opts.min_chunk_ratio), opts.max_chunk_ratio)

    @staticmethod
    def _pressure(target_ratio: float, spent: int, committed_raw: int) -> float:
        """Observed budget drift over the *committed* chunks: the relative
        deviation of their overall achieved ratio from the pack target.

        Computed only from bytes already landed in the file (wave-boundary
        state), so it is identical for every worker count. 0.0 before the
        first commit — no evidence of drift yet.
        """
        if spent <= 0 or committed_raw <= 0:
            return 0.0
        achieved = committed_raw / spent
        return abs(achieved - target_ratio) / target_ratio

    def write(self, source, target_ratio: float, *, feedback=None) -> PackReport:
        """Pack ``source`` to ``target_ratio``; returns a :class:`PackReport`.

        ``feedback``, if given, is a :class:`repro.core.feedback.FeedbackLoop`
        (or anything with its ``record`` signature): every chunk's measured
        outcome is recorded as a training observation, in chunk-id order.
        """
        target_ratio = float(target_ratio)
        if target_ratio <= 1.0:
            raise ValueError(f"target_ratio must be > 1, got {target_ratio}")
        arr = _as_source_array(source)
        opts = self.options
        grid = opts.grid_for(arr.shape)
        codec = self._framework._codec
        wave_size = opts.resolved_wave_size
        controller = None
        if opts.control is not None:
            controller = Controller(
                self._service if self._service is not None else self._framework,
                options=opts.control,
                feedback=feedback,
            )

        original_bytes = int(arr.nbytes)
        budget = original_bytes / target_ratio
        raw_remaining = original_bytes
        spent = 0
        entries: list[dict] = []
        records: list[ChunkWriteRecord] = []
        chunks = list(grid)

        pool = None
        if opts.workers > 0:
            pool = WorkerPool(opts.workers, timeout=opts.timeout_seconds)

        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with timed_span(
                "store.pack",
                path=str(self.path),
                n_chunks=grid.n_chunks,
                target_ratio=target_ratio,
                closed_loop=opts.closed_loop,
                workers=opts.workers,
                wave_size=wave_size,
            ):
                with open(self.path, "wb") as fh:
                    offset = write_header(fh)
                    for wave_index, start in enumerate(range(0, len(chunks), wave_size)):
                        wave = chunks[start : start + wave_size]
                        wave_target = self._wave_target(
                            target_ratio, budget, spent, raw_remaining
                        )
                        pressure = self._pressure(
                            target_ratio, spent, original_bytes - raw_remaining
                        )
                        if controller is not None:
                            # Aggregate drift can cancel (under- then over-
                            # shoot); the controller folds in the committed
                            # cheap-tier chunks' per-chunk ratio error, which
                            # cannot.
                            pressure = controller.observed_pressure(pressure)
                        with timed_span(
                            "store.pack.wave",
                            index=wave_index,
                            n_chunks=len(wave),
                            target_ratio=wave_target,
                        ):
                            # One wave in RAM at a time: a memmap source is
                            # read page-by-page here, never materialized whole.
                            arrays = [
                                np.ascontiguousarray(arr[c.slices]) for c in wave
                            ]
                            # Control decisions use only wave-boundary state
                            # (pressure, committed spreads, remaining risk) and
                            # escalated chunks refine in-process, so the bytes
                            # below are identical for every worker count.
                            escalated: dict[int, object] = {}
                            if (
                                controller is not None
                                and controller.wave_tier(pressure) is Tier.HEURISTIC
                            ):
                                preds = [
                                    controller.heuristic_prediction(a, wave_target)
                                    for a in arrays
                                ]
                            else:
                                preds = self._predict_wave(arrays, wave_target)
                                if controller is not None:
                                    for i, (a, p) in enumerate(zip(arrays, preds)):
                                        controller.record_std(p.std)
                                        tier = controller.chunk_tier(p.std, pressure)
                                        if tier is not Tier.REFINE:
                                            continue
                                        fraz = controller.refine(
                                            a,
                                            wave_target,
                                            initial_eb=p.error_bound,
                                            features=p.features,
                                        )
                                        escalated[i] = fraz
                                        preds[i] = Prediction(
                                            error_bound=float(fraz.error_bound),
                                            target_ratio=float(wave_target),
                                            features=p.features,
                                            feature_seconds=p.feature_seconds,
                                            inference_seconds=p.inference_seconds,
                                            std=p.std,
                                        )
                            tasks = [
                                (codec.name, a, p.error_bound)
                                for i, (a, p) in enumerate(zip(arrays, preds))
                                if i not in escalated
                            ]
                            if pool is not None and len(tasks) > 1:
                                pooled = pool.map_ordered(_compress_task, tasks)
                            else:
                                pooled = [_compress_task(*t) for t in tasks]
                            # Weave refined payloads back into chunk order
                            # (escalated chunks were already compressed by
                            # the warm FRaZ search itself).
                            pooled_iter = iter(pooled)
                            results = [
                                escalated[i].result if i in escalated
                                else next(pooled_iter)
                                for i in range(len(arrays))
                            ]
                        # Ordered commit: payloads land in chunk-id order no
                        # matter which worker finished first.
                        for wave_i, (chunk, chunk_arr, pred, result) in enumerate(
                            zip(wave, arrays, preds, results)
                        ):
                            payload = result.payload
                            chunk_raw = int(chunk_arr.nbytes)
                            fh.write(payload)
                            if controller is not None:
                                if wave_i in escalated:
                                    # The warm search's first probe ran at
                                    # the model's own eb — the window keeps
                                    # tracking the model, not FRaZ.
                                    _, probe_ratio = escalated[wave_i].history[0]
                                    controller.record_outcome(wave_target, probe_ratio)
                                else:
                                    controller.record_outcome(wave_target, result.ratio)
                            if (
                                feedback is not None
                                and pred.features.size
                                and wave_i not in escalated
                            ):
                                # Heuristic chunks have no features to learn
                                # from; escalated chunks were already logged
                                # probe-by-probe by controller.refine().
                                feedback.record(
                                    pred.features,
                                    pred.error_bound,
                                    result.ratio,
                                    wave_target,
                                )
                            spent += result.compressed_bytes
                            raw_remaining -= chunk_raw
                            entries.append(
                                {
                                    "coords": list(chunk.coords),
                                    "offset": offset,
                                    "nbytes": len(payload),
                                    "error_bound": float(pred.error_bound),
                                    "target_ratio": float(wave_target),
                                    "achieved_ratio": float(result.ratio),
                                    "raw_bytes": chunk_raw,
                                    "checksum": chunk_checksum(payload),
                                    "meta": json_safe(result.metadata),
                                }
                            )
                            records.append(
                                ChunkWriteRecord(
                                    coords=chunk.coords,
                                    target_ratio=float(wave_target),
                                    error_bound=float(pred.error_bound),
                                    achieved_ratio=float(result.ratio),
                                    raw_bytes=chunk_raw,
                                    stored_bytes=result.compressed_bytes,
                                )
                            )
                            offset += len(payload)
                    manifest = {
                        "version": 1,
                        "compressor": codec.name,
                        "framework": self._framework.name,
                        "shape": list(arr.shape),
                        "dtype": str(arr.dtype),
                        "chunk_shape": list(grid.chunk_shape),
                        "grid_shape": list(grid.grid_shape),
                        "target_ratio": target_ratio,
                        "closed_loop": opts.closed_loop,
                        "safety": opts.safety,
                        "original_bytes": original_bytes,
                        "stored_bytes": spent,
                        "chunks": entries,
                    }
                    if opts.control is not None:
                        manifest["control"] = asdict(opts.control)
                    manifest_bytes = write_manifest(fh, manifest)
        finally:
            pool_stats = None
            if pool is not None:
                pool_stats = pool.stats
                pool.shutdown()
        control_stats = None
        if controller is not None:
            achieved = original_bytes / spent if spent else 0.0
            control_stats = controller.stats(
                budget_drift=abs(achieved - target_ratio) / target_ratio
            )
        return PackReport(
            path=self.path,
            target_ratio=target_ratio,
            closed_loop=opts.closed_loop,
            original_bytes=original_bytes,
            stored_bytes=spent,
            file_bytes=offset + manifest_bytes,
            chunks=records,
            wave_size=wave_size,
            workers=opts.workers,
            pool_stats=pool_stats,
            control=control_stats,
        )


def pack(
    path,
    source,
    predictor,
    target_ratio: float,
    *,
    options: StoreOptions | None = None,
    feedback=None,
) -> PackReport:
    """One-call pack: ``source`` (Field / array / memmap) into ``path``."""
    return StoreWriter(path, predictor, options=options).write(
        source, target_ratio, feedback=feedback
    )
