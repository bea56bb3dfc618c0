"""Streaming store writer with a closed-loop byte budget and wave parallelism.

:class:`StoreWriter` turns "this field must fit N bytes" into a chunked
``.rps`` container. It walks a deterministic :class:`~repro.store.chunking.ChunkGrid`
over the input one *wave* of ``wave_size`` chunks (flat chunk-id order)
at a time, so fields loaded via ``np.memmap`` stream through without
materializing, and takes each wave through three stages:

- **decide** — every chunk of the wave gets one error bound for the
  wave's shared target: the surrogate heuristic for a relaxed (T0)
  wave, else one feature pass and one model pass, after which the
  controller may escalate single chunks to a warm FRaZ search (T2);
- **compress** — the chunks that were not escalated (a search has
  already compressed its chunk) are compressed in the caller, or fanned
  out over a :class:`repro.serve.WorkerPool` (``workers > 0``);
- **commit** — payloads are appended strictly in chunk-id order, each
  with one :class:`ChunkWriteRecord` from which its manifest entry is
  written.

The file is written to a temporary name and replaces ``path`` only when
the pack has finished, so a failed pack leaves any previous store there
intact.

The byte budget is *closed-loop*: after each wave lands, the remaining
budget is redistributed over the remaining raw bytes, so a chunk that
came in over target raises the ratio asked of later chunks (and vice
versa) instead of letting the error accumulate. Open-loop mode
(``closed_loop=False``) asks every chunk for the global target — the
per-chunk-prediction baseline the closed loop is measured against.

**Determinism.** Targets and tier decisions are made at wave boundaries
from committed bytes only, and escalated chunks refine in-process, so
the output file is **byte-identical for every worker count**, including
the in-process ``workers=0`` path; ``wave_size=1`` is the serial
chunk-at-a-time loop bit-for-bit.

Every ``(features, error bound, achieved ratio, target)`` measurement can
be fed to a :class:`repro.core.feedback.FeedbackLoop` (``feedback=``): a
pack run is a batch of free ground-truth observations, so packing
improves the very model that budgets the next pack. The writer alone
decides what the loop learns, at commit and in chunk-id order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from repro.compressors.registry import get_compressor
from repro.control.controller import Controller, _require_framework
from repro.control.policy import ControlOptions, ControlStats, Tier
from repro.data.io import atomic_write
from repro.obs import span
from repro.serve.pool import PoolStats, WorkerPool
from repro.store.chunking import DEFAULT_CHUNK_ELEMENTS, ChunkGrid
from repro.store.format import chunk_checksum, json_safe, write_header, write_manifest
from repro.utils.validation import as_float_array

#: Wave width used when ``wave_size`` is unset and ``workers > 0``. A
#: constant (never derived from the worker count) so every worker count
#: re-targets at the same chunk boundaries and produces the same bytes.
DEFAULT_WAVE_SIZE = 8

#: The clamp on the per-chunk targets the closed loop may request, keeping
#: one badly mispredicted chunk from driving the next target somewhere the
#: model was never trained.
MIN_CHUNK_RATIO = 1.01
MAX_CHUNK_RATIO = 1e4

#: Per-task limit on the write pool; a compression past it re-runs in the
#: caller's process.
POOL_TIMEOUT_SECONDS = 120.0


@dataclass(frozen=True, kw_only=True)
class StoreOptions:
    """Frozen, hashable packing configuration.

    ``chunk_shape=None`` derives a grid of roughly ``chunk_elements``
    values per chunk. The closed loop's per-chunk targets stay within
    [:data:`MIN_CHUNK_RATIO`, :data:`MAX_CHUNK_RATIO`].

    ``workers`` fans each wave's compression out over a process pool (0
    keeps everything in-process); features are always extracted in the
    caller's process, and a task past :data:`POOL_TIMEOUT_SECONDS` re-runs
    there. ``wave_size`` sets how many chunks share one closed-loop
    re-target; ``None`` means 1 without workers (the classic serial loop)
    and :data:`DEFAULT_WAVE_SIZE` with them. The packed bytes depend on
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
    workers: int = 0
    wave_size: int | None = None
    control: ControlOptions | None = None

    def __post_init__(self) -> None:
        if self.chunk_shape is not None:
            object.__setattr__(self, "chunk_shape", tuple(int(c) for c in self.chunk_shape))
        if self.chunk_elements < 1:
            raise ValueError("chunk_elements must be >= 1")
        if not np.isfinite(self.safety):
            raise ValueError(f"safety must be finite, got {self.safety}")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.wave_size is not None and self.wave_size < 1:
            raise ValueError("wave_size must be >= 1")

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
    """One packed chunk's outcome. Its manifest entry is these fields
    but ``stored_bytes`` (which also counts the codec's stream header),
    plus the payload's offset, nbytes, checksum and codec metadata."""

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


def _compress_task(codec_name: str, data: np.ndarray, error_bound: float):
    """Worker-side chunk compression (module-level for pickling).

    Deterministic: the payload depends only on ``(data, error_bound)``,
    so in-process and worker execution produce identical bytes.
    """
    return get_compressor(codec_name).compress(data, error_bound)


class StoreWriter:
    """Packs one field into one ``.rps`` container.

    ``framework`` is a fitted
    :class:`~repro.core.framework.RatioControlledFramework`; a
    :class:`repro.serve.PredictionService` is refused with a ``TypeError``
    (pass its ``.framework``).
    """

    def __init__(self, path, framework, *, options: StoreOptions | None = None) -> None:
        self.path = Path(path)
        self.options = options or StoreOptions()
        self._framework = _require_framework(framework)
        if framework.model.forest is None:
            raise ValueError("framework is not fitted")

    # -- decide ------------------------------------------------------------------

    def _decide_wave(self, arrays, target, controller, pressure) -> list[tuple]:
        """Each chunk's ``(features, error_bound, fraz)``, in chunk order.

        A relaxed (T0) wave takes the surrogate heuristic and has no
        features. Otherwise the wave gets one feature pass and one model
        pass (each row the bits a single-chunk call gives, so
        ``wave_size=1`` reproduces the serial pack), and the controller
        then decides each chunk in flat chunk-id order: a chunk it
        escalates is refined in-process and carries its
        :class:`~repro.core.fraz.FrazResult`, already compressed; every
        other chunk has ``fraz=None``. All of it uses wave-boundary state
        only, so the decisions are the same for every worker count.
        """
        if controller is not None and controller.wave_tier(pressure) is Tier.HEURISTIC:
            preds = [controller.heuristic_prediction(a, target) for a in arrays]
            return [(p.features, p.error_bound, None) for p in preds]
        framework = self._framework
        F = framework.extract_features_many(arrays)
        ebs, stds = framework.model.predict_error_bound_batch_with_std(
            F, np.full(len(arrays), float(target)), safety=self.options.safety
        )
        decided = []
        for a, features, eb, std in zip(arrays, F, ebs.tolist(), stds.tolist()):
            fraz = None
            if controller is not None:
                controller.record_std(std)
                if controller.chunk_tier(std, pressure) is Tier.REFINE:
                    fraz = controller.refine(a, target, initial_eb=eb)
                    eb = float(fraz.error_bound)
            decided.append((features, eb, fraz))
        return decided

    # -- packing -----------------------------------------------------------------

    def _wave_target(
        self, target_ratio: float, budget: float, spent: int, raw_remaining: int
    ) -> float:
        """The shared target for the next wave, from the budget state.

        Hardened against budget exhaustion mid-pack: the remaining budget
        is floored at one byte (never zero, so the division is safe) and
        the result is clamped into ``[MIN_CHUNK_RATIO, MAX_CHUNK_RATIO]``
        — an impossibly tight budget asks for the ceiling ratio instead
        of a nonsensical (or < 1) target.
        """
        if not self.options.closed_loop:
            return target_ratio
        remaining_budget = max(budget - spent, 1.0)
        if raw_remaining <= 0:
            return MAX_CHUNK_RATIO
        target = raw_remaining / remaining_budget
        return min(max(target, MIN_CHUNK_RATIO), MAX_CHUNK_RATIO)

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
        (or anything with its ``record`` signature). At commit, in chunk-id
        order, it records one observation for a model-tier chunk, one per
        probe of an escalated chunk's search, and none for a T0 chunk.
        """
        target_ratio = float(target_ratio)
        if not np.isfinite(target_ratio) or target_ratio <= 1.0:
            raise ValueError(f"target_ratio must be finite and > 1, got {target_ratio}")
        arr = _as_source_array(source)
        # a non-native byte order (a ">f4" memmap) is stored, like it is
        # compressed, as the native dtype -- converted chunk by chunk
        dtype = arr.dtype.newbyteorder("=")
        opts = self.options
        grid = opts.grid_for(arr.shape)
        codec = self._framework._codec
        wave_size = opts.resolved_wave_size
        controller = None
        if opts.control is not None:
            controller = Controller(self._framework, options=opts.control)

        original_bytes = int(arr.nbytes)
        budget = original_bytes / target_ratio
        raw_remaining = original_bytes
        spent = 0
        entries: list[dict] = []
        records: list[ChunkWriteRecord] = []
        chunks = list(grid)
        pool = None
        if opts.workers > 0:
            pool = WorkerPool(opts.workers, timeout=POOL_TIMEOUT_SECONDS)
        try:
            with (
                span(
                    "store.pack",
                    path=str(self.path),
                    n_chunks=grid.n_chunks,
                    target_ratio=target_ratio,
                    closed_loop=opts.closed_loop,
                    workers=opts.workers,
                    wave_size=wave_size,
                ),
                atomic_write(self.path) as fh,
            ):
                offset = write_header(fh)
                for wave_index, start in enumerate(range(0, len(chunks), wave_size)):
                    wave = chunks[start : start + wave_size]
                    wave_target = self._wave_target(target_ratio, budget, spent, raw_remaining)
                    pressure = self._pressure(target_ratio, spent, original_bytes - raw_remaining)
                    if controller is not None:
                        # Aggregate drift can cancel (under- then over-shoot);
                        # the controller folds in the committed cheap-tier
                        # chunks' per-chunk ratio error, which cannot.
                        pressure = controller.observed_pressure(pressure)
                    with span(
                        "store.pack.wave",
                        index=wave_index,
                        n_chunks=len(wave),
                        target_ratio=wave_target,
                    ):
                        # One wave in RAM at a time: a memmap source is read
                        # page-by-page here, never materialized whole.
                        arrays = [np.ascontiguousarray(arr[c.slices], dtype=dtype) for c in wave]
                        decided = self._decide_wave(arrays, wave_target, controller, pressure)
                        # escalated chunks were compressed by their search
                        tasks = [
                            (codec.name, a, eb)
                            for a, (_, eb, fraz) in zip(arrays, decided)
                            if fraz is None
                        ]
                        if pool is not None:
                            pooled = iter(pool.map_ordered(_compress_task, tasks))
                        else:
                            pooled = iter([_compress_task(*t) for t in tasks])
                    # Ordered commit: payloads land in chunk-id order no
                    # matter which worker finished first.
                    for chunk, a, (features, eb, fraz) in zip(wave, arrays, decided):
                        result = next(pooled) if fraz is None else fraz.result
                        if controller is not None:
                            # An escalated chunk reports its search's first
                            # probe, the one at the model's own eb: the
                            # window keeps tracking the model, not FRaZ.
                            probe = result.ratio if fraz is None else fraz.history[0][1]
                            controller.record_outcome(wave_target, probe)
                        if feedback is not None and features.size:
                            # T0 chunks have no features to learn from; an
                            # escalated chunk teaches every probe it measured.
                            measured = [(eb, result.ratio)] if fraz is None else fraz.history
                            for probe_eb, ratio in measured:
                                feedback.record(features, probe_eb, ratio, wave_target)
                        record = ChunkWriteRecord(
                            coords=chunk.coords,
                            target_ratio=float(wave_target),
                            error_bound=eb,
                            achieved_ratio=float(result.ratio),
                            raw_bytes=int(a.nbytes),
                            stored_bytes=result.compressed_bytes,
                        )
                        records.append(record)
                        payload = result.payload
                        fh.write(payload)
                        entry = {
                            **vars(record),
                            "offset": offset,
                            "nbytes": len(payload),
                            "checksum": chunk_checksum(payload),
                            "meta": json_safe(result.metadata),
                        }
                        del entry["stored_bytes"]  # the manifest keeps nbytes
                        entries.append(entry)
                        spent += record.stored_bytes
                        raw_remaining -= record.raw_bytes
                        offset += len(payload)
                manifest = {
                    "version": 1,
                    "compressor": codec.name,
                    "framework": self._framework.name,
                    "shape": list(arr.shape),
                    "dtype": str(dtype),
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
    framework,
    target_ratio: float,
    *,
    options: StoreOptions | None = None,
    feedback=None,
) -> PackReport:
    """One-call pack: ``source`` (Field / array / memmap) into ``path``."""
    return StoreWriter(path, framework, options=options).write(
        source, target_ratio, feedback=feedback
    )
