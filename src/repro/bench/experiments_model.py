"""Model-level experiments: training scaling, end-to-end accuracy, timing.

Covers Table 3 and Figures 5a, 5b, 6, 7, 8, 9. The multi-domain framework
fits (shared by Figs. 7 and 8) are cached per process.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.curves import true_curve
from repro.bench.harness import BenchScale, format_table
from repro.compressors.registry import PAPER_COMPRESSORS, get_compressor
from repro.core.carol import CarolFramework
from repro.core.collection import TrainingCollector
from repro.core.fxrz import FxrzFramework
from repro.data.datasets import load_dataset, load_field, nyx
from repro.features.gpu_model import GpuCostModel
from repro.features.parallel import extract_features_parallel
from repro.features.serial import extract_features_serial
from repro.ml.bayesopt import BayesianOptimizer
from repro.ml.grid_search import RandomizedGridSearch
from repro.ml.kfold import KFold, cross_val_score
from repro.ml.forest import RandomForestRegressor
from repro.ml.space import Choice, IntRange, SearchSpace

COMPRESSORS = PAPER_COMPRESSORS

# Sub-space for the training-scaling study: same six axes, bounded tree
# sizes so one configuration's fit stays around a second at the largest
# design-matrix size (the paper's absolute times are cluster-scale anyway —
# the *scaling shape* is what's reproduced).
_FIG5_SPACE = SearchSpace(
    {
        "n_estimators": IntRange(10, 40, 5),
        "max_features": Choice(("auto", "sqrt")),
        "max_depth": IntRange(4, 10, 2),
        "min_samples_split": Choice((2, 5, 10)),
        "min_samples_leaf": Choice((2, 4)),
        "bootstrap": Choice((True, False)),
    }
)

#: Modeled node of the paper's Bebop system for the grid-search memory wall.
_PAPER_NODE_CORES = 36
_MODELED_MEMORY_BYTES = 8 << 20  # scaled-down "96 GB" for scaled-down forests


# Larger fields for the setup-time experiments (Figs. 7/8): the paper's
# regime has data collection dominating setup, which needs non-trivial
# compression times.
_SETUP_SHAPES = {"small": (40, 56, 56), "medium": (48, 64, 64)}


def _multi_domain_train(scale: BenchScale):
    shape = _SETUP_SHAPES[scale.name]
    fields = load_dataset("miranda", shape=shape)[:3]
    fields += load_dataset("nyx", shape=shape)[:2]
    fields += load_dataset("hcci", shape=shape)
    fields += load_dataset("mrs", shape=shape)
    return fields


_FW_CACHE: dict[tuple, tuple] = {}


def fitted_frameworks(scale: BenchScale, compressor: str):
    """(carol, fxrz) fitted on the multi-domain training set, cached."""
    key = (scale.name, compressor)
    if key in _FW_CACHE:
        return _FW_CACHE[key]
    train = _multi_domain_train(scale)
    rel = scale.rel_ebs()
    carol = CarolFramework(
        compressor=compressor, rel_error_bounds=rel, n_iter=scale.bo_iters, cv=scale.cv
    )
    carol.fit(train)
    fxrz = FxrzFramework(
        compressor=compressor, rel_error_bounds=rel, n_iter=scale.grid_iters, cv=scale.cv
    )
    fxrz.fit(train)
    _FW_CACHE[key] = (carol, fxrz)
    return carol, fxrz


# ---------------------------------------------------------------------------
# Table 3 — single-domain estimation error on 4 NYX fields
# ---------------------------------------------------------------------------

def tab3_single_domain(scale: BenchScale) -> str:
    field_names = ["baryon_density", "dark_matter_density", "temperature", "velocity_x"]
    short = {"baryon_density": "BD", "dark_matter_density": "DMD",
             "temperature": "Temp", "velocity_x": "V-X"}
    rel = scale.rel_ebs()
    kwargs = scale.dataset_kwargs("nyx")

    rows = []
    sums = {(c, fw): [] for c in COMPRESSORS for fw in ("fxrz", "carol")}
    for fname in field_names:
        train = [
            next(f for f in nyx(timestep=t, **kwargs) if f.name == fname)
            for t in range(scale.n_timesteps)
        ]
        test = next(
            f for f in nyx(timestep=scale.n_timesteps + 2, **kwargs) if f.name == fname
        )
        row: list = [short[fname]]
        for comp in COMPRESSORS:
            ebs = rel * test.value_range
            true, _ = true_curve(test, comp, ebs)
            targets = true[np.linspace(1, ebs.size - 2, scale.n_targets).astype(int)]
            for cls, tag, iters in (
                (FxrzFramework, "fxrz", scale.grid_iters),
                (CarolFramework, "carol", scale.bo_iters),
            ):
                fw = cls(compressor=comp, rel_error_bounds=rel, n_iter=iters, cv=scale.cv)
                fw.fit(train)
                alpha = fw.evaluate_targets(test.data, targets).alpha
                row.append(float(alpha))
                sums[(comp, tag)].append(alpha)
        rows.append(row)
    avg: list = ["Average"]
    for comp in COMPRESSORS:
        for tag in ("fxrz", "carol"):
            avg.append(float(np.mean(sums[(comp, tag)])))
    rows.append(avg)

    headers = ["field"]
    for comp in COMPRESSORS:
        headers.extend([f"{comp} FXRZ a%", f"{comp} CAROL a%"])
    return format_table(
        f"Table 3 — single-domain estimation error (NYX, {scale.n_timesteps} "
        f"train timesteps) [scale={scale.name}]",
        headers,
        rows,
        note="Paper shape: FXRZ and CAROL within ~1% of each other on average; "
        "both do better on SZx/ZFP than on the high-ratio SZ3/SPERR.",
    )


# ---------------------------------------------------------------------------
# Figure 5a — training time vs training-set size
# ---------------------------------------------------------------------------

def _augmented_design(scale: BenchScale, n: int, seed: int = 0):
    """Design matrix grown to ``n`` rows by bootstrap + feature jitter."""
    fields = _multi_domain_train(scale)
    data = TrainingCollector(
        "szx", mode="secre", rel_error_bounds=scale.rel_ebs()
    ).collect(fields)
    X0, y0 = data.design_matrix()
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, X0.shape[0], n)
    X = X0[idx] * (1.0 + 0.01 * rng.standard_normal((n, X0.shape[1])))
    y = y0[idx] + 0.01 * rng.standard_normal(n)
    return X, y


def _modeled_parallel_walltime(records, memory_budget: int, cores: int) -> float:
    """Wall time of FXRZ's parallel grid search on the paper's node model.

    Configurations run concurrently until either cores or memory are
    exhausted; overflow serializes into further rounds (the paper's
    120k-row spike). Uses the *measured* per-config fit times.
    """
    remaining = sorted(records, key=lambda r: -r.memory_bytes)
    wall = 0.0
    while remaining:
        round_mem = 0
        round_jobs = []
        rest = []
        for rec in remaining:
            if len(round_jobs) < cores and round_mem + rec.memory_bytes <= memory_budget:
                round_jobs.append(rec)
                round_mem += rec.memory_bytes
            else:
                rest.append(rec)
        if not round_jobs:  # single job larger than budget: run it alone
            round_jobs, rest = rest[:1], rest[1:]
        wall += max(r.fit_seconds for r in round_jobs)
        remaining = rest
    return wall


def fig5a_training_scaling(scale: BenchScale) -> str:
    rows = []
    checkpoint = None
    for n in scale.train_sizes:
        X, y = _augmented_design(scale, n)
        cv = 2  # timing study; accuracy handled elsewhere

        gs = RandomizedGridSearch(_FIG5_SPACE, n_iter=scale.grid_iters, cv=cv).fit(X, y)
        modeled = _modeled_parallel_walltime(
            gs.records, _MODELED_MEMORY_BYTES, _PAPER_NODE_CORES
        )

        kfold = KFold(n_splits=cv, random_state=0)

        def objective(params):
            return float(
                cross_val_score(
                    lambda: RandomForestRegressor(random_state=0, **params), X, y, cv=kfold
                ).mean()
            )

        t0 = time.perf_counter()
        bo_cold = BayesianOptimizer(_FIG5_SPACE, n_initial=3, random_state=0)
        bo_cold.run(objective, n_iter=scale.bo_iters)
        t_cold = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = BayesianOptimizer(_FIG5_SPACE, observations=checkpoint, random_state=1) \
            if checkpoint else bo_cold
        if checkpoint:
            warm.run(objective, n_iter=max(scale.bo_iters // 2, 2))
            t_warm = time.perf_counter() - t0
        else:
            t_warm = t_cold  # first size has nothing to warm-start from
        checkpoint = (warm if checkpoint else bo_cold).checkpoint()

        rows.append(
            [int(n), float(gs.elapsed), float(modeled), float(t_cold), float(t_warm)]
        )
    return format_table(
        f"Figure 5a — training time vs training-set size [scale={scale.name}]",
        ["rows", "grid serial(s)", "grid 36-core model(s)", "BO cold(s)", "BO warm(s)"],
        rows,
        note="Paper shape: grid search grows fastest (and its modeled parallel "
        "wall time spikes once configurations exceed node memory and "
        "serialize); BO grows gently and warm-started BO is cheapest. "
        f"Modeled node: {_PAPER_NODE_CORES} cores, "
        f"{_MODELED_MEMORY_BYTES >> 20} MB forest budget (scaled stand-in "
        "for Bebop's 96 GB).",
    )


# ---------------------------------------------------------------------------
# Figure 5b — convergence of n_estimators across BO iterations
# ---------------------------------------------------------------------------

def fig5b_bo_convergence(scale: BenchScale) -> str:
    datasets = ("miranda", "nyx", "cesm", "hurricane", "hcci", "mrs")
    iters = max(scale.bo_iters, 8)
    rows = []
    for ds in datasets:
        fields = load_dataset(ds, **scale.dataset_kwargs(ds))[:3]
        data = TrainingCollector(
            "szx", mode="secre", rel_error_bounds=scale.rel_ebs()
        ).collect(fields)
        X, y = data.design_matrix()
        kfold = KFold(n_splits=2, random_state=0)

        def objective(params):
            return float(
                cross_val_score(
                    lambda: RandomForestRegressor(random_state=0, **params), X, y, cv=kfold
                ).mean()
            )

        # Per-dataset seeds: each run starts from its own random design,
        # like the paper's six independent searches.
        bo = BayesianOptimizer(
            _FIG5_SPACE, n_initial=3, random_state=abs(hash(ds)) % 1000
        )
        res = bo.run(objective, n_iter=iters)
        traj = res.trajectory("n_estimators")
        rows.append([ds] + [int(v) for v in traj])
    headers = ["dataset"] + [f"it{i}" for i in range(iters)]
    return format_table(
        f"Figure 5b — n_estimators across {iters} BO iterations [scale={scale.name}]",
        headers,
        rows,
        note="Paper shape: wide exploration in early iterations, settling "
        "(exploitation) in the later ones.",
    )


# ---------------------------------------------------------------------------
# Figure 6 — feature extraction vs compressor runtimes on NYX
# ---------------------------------------------------------------------------

# Near-paper dataset dimensions for the *timing* experiments (Figs. 6, 9).
# Feature-extraction cost is content-independent, so these fields are cheap
# random data at realistic sizes; "small" halves each axis of the paper's
# dims (Table 2), "medium" uses them as published.
_TIMING_SHAPES = {
    "small": {
        "miranda": (128, 192, 192),
        "nyx": (256, 256, 256),
        "cesm": (900, 1800),
        "hurricane": (50, 250, 250),
        "hcci": (280, 280, 280),
        "mrs": (256, 256, 256),
    },
    "medium": {
        "miranda": (256, 384, 384),
        "nyx": (512, 512, 512),
        "cesm": (1800, 3600),
        "hurricane": (100, 500, 500),
        "hcci": (560, 560, 560),
        "mrs": (512, 512, 512),
    },
}


def _timing_field(dataset: str, scale: BenchScale) -> np.ndarray:
    shape = _TIMING_SHAPES[scale.name][dataset]
    rng = np.random.default_rng(abs(hash(dataset)) % 2**31)
    return rng.standard_normal(shape, dtype=np.float32)


def fig6_feature_extraction(scale: BenchScale) -> str:
    data = _timing_field("nyx", scale)
    _, t_full = extract_features_serial(data, stride=None)
    _, t_samp = extract_features_serial(data, stride=4)
    _, t_par = extract_features_parallel(data)
    t_gpu = GpuCostModel().kernel_time(data.shape, data.dtype.itemsize)
    rows = [
        ["Serial-Full", float(t_full * 1000), "measured"],
        ["Serial-Sampled (FXRZ)", float(t_samp * 1000), "measured"],
        ["Parallel (CAROL, vectorized)", float(t_par * 1000), "measured"],
        ["Parallel (CAROL, simulated A100)", float(t_gpu * 1000), "modeled"],
    ]
    # Compressor reference times on the (smaller) accuracy-scale NYX field,
    # rescaled to the timing volume: compression is ~linear in points.
    ref = load_field("nyx/baryon_density", **scale.dataset_kwargs("nyx"))
    volume_factor = data.size / ref.data.size
    eb = ref.relative_error_bound(1e-2)
    for name in ("szx", "sz3", "sperr"):
        res = get_compressor(name).compress(ref.data, eb)
        rows.append(
            [
                f"{name} compression (scaled est.)",
                float(res.elapsed * 1000 * volume_factor),
                "extrapolated",
            ]
        )
    return format_table(
        f"Figure 6 — feature extraction vs compression time on NYX "
        f"{data.shape} [scale={scale.name}]",
        ["stage", "time (ms)", "kind"],
        rows,
        note="Paper shape: Serial-Full >> compressors; sampling brings it "
        "well under SZ3/SPERR; the (simulated) parallel kernel is faster "
        "still (paper: ~5 ms on 512MB NYX — see DESIGN.md substitutions).",
    )


# ---------------------------------------------------------------------------
# Figure 7 — multi-domain requested vs achieved compression ratios
# ---------------------------------------------------------------------------

def fig7_multi_domain(scale: BenchScale) -> str:
    test = load_field("miranda/velocityx", seed=4242, **scale.dataset_kwargs("miranda"))
    rel = scale.rel_ebs()
    blocks = []
    rows = []
    for comp in COMPRESSORS:
        carol, fxrz = fitted_frameworks(scale, comp)
        ebs = rel * test.value_range
        true, _ = true_curve(test, comp, ebs)
        targets = true[np.linspace(1, ebs.size - 2, scale.n_targets).astype(int)]
        rep_c = carol.evaluate_targets(test.data, targets)
        rep_f = fxrz.evaluate_targets(test.data, targets)
        rows.append([comp, float(rep_f.alpha), float(rep_c.alpha)])
        blocks.append(
            f"{comp}: requested = " + " ".join(f"{v:8.2f}" for v in targets)
            + f"\n{comp}: f_FXRZ    = " + " ".join(f"{v:8.2f}" for v in rep_f.achieved)
            + f"\n{comp}: f_CAROL   = " + " ".join(f"{v:8.2f}" for v in rep_c.achieved)
        )
    return format_table(
        f"Figure 7 — multi-domain: requested vs achieved ratios on "
        f"miranda/velocityx [scale={scale.name}]",
        ["codec", "alpha% FXRZ", "alpha% CAROL"],
        rows,
        note="Paper shape: both frameworks' achieved curves track the request "
        "closely and each other very closely (paper CAROL: SZx 10%, ZFP 1.5%, "
        "SPERR 7.8%, SZ3 5.8%).\n\n" + "\n\n".join(blocks),
    )


# ---------------------------------------------------------------------------
# Figure 8 — setup (collection + training) time, FXRZ vs CAROL
# ---------------------------------------------------------------------------

def fig8_setup_time(scale: BenchScale) -> str:
    rows = []
    for comp in COMPRESSORS:
        carol, fxrz = fitted_frameworks(scale, comp)
        rc, rf = carol.setup_report, fxrz.setup_report
        rows.append(
            [
                comp,
                float(rf.collection_seconds),
                float(rf.training_seconds),
                float(rc.collection_seconds),
                float(rc.training_seconds),
                f"{rf.total_seconds / max(rc.total_seconds, 1e-9):.1f}x",
            ]
        )
    return format_table(
        f"Figure 8 — setup time: FXRZ vs CAROL (multi-domain training set) "
        f"[scale={scale.name}]",
        ["codec", "FXRZ collect(s)", "FXRZ train(s)", "CAROL collect(s)",
         "CAROL train(s)", "speedup"],
        rows,
        note="Paper shape: collection dominates FXRZ's setup (65-85%); CAROL "
        "cuts collection hardest on SZ3/SPERR and ~4x overall.",
    )


# ---------------------------------------------------------------------------
# Figure 9 — inference-side feature-extraction time per dataset
# ---------------------------------------------------------------------------

def fig9_inference_time(scale: BenchScale) -> str:
    datasets = ("miranda", "nyx", "cesm", "hurricane", "hcci", "mrs")
    model = GpuCostModel()
    rows = []
    for ds in datasets:
        data = _timing_field(ds, scale)
        # Best of three: the first call in a process pays one-off costs that
        # would land on whichever dataset happens to come first.
        t_fxrz = min(extract_features_serial(data, stride=4)[1] for _ in range(3))
        t_carol = min(extract_features_parallel(data)[1] for _ in range(3))
        t_gpu = model.kernel_time(data.shape, data.dtype.itemsize)
        rows.append(
            [
                ds,
                str(data.shape),
                float(t_fxrz * 1000),
                float(t_carol * 1000),
                float(t_gpu * 1000),
                f"{t_fxrz / max(t_gpu, 1e-9):.1f}x",
            ]
        )
        del data
    return format_table(
        f"Figure 9 — feature extraction per dataset: FXRZ vs CAROL "
        f"[scale={scale.name}, near-paper dataset sizes]",
        ["dataset", "shape", "FXRZ (ms)", "CAROL vectorized (ms)",
         "CAROL simulated GPU (ms)", "speedup (GPU model)"],
        rows,
        note="Paper shape: FXRZ's sampled extraction takes hundreds of ms on "
        "the large datasets while CAROL stays under ~10 ms (paper: ~36x). "
        "Both measured columns are the best of three calls on this CPU. "
        "Our NumPy CAROL column is below FXRZ's but on hurricane, whose "
        "thin first axis makes whole-block sampling read 2.5x the points of "
        "FXRZ's 1-in-4 grid (miranda reads 1.8x and is still faster); the "
        "simulated-GPU column is the DESIGN.md substitution for the paper's "
        "CUDA kernel.",
    )


# ---------------------------------------------------------------------------
# Ablation — CAROL vs FRaZ-style trial-and-error (Section 3.2, ref [24])
# ---------------------------------------------------------------------------

def ablation_fraz(scale: BenchScale) -> str:
    from repro.core.fraz import FrazSearch

    test = load_field("miranda/velocityx", seed=4242, **scale.dataset_kwargs("miranda"))
    rel = scale.rel_ebs()
    rows = []
    for comp in ("szx", "sz3"):
        carol, _ = fitted_frameworks(scale, comp)
        ebs = rel * test.value_range
        true, _ = true_curve(test, comp, ebs)
        targets = true[np.linspace(1, ebs.size - 2, scale.n_targets).astype(int)]

        t0 = time.perf_counter()
        rep = carol.evaluate_targets(test.data, targets)
        # charge only prediction time; evaluate_targets also compresses once
        t_carol_pred = rep.inference_seconds

        fraz = FrazSearch(comp, tolerance=0.05, max_iterations=10)
        t0 = time.perf_counter()
        achieved, n_probes, n_comp = [], 0, 0
        for t in targets:
            out = fraz.compress_to_ratio(test.data, float(t))
            achieved.append(out.achieved_ratio)
            n_probes += out.n_probes
            n_comp += out.n_compressions
        t_fraz = time.perf_counter() - t0

        from repro.core.metrics import estimation_error

        rows.append(
            [
                comp,
                float(rep.alpha),
                float(estimation_error(targets, achieved)),
                float(t_carol_pred),
                float(t_fraz),
                n_probes,
                n_comp,
            ]
        )
    return format_table(
        f"Ablation — CAROL vs FRaZ trial-and-error [scale={scale.name}, "
        f"{scale.n_targets} targets]",
        ["codec", "alpha% CAROL", "alpha% FRaZ", "CAROL predict(s)",
         "FRaZ search(s)", "FRaZ probes", "FRaZ compressions"],
        rows,
        note="Section 3.2's constraint: the framework must run no slower than "
        "its compressor. FRaZ is more accurate but pays several probes per "
        "request — each a full compression on SZ3; on SZx the size has a "
        "closed form, so the search measures without encoding and compresses "
        "once per target. CAROL's prediction is milliseconds.",
    )


# ---------------------------------------------------------------------------
# Ablation — fixed-rate ZFP vs CAROL-driven error-bounded ZFP (Section 2.2)
# ---------------------------------------------------------------------------

def ablation_fixed_rate(scale: BenchScale) -> str:
    from repro.compressors.zfp import ZFPCompressor
    from repro.core.quality import max_abs_error, psnr

    test = load_field("miranda/velocityx", seed=4242, **scale.dataset_kwargs("miranda"))
    carol, _ = fitted_frameworks(scale, "zfp")
    z = ZFPCompressor()
    rows = []
    # Rates whose achieved ratios overlap the error-bounded mode's band,
    # so PSNR is compared at (approximately) matched compressed sizes.
    for rate in (8.0, 12.0, 16.0):
        fr = z.compress_fixed_rate(test.data, rate)
        recon_fr = z.decompress(fr)
        # CAROL requests the ratio the fixed-rate stream actually achieved.
        res, pred = carol.compress_to_ratio(test.data, fr.ratio)
        recon_eb = z.decompress(res)
        rows.append(
            [
                f"{rate:.0f} bits/val",
                float(fr.ratio),
                float(res.ratio),
                float(psnr(test.data, recon_fr)),
                float(psnr(test.data, recon_eb)),
                float(max_abs_error(test.data, recon_fr)),
                float(max_abs_error(test.data, recon_eb)),
            ]
        )
    return format_table(
        f"Ablation — fixed-rate ZFP vs CAROL error-bounded ZFP "
        f"[scale={scale.name}]",
        ["rate", "ratio (fixed)", "ratio (CAROL)", "PSNR fixed (dB)",
         "PSNR CAROL (dB)", "maxerr fixed", "maxerr CAROL"],
        rows,
        note="Section 2.2's claim: fixed-rate controls size but not quality — "
        "at comparable ratios the error-bounded path keeps a pointwise "
        "guarantee while fixed-rate's max error is uncontrolled.",
    )


# ---------------------------------------------------------------------------
# Ablation — time-varying data drift and incremental refinement (Section 1)
# ---------------------------------------------------------------------------

def ablation_drift(scale: BenchScale) -> str:
    from repro.data.datasets import hurricane

    kwargs = scale.dataset_kwargs("hurricane")
    rel = scale.rel_ebs()

    def pressure(t):
        return next(f for f in hurricane(timestep=t, **kwargs) if f.name == "p")

    train = [pressure(t) for t in range(3)]
    static = CarolFramework(compressor="szx", rel_error_bounds=rel,
                            n_iter=scale.bo_iters, cv=scale.cv)
    static.fit(train)
    refined = CarolFramework(compressor="szx", rel_error_bounds=rel,
                             n_iter=scale.bo_iters, cv=scale.cv)
    refined.fit(train)

    rows = []
    refine_seconds = 0.0
    for t in (6, 14, 22, 30):
        field = pressure(t)
        ebs = rel * field.value_range
        true, _ = true_curve(field, "szx", ebs)
        targets = true[np.linspace(1, ebs.size - 2, scale.n_targets).astype(int)]
        a_static = static.evaluate_targets(field.data, targets).alpha
        rep = refined.refine([field])
        refine_seconds += rep.total_seconds
        a_refined = refined.evaluate_targets(field.data, targets).alpha
        rows.append([t, float(a_static), float(a_refined), float(rep.total_seconds)])
    return format_table(
        f"Ablation — hurricane drift: static vs incrementally refined CAROL "
        f"[scale={scale.name}]",
        ["timestep", "alpha% static", "alpha% refined", "refine cost(s)"],
        rows,
        note="Section 1's motivation: data characteristics drift over the "
        "simulation; warm-started refinement keeps the model current at a "
        f"total cost of {refine_seconds:.1f}s across the stream (FXRZ would "
        "retrain its grid search from scratch each time).",
    )
