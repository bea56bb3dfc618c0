"""Experiment implementations — one function per paper table/figure.

Every function takes a :class:`repro.bench.harness.BenchScale`, runs the
scaled-down version of the paper's experiment, and returns a formatted text
table reporting the same rows/series the paper does. EXPERIMENTS.md records
the paper-vs-measured comparison for each.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.curves import true_curve
from repro.bench.harness import BenchScale, format_table
from repro.compressors.registry import PAPER_COMPRESSORS, get_compressor
from repro.core.calibration import Calibrator
from repro.core.carol import CarolFramework
from repro.core.metrics import estimation_error, signed_estimation_errors
from repro.data.datasets import load_dataset, load_field
from repro.surrogate.registry import get_surrogate

COMPRESSORS = PAPER_COMPRESSORS  # the paper's four

# Datasets used for the collection-time tables (Table 4's five rows).
_TAB4_DATASETS = ("miranda", "nyx", "hurricane", "cesm", "hcci")


# ---------------------------------------------------------------------------
# Figure 2 — FXRZ (full compressor) vs SECRE estimates of f(e) + runtimes
# ---------------------------------------------------------------------------

def fig2_surrogate_curves(scale: BenchScale) -> str:
    field = load_field("miranda/viscosity", **scale.dataset_kwargs("miranda"))
    ebs = scale.rel_ebs() * field.value_range
    rows = []
    sections = []
    for name in COMPRESSORS:
        true, t_full = true_curve(field, name, ebs)
        est, t_est = get_surrogate(name).estimate_curve(field.data, ebs)
        alpha = estimation_error(true, est)
        sections.append(
            f"{name}: eb grid = " + " ".join(f"{e:.3g}" for e in ebs)
            + f"\n{name}: full    = " + " ".join(f"{v:.2f}" for v in true)
            + f"\n{name}: SECRE   = " + " ".join(f"{v:.2f}" for v in est)
        )
        rows.append(
            [
                name,
                f"{true[0]:.2f}..{true[-1]:.2f}",
                f"{est[0]:.2f}..{est[-1]:.2f}",
                float(alpha),
                float(t_full),
                float(t_est),
                float(t_full / max(t_est, 1e-9)),
            ]
        )
    return format_table(
        f"Figure 2 — f(e): full compressor (FXRZ) vs SECRE on miranda/viscosity "
        f"[scale={scale.name}, {ebs.size} error bounds]",
        ["codec", "f_FXRZ range", "f_SECRE range", "alpha%", "t_full(s)", "t_est(s)", "speedup"],
        rows,
        note="Paper shape: SECRE tracks SZx/ZFP closely, deviates on SZ3/SPERR, "
        "and costs a fraction of the full compressor's runtime.\n\n"
        + "\n\n".join(sections),
    )


# ---------------------------------------------------------------------------
# Figure 3 — estimation-error curves before/after calibration (SPERR)
# ---------------------------------------------------------------------------

def fig3_calibration_curves(scale: BenchScale) -> str:
    cases = [
        ("miranda/density", "miranda"),
        ("duct/velocity_magnitude", "duct"),
    ]
    lines = []
    rows = []
    for path, ds in cases:
        field = load_field(path, **scale.dataset_kwargs(ds))
        ebs = scale.rel_ebs() * field.value_range
        true, _ = true_curve(field, "sperr", ebs)
        est, _ = get_surrogate("sperr").estimate_curve(field.data, ebs)
        cal, info = Calibrator(n_points=4).calibrate_curve(
            field.data, ebs, est, get_compressor("sperr")
        )
        before = signed_estimation_errors(true, est)
        after = signed_estimation_errors(true, cal)
        rows.append(
            [
                path,
                float(np.abs(before).mean()),
                float(np.abs(after).mean()),
                "over" if info.overestimating else "under",
            ]
        )
        lines.append(
            f"{path}: alpha(e) before = "
            + " ".join(f"{v:+.1f}" for v in before)
            + f"\n{path}: alpha(e) after  = "
            + " ".join(f"{v:+.1f}" for v in after)
        )
    table = format_table(
        f"Figure 3 — SPERR estimation error before/after calibration "
        f"[scale={scale.name}, 4 calibration points]",
        ["field", "alpha% before", "alpha% after", "bias"],
        rows,
        note="Paper shape: calibration collapses the error curve "
        "(density 9.4%->0.5%, duct 34.2%->3.4% in the paper).\n\n" + "\n".join(lines),
    )
    return table


# ---------------------------------------------------------------------------
# Figure 10 — real vs SECRE vs calibrated compression-ratio curves
# ---------------------------------------------------------------------------

def fig10_calibrated_curves(scale: BenchScale) -> str:
    field = load_field("miranda/viscosity", **scale.dataset_kwargs("miranda"))
    ebs = scale.rel_ebs() * field.value_range
    sections = []
    rows = []
    for name in ("sz3", "sperr"):
        true, _ = true_curve(field, name, ebs)
        est, _ = get_surrogate(name).estimate_curve(field.data, ebs)
        cal, info = Calibrator(n_points=4).calibrate_curve(
            field.data, ebs, est, get_compressor(name)
        )
        rows.append(
            [
                name,
                float(estimation_error(true, est)),
                float(estimation_error(true, cal)),
                "over" if info.overestimating else "under",
            ]
        )
        sections.append(
            f"{name}: eb grid   = " + " ".join(f"{e:.3g}" for e in ebs)
            + f"\n{name}: real      = " + " ".join(f"{v:.2f}" for v in true)
            + f"\n{name}: SECRE     = " + " ".join(f"{v:.2f}" for v in est)
            + f"\n{name}: calibrated= " + " ".join(f"{v:.2f}" for v in cal)
        )
    return format_table(
        f"Figure 10 — real vs SECRE vs calibrated f(e) on miranda/viscosity "
        f"[scale={scale.name}]",
        ["codec", "alpha% SECRE", "alpha% calibrated", "bias"],
        rows,
        note="Paper shape: calibration identifies the bias direction and pulls "
        "the estimated curve onto the real one.\n\n" + "\n\n".join(sections),
    )


# ---------------------------------------------------------------------------
# Table 4 — training-data collection time: full compressor vs SECRE
# ---------------------------------------------------------------------------

def tab4_collection_time(scale: BenchScale) -> str:
    rows = []
    speedups: dict[str, list[float]] = {c: [] for c in COMPRESSORS}
    for ds in _TAB4_DATASETS:
        fields = load_dataset(ds, **scale.dataset_kwargs(ds))[:3]
        row: list = [ds]
        for name in COMPRESSORS:
            t_full_total = 0.0
            t_est_total = 0.0
            for f in fields:
                ebs = scale.rel_ebs() * f.value_range
                _, t_full = true_curve(f, name, ebs)
                _, t_est = get_surrogate(name).estimate_curve(f.data, ebs)
                t_full_total += t_full
                t_est_total += t_est
            row.extend([float(t_full_total), float(t_est_total)])
            speedups[name].append(t_full_total / max(t_est_total, 1e-9))
        rows.append(row)
    avg = ["Speedup"]
    for name in COMPRESSORS:
        avg.extend([f"{np.mean(speedups[name]):.1f}x", ""])
    rows.append(avg)
    headers = ["dataset"]
    for name in COMPRESSORS:
        headers.extend([f"{name} full(s)", f"{name} est(s)"])
    return format_table(
        f"Table 4 — collection time: full compressor vs SECRE "
        f"[scale={scale.name}, 3 fields/dataset, {scale.n_ebs} ebs]",
        headers,
        rows,
        note="Paper shape: largest speedups on the high-ratio codecs "
        "(paper: SZx 14.8x, ZFP 15.8x, SZ3 50.7x, SPERR 22.2x).",
    )


# ---------------------------------------------------------------------------
# Table 5 — calibration effectiveness: speedup & alpha vs #points
# ---------------------------------------------------------------------------

def tab5_calibration(scale: BenchScale) -> str:
    datasets = ("miranda", "nyx", "hurricane", "hcci")
    point_counts = (3, 4, 5)
    blocks = []
    for name in ("sz3", "sperr"):
        rows = []
        keys = ("s0", "a0", *[f"s{k}" for k in point_counts], *[f"a{k}" for k in point_counts])
        agg = {k: [] for k in keys}
        for ds in datasets:
            field = load_dataset(ds, **scale.dataset_kwargs(ds))[0]
            ebs = scale.rel_ebs() * field.value_range
            true, t_full = true_curve(field, name, ebs)
            est, t_est = get_surrogate(name).estimate_curve(field.data, ebs)
            row: list = [ds]
            s0 = t_full / max(t_est, 1e-9)
            a0 = estimation_error(true, est)
            row.extend([f"{s0:.1f}x", float(a0)])
            agg["s0"].append(s0)
            agg["a0"].append(a0)
            for k in point_counts:
                cal, info = Calibrator(n_points=k).calibrate_curve(
                    field.data, ebs, est, get_compressor(name)
                )
                t_cal = t_est + info.compressor_seconds
                sk = t_full / max(t_cal, 1e-9)
                ak = estimation_error(true, cal)
                row.extend([f"{sk:.1f}x", float(ak)])
                agg[f"s{k}"].append(sk)
                agg[f"a{k}"].append(ak)
            rows.append(row)
        avg: list = ["Average"]
        avg.extend([f"{np.mean(agg['s0']):.1f}x", float(np.mean(agg["a0"]))])
        for k in point_counts:
            avg.extend([f"{np.mean(agg[f's{k}']):.1f}x", float(np.mean(agg[f"a{k}"]))])
        rows.append(avg)
        headers = ["dataset", "S(est)", "a%(est)"]
        for k in point_counts:
            headers.extend([f"S({k}pt)", f"a%({k}pt)"])
        blocks.append(
            format_table(
                f"Table 5 ({name.upper()}) — calibration effectiveness "
                f"[scale={scale.name}]",
                headers,
                rows,
            )
        )
    return (
        "\n\n".join(blocks)
        + "\nPaper shape: uncalibrated SECRE is fast but tens-of-% wrong; 3-4 "
        "points collapse alpha to a few % while keeping a multi-x speedup."
    )


# ---------------------------------------------------------------------------
# Ablation — surrogate sampling-rate sweep (design-choice bench)
# ---------------------------------------------------------------------------

def ablation_sampling(scale: BenchScale) -> str:
    field = load_field("miranda/viscosity", **scale.dataset_kwargs("miranda"))
    ebs = scale.rel_ebs() * field.value_range
    rows = []
    true_szx, _ = true_curve(field, "szx", ebs)
    for stride in (16, 64, 128, 256):
        est, t = get_surrogate("szx", stride=stride).estimate_curve(field.data, ebs)
        rows.append(["szx", f"1/{stride} blocks", float(estimation_error(true_szx, est)), float(t)])
    true_sz3, _ = true_curve(field, "sz3", ebs)
    for stride in (3, 5, 8):
        est, t = get_surrogate("sz3", stride=stride).estimate_curve(field.data, ebs)
        rows.append(
            ["sz3", f"1/{stride} per dim", float(estimation_error(true_sz3, est)), float(t)]
        )
    return format_table(
        f"Ablation — surrogate sampling rate vs accuracy [scale={scale.name}]",
        ["codec", "sampling", "alpha%", "t_est(s)"],
        rows,
        note="Design-choice check: Table 1's sampling rates sit on the "
        "accuracy/cost knee; denser sampling buys little accuracy for "
        "linear extra cost.",
    )


# ---------------------------------------------------------------------------
# Ablation — learned model vs monotone curve inversion
# ---------------------------------------------------------------------------

def ablation_inverse(scale: BenchScale) -> str:
    from repro.core.prediction import invert_curve

    train = load_dataset("miranda", **scale.dataset_kwargs("miranda"))[:4]
    test = load_field("miranda/pressure", seed=999, **scale.dataset_kwargs("miranda"))
    rel = scale.rel_ebs()
    rows = []
    for name in ("szx", "sz3"):
        fw = CarolFramework(
            compressor=name, rel_error_bounds=rel, n_iter=scale.bo_iters, cv=scale.cv
        )
        fw.fit(train)
        ebs = rel * test.value_range
        true, _ = true_curve(test, name, ebs)
        targets = true[1 : 1 + scale.n_targets]
        codec = get_compressor(name)

        # Learned model (generalizes from features, no test-curve access).
        rep = fw.evaluate_targets(test.data, targets)

        # Curve inversion needs a measured curve *for the test input* —
        # that measurement is exactly what the framework avoids.
        t0 = time.perf_counter()
        est, _ = get_surrogate(name).estimate_curve(test.data, ebs)
        cal, _ = Calibrator(4).calibrate_curve(test.data, ebs, est, codec)
        achieved = np.array(
            [codec.compression_ratio(test.data, invert_curve(ebs, cal, t)) for t in targets]
        )
        t_inv = time.perf_counter() - t0
        rows.append(
            [
                name,
                float(rep.alpha),
                float(estimation_error(targets, achieved)),
                float(rep.inference_seconds),
                float(t_inv),
            ]
        )
    return format_table(
        f"Ablation — learned forest vs per-input curve inversion [scale={scale.name}]",
        ["codec", "alpha% model", "alpha% inversion", "t model(s)", "t inversion(s)"],
        rows,
        note="The inversion baseline is more accurate but must estimate+calibrate "
        "a fresh curve per input (cost grows with the compressor); the model "
        "amortizes that into training, which is the frameworks' point.",
    )


# ---------------------------------------------------------------------------
# Ablation — alternative ML models (paper future work)
# ---------------------------------------------------------------------------

def ablation_models(scale: BenchScale) -> str:
    """Forest vs gradient boosting vs kNN as the error-bound model."""
    import time as _time

    from repro.core.collection import TrainingCollector
    from repro.core.prediction import ErrorBoundModel

    train = load_dataset("miranda", **scale.dataset_kwargs("miranda"))[:4]
    train += load_dataset("hcci", **scale.dataset_kwargs("hcci"))
    test = load_field("miranda/pressure", seed=1234, **scale.dataset_kwargs("miranda"))
    rel = scale.rel_ebs()
    codec_name = "sz3"
    codec = get_compressor(codec_name)
    data = TrainingCollector(
        codec_name, mode="calibrated", rel_error_bounds=rel
    ).collect(train)
    ebs = rel * test.value_range
    true, _ = true_curve(test, codec_name, ebs)
    targets = true[np.linspace(1, ebs.size - 2, scale.n_targets).astype(int)]

    from repro.features.parallel import extract_features_parallel

    feats, _ = extract_features_parallel(test.data)
    rows = []
    for kind in ("forest", "gbt", "knn"):
        t0 = _time.perf_counter()
        model = ErrorBoundModel().fit(
            data, method="bayesopt", n_iter=scale.bo_iters, cv=scale.cv, model_kind=kind
        )
        t_train = _time.perf_counter() - t0
        achieved = np.array(
            [
                codec.compression_ratio(
                    test.data, model.predict_error_bound(feats, float(t))
                )
                for t in targets
            ]
        )
        rows.append(
            [kind, float(estimation_error(targets, achieved)), float(t_train)]
        )
    return format_table(
        f"Ablation — error-bound model family on {codec_name} [scale={scale.name}]",
        ["model", "alpha%", "train(s)"],
        rows,
        note="Future-work check: the random forest is not uniquely good — "
        "local (kNN) and boosted models are competitive on this "
        "low-dimensional, densely tiled problem.",
    )


# ---------------------------------------------------------------------------
# Ablation — SZ3 entropy backend: Huffman+LZ vs range coder
# ---------------------------------------------------------------------------

def ablation_entropy(scale: BenchScale) -> str:
    """Order-0 arithmetic coding vs Huffman+LZ as SZ3's entropy stage."""
    from repro.compressors.sz3 import SZ3Compressor

    rows = []
    for path, ds in (("miranda/viscosity", "miranda"), ("hcci/oh", "hcci"),
                     ("nyx/baryon_density", "nyx")):
        field = load_field(path, **scale.dataset_kwargs(ds))
        eb = field.relative_error_bound(1e-2)
        res_h = SZ3Compressor(entropy="huffman").compress(field.data, eb)
        res_r = SZ3Compressor(entropy="range").compress(field.data, eb)
        rows.append(
            [
                path,
                float(res_h.ratio),
                float(res_r.ratio),
                float(res_h.elapsed),
                float(res_r.elapsed),
            ]
        )
    return format_table(
        f"Ablation — SZ3 entropy backend [scale={scale.name}, rel eb 1e-2]",
        ["field", "ratio huffman+lz", "ratio range", "t huff(s)", "t range(s)"],
        rows,
        note="The range coder wins sub-bit coding of the dominant symbol; "
        "Huffman+LZ wins when consecutive codes correlate (runs). Real SZ3 "
        "ships Huffman+zstd; SZ variants with arithmetic stages match this "
        "trade-off.",
    )
