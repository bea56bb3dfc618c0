"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's workflow:

- ``datasets``  — list the synthetic datasets and their fields;
- ``estimate``  — print a ratio-vs-error-bound curve (full compressor,
  SECRE surrogate, or calibrated surrogate);
- ``train``     — fit a framework (CAROL or FXRZ) and save it;
- ``predict``   — predict the error bound for a target ratio with a saved
  model;
- ``compress``  — end-to-end: predict, compress, report achieved ratio;
- ``bench``     — run one named paper experiment and print its table;
- ``store-pack`` / ``store-info`` / ``store-unpack`` — pack a field into
  a chunked ``.rps`` store under a byte budget, print its manifest, and
  decompress it (optionally verifying the read-back contract against
  the original);
- ``trace-summary`` — aggregate a ``--trace`` JSON into a per-stage table.

``train``, ``compress``, ``bench``, ``store-pack`` and ``store-unpack``
accept ``--trace out.json``: observability (:mod:`repro.obs`) is enabled
for the run and the span tree is written to the given path on exit.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import obs
from repro.compressors.registry import available_compressors
from repro.control.policy import ControlOptions
from repro.core.carol import CarolFramework
from repro.core.collection import TrainingCollector
from repro.core.fxrz import FxrzFramework
from repro.data.datasets import DATASET_NAMES, load_dataset, load_field
from repro.store.writer import DEFAULT_WAVE_SIZE, StoreOptions
from repro.utils.serialization import load_framework, save_framework


def _add_trace_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="record an observability trace and write it here")


def _add_common_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("field", help="field path, e.g. miranda/viscosity")
    p.add_argument("--shape", type=int, nargs="+", default=None,
                   help="override the field's grid shape")
    p.add_argument("--seed", type=int, default=None, help="dataset seed")


def _load_field(args):
    kwargs = {}
    if args.shape:
        kwargs["shape"] = tuple(args.shape)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return load_field(args.field, **kwargs)


def cmd_datasets(_args) -> int:
    for name in DATASET_NAMES:
        fields = load_dataset(name, shape=(4, 8, 8) if name != "cesm" else (8, 16))
        names = ", ".join(f.name for f in fields)
        print(f"{name:<10} {len(fields):>2} fields: {names}")
    return 0


def cmd_estimate(args) -> int:
    field = _load_field(args)
    mode = args.mode
    collector = TrainingCollector(
        args.compressor, mode=mode, rel_error_bounds=np.geomspace(args.eb_min, args.eb_max, args.n),
        calibration_points=args.calibration_points,
    )
    rec = collector.collect_field(field)
    print(f"# {field.path} shape={field.data.shape} compressor={args.compressor} mode={mode}")
    print(f"# collected in {rec.collect_seconds:.3f}s")
    print(f"{'error_bound':>14} {'ratio':>10}")
    for eb, ratio in zip(rec.error_bounds, rec.ratios):
        print(f"{eb:>14.6g} {ratio:>10.3f}")
    return 0


def cmd_train(args) -> int:
    if args.config:
        from repro.core.config import FrameworkConfig

        cfg = FrameworkConfig.load(args.config)
        fw = cfg.build()
        fields = cfg.load_training_fields()
    else:
        fields = []
        for ds in args.datasets:
            kwargs = {"shape": tuple(args.shape)} if args.shape else {}
            fields.extend(load_dataset(ds, **kwargs))
        cls = CarolFramework if args.framework == "carol" else FxrzFramework
        fw = cls(
            compressor=args.compressor,
            rel_error_bounds=np.geomspace(args.eb_min, args.eb_max, args.n),
            n_iter=args.iters,
            cv=args.cv,
        )
    report = fw.fit(fields)
    print(
        f"{fw.name} fitted on {len(fields)} fields: "
        f"collection {report.collection_seconds:.2f}s, "
        f"training {report.training_seconds:.2f}s, {report.n_rows} rows"
    )
    path = save_framework(args.out, fw)
    print(f"saved to {path}")
    return 0


def cmd_predict(args) -> int:
    fw = load_framework(args.model)
    field = _load_field(args)
    pred = fw.predict_error_bound(field.data, args.ratio)
    print(f"predicted error bound: {pred.error_bound:.6g}")
    print(f"(features {np.round(pred.features, 5).tolist()}, "
          f"extraction {pred.feature_seconds*1000:.2f} ms, "
          f"inference {pred.inference_seconds*1000:.2f} ms)")
    return 0


def cmd_compress(args) -> int:
    fw = load_framework(args.model)
    field = _load_field(args)
    result, pred = fw.compress_to_ratio(field.data, args.ratio)
    err = 100.0 * abs(result.ratio - args.ratio) / args.ratio
    print(f"requested ratio : {args.ratio:.2f}")
    print(f"predicted eb    : {pred.error_bound:.6g}")
    print(f"achieved ratio  : {result.ratio:.2f} ({err:.1f}% off)")
    print(f"compressed size : {result.compressed_bytes} bytes "
          f"(from {result.original_bytes})")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(result.payload)
        print(f"payload written to {args.out}")
    return 0


def _store_source(args):
    """Resolve a store-pack source: an on-disk raw file (memmapped) or a
    synthetic ``dataset/field`` path."""
    from pathlib import Path

    from repro.store import open_raw

    if Path(args.source).exists():
        if not args.shape:
            raise SystemExit("store-pack: --shape is required for raw file sources")
        return open_raw(args.source, tuple(args.shape), dtype=args.dtype)
    kwargs = {}
    if args.shape:
        kwargs["shape"] = tuple(args.shape)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return load_field(args.source, **kwargs).data


def cmd_store_pack(args) -> int:
    from repro.store import pack

    fw = load_framework(args.model)
    source = _store_source(args)
    control = None
    if args.control:
        control = ControlOptions(
            t2_std=args.t2_std,
            t2_pressure=args.t2_pressure,
            risk_budget=args.risk_budget,
            refine_compressions=args.refine_compressions,
        )
    options = StoreOptions(
        chunk_shape=tuple(args.chunk) if args.chunk else None,
        chunk_elements=args.chunk_elements,
        closed_loop=not args.open_loop,
        safety=args.safety,
        workers=args.workers,
        wave_size=args.wave_size,
        control=control,
    )
    report = pack(args.out, source, fw, args.ratio, options=options)
    print(report.summary())
    worst = max(
        report.chunks, key=lambda c: abs(c.achieved_ratio - c.target_ratio) / c.target_ratio
    )
    print(
        f"chunks: {report.n_chunks} x {options.grid_for(source.shape).chunk_shape}, "
        f"worst chunk {worst.coords} achieved {worst.achieved_ratio:.2f} "
        f"(target {worst.target_ratio:.2f})"
    )
    return 0


def cmd_store_info(args) -> int:
    from repro.store import Store

    with Store(args.store, verify=False) as st:
        info = st.info()
        for key in (
            "path", "shape", "dtype", "compressor", "chunk_shape", "grid_shape",
            "n_chunks", "original_bytes", "stored_bytes", "target_ratio",
            "achieved_ratio", "closed_loop",
        ):
            value = info[key]
            if isinstance(value, float):
                value = f"{value:.3f}"
            print(f"{key:<16} {value}")
        print(
            f"{'error_bound':<16} [{info['error_bound_min']:.6g}, {info['error_bound_max']:.6g}]"
        )
        print(
            f"{'chunk_ratio':<16} [{info['chunk_ratio_min']:.3f}, {info['chunk_ratio_max']:.3f}]"
        )
        if args.chunks:
            print(f"{'coords':<14} {'offset':>10} {'nbytes':>9} {'error_bound':>13} "
                  f"{'target':>8} {'achieved':>9}")
            for entry in st.manifest["chunks"]:
                print(
                    f"{str(tuple(entry['coords'])):<14} {entry['offset']:>10} "
                    f"{entry['nbytes']:>9} {entry['error_bound']:>13.6g} "
                    f"{entry['target_ratio']:>8.2f} {entry['achieved_ratio']:>9.2f}"
                )
    return 0


def cmd_store_unpack(args) -> int:
    from repro.store import Store, open_raw

    with Store(args.store) as st:
        data = st.read()  # verifies every chunk checksum on the way
        print(
            f"unpacked {st.path.name}: shape {st.shape}, dtype {st.dtype}, "
            f"{st.n_chunks} chunks, achieved ratio {st.achieved_ratio:.2f}"
        )
        if args.out:
            from repro.data.fields import Field
            from repro.data.io import save_raw

            out = save_raw(Field("store", "unpacked", data), args.out)
            print(f"raw field written to {out}")
        if args.verify_against:
            try:
                original = open_raw(args.verify_against, st.shape, st.dtype)
            except (OSError, ValueError) as exc:
                print(f"store-unpack: cannot verify against the original: {exc}",
                      file=sys.stderr)
                return 2
            for entry in st.manifest["chunks"]:
                chunk = st.grid.chunk_at(tuple(entry["coords"]))
                got = data[chunk.slices]
                err = np.abs(got.astype(np.float64) - original[chunk.slices].astype(np.float64))
                # The read-back contract (docs/ARCHITECTURE.md): the codec
                # holds the bound in float64, then the store rounds to the
                # field's dtype, which may add half an ulp of the element.
                slack = 0.0
                if st.dtype != np.float64:
                    slack = 0.5 * np.spacing(np.abs(got)).astype(np.float64)
                over = err > float(entry["error_bound"]) * (1.0 + 1e-9) + slack
                if over.any():
                    print(
                        f"FAIL: chunk {tuple(entry['coords'])} error {err[over].max():.6g} "
                        f"exceeds bound {entry['error_bound']:.6g}"
                    )
                    return 1
            print("round-trip error within every chunk's recorded bound")
    return 0


def cmd_trace_summary(args) -> int:
    try:
        payload = obs.load_trace(args.trace_file)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read trace {args.trace_file!r}: {exc}", file=sys.stderr)
        return 2
    print(obs.format_summary(payload["spans"]))
    return 0


def cmd_bench(args) -> int:
    from repro.bench import experiments, experiments_model
    from repro.bench.harness import get_scale

    registry = {}
    for mod in (experiments, experiments_model):
        for name in dir(mod):
            if name.startswith(("fig", "tab", "ablation")):
                registry[name] = getattr(mod, name)
    if args.experiment not in registry:
        print(f"unknown experiment {args.experiment!r}; available:", file=sys.stderr)
        for name in sorted(registry):
            print(f"  {name}", file=sys.stderr)
        return 2
    print(registry[args.experiment](get_scale()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CAROL ratio-controlled compression (ICPP'24 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list synthetic datasets").set_defaults(func=cmd_datasets)

    p = sub.add_parser("estimate", help="print a ratio-vs-error-bound curve")
    _add_common_field_args(p)
    p.add_argument("--compressor", choices=available_compressors(), default="sz3")
    p.add_argument("--mode", choices=("full", "secre", "calibrated"), default="calibrated")
    p.add_argument("--eb-min", type=float, default=1e-3)
    p.add_argument("--eb-max", type=float, default=1e-1)
    p.add_argument("-n", type=int, default=10, help="grid size")
    p.add_argument("--calibration-points", type=int, default=4)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("train", help="fit a framework and save it")
    p.add_argument("--config", default=None,
                   help="JSON FrameworkConfig; overrides the flags below")
    p.add_argument("--framework", choices=("carol", "fxrz"), default="carol")
    p.add_argument("--compressor", choices=available_compressors(), default="sz3")
    p.add_argument("--datasets", nargs="+", default=["miranda"])
    p.add_argument("--shape", type=int, nargs="+", default=None)
    p.add_argument("--eb-min", type=float, default=1e-3)
    p.add_argument("--eb-max", type=float, default=1e-1)
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--iters", type=int, default=6)
    p.add_argument("--cv", type=int, default=3)
    p.add_argument("--out", required=True, help="output .npz model path")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict an error bound for a target ratio")
    p.add_argument("--model", required=True)
    p.add_argument("--ratio", type=float, required=True)
    _add_common_field_args(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compress", help="compress a field to a target ratio")
    p.add_argument("--model", required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--out", default=None, help="write the payload here")
    _add_common_field_args(p)
    _add_trace_arg(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("bench", help="run one paper experiment")
    p.add_argument("experiment", help="e.g. fig2_surrogate_curves, tab5_calibration")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_bench)

    # one owner per default: the options dataclasses, not this parser
    store, control = StoreOptions(), ControlOptions()
    p = sub.add_parser(
        "store-pack",
        help="pack a field into a chunked .rps store under a byte budget",
    )
    p.add_argument("source", help="raw file path (with --shape) or synthetic dataset/field")
    p.add_argument("--model", required=True, help="saved .npz framework")
    p.add_argument("--ratio", type=float, required=True, help="whole-store target ratio")
    p.add_argument("--out", required=True, help="output .rps path")
    p.add_argument("--shape", type=int, nargs="+", default=None,
                   help="grid shape (required for raw file sources)")
    p.add_argument("--dtype", default="float32", help="raw source dtype")
    p.add_argument("--seed", type=int, default=None, help="synthetic dataset seed")
    p.add_argument("--chunk", type=int, nargs="+", default=None, help="chunk shape")
    p.add_argument("--chunk-elements", type=int, default=store.chunk_elements,
                   help="target elements per chunk when --chunk is omitted")
    p.add_argument("--open-loop", action="store_true",
                   help="disable closed-loop budget redistribution")
    p.add_argument("--safety", type=float, default=0.0,
                   help="prediction bias toward overshooting each chunk's ratio")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes compressing each wave (0 = in-process)")
    p.add_argument("--wave-size", type=int, default=None,
                   help="chunks per closed-loop re-target wave "
                        f"(default: 1 without workers, {DEFAULT_WAVE_SIZE} with)")
    p.add_argument("--control", action="store_true",
                   help="enable the repro.control tier plane: low-confidence or "
                        "budget-drifting chunks escalate to warm FRaZ refinement")
    p.add_argument("--t2-std", type=float, default=control.t2_std,
                   help="model spread (log-eb std) at which a chunk escalates")
    p.add_argument("--t2-pressure", type=float, default=control.t2_pressure,
                   help="committed budget drift at which chunks escalate")
    p.add_argument("--risk-budget", type=int, default=control.risk_budget,
                   help="max escalations per pack (consumed in chunk order)")
    p.add_argument("--refine-compressions", type=int, default=control.refine_compressions,
                   help="probe cap per escalated chunk (a probe is a real "
                        "compression unless the codec sizes in closed form)")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_store_pack)

    p = sub.add_parser("store-info", help="print a store's manifest summary")
    p.add_argument("store", help=".rps path")
    p.add_argument("--chunks", action="store_true", help="also list every chunk")
    p.set_defaults(func=cmd_store_info)

    p = sub.add_parser(
        "store-unpack",
        help="decompress a .rps store (verifying checksums) back to a raw field",
    )
    p.add_argument("store", help=".rps path")
    p.add_argument("--out", default=None, help="write the raw binary field here")
    p.add_argument("--verify-against", default=None, metavar="RAW",
                   help="raw original; exit non-zero unless every element is "
                        "within its chunk's recorded error bound")
    _add_trace_arg(p)
    p.set_defaults(func=cmd_store_unpack)

    p = sub.add_parser("trace-summary",
                       help="print a per-stage table from a --trace JSON")
    p.add_argument("trace_file", help="path written by --trace")
    p.set_defaults(func=cmd_trace_summary)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return args.func(args)
    recorder = obs.enable()
    try:
        return args.func(args)
    finally:
        obs.disable()
        out = obs.export_trace(trace_path, recorder)
        print(f"trace written to {out}")


if __name__ == "__main__":
    raise SystemExit(main())
