"""``control-bench``: the control plane's paired ON/OFF proof artifact.

Three phases, mirroring ``codec-bench`` / ``read-bench`` / ``load-bench``:

1. **Neutrality gate** — the same field is packed with plain
   :class:`~repro.store.StoreOptions` and with ``control=None`` spelled
   out: the two ``.rps`` files must be byte-identical (having a control
   plane *available* must not change a single byte of uncontrolled
   packs).
2. **Determinism gate** — the controller-ON pack runs at several worker
   counts with a pinned ``wave_size``; every output must be
   byte-identical (control decisions happen at wave boundaries from
   committed state, and T2 refinement runs in-process, so worker count
   can never leak into the bytes).
3. **Paired scenarios** — each scenario packs ON and OFF with the same
   predictor and budget:

   - *fitted*: an in-distribution field. The model is trusted, nothing
     escalates, and the ON wall time should sit within a few percent of
     OFF (reported as ``wall_ratio``, best-of-``reps``).
   - *ood*: the same field scaled by ``ood_scale`` — every feature the
     model was trained on shifts, the forest cannot extrapolate, and the
     OFF pack misses its byte budget badly. The ON pack detects the miss
     (spread and drift triggers), escalates within its risk budget, and
     must land within 10% whole-store drift at a bounded cost — at most
     ``refine_compressions`` probes per escalated chunk, and never more
     real compressions than probes (fewer where the codec sizes a probe
     in closed form) — while reporting both counts.

The report is committed as ``BENCH_control.json`` at the repo root,
commit-stamped. ``--check`` (CI) keeps the neutrality, determinism,
rescue and cost gates on a tiny fixture, writes nothing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench.codec_bench import repo_commit
from repro.control.policy import ControlOptions
from repro.store.writer import StoreOptions, pack

SCHEMA = "repro.control-bench/v1"
REPORT_NAME = "BENCH_control.json"

_REPO_ROOT = Path(__file__).resolve().parents[3]

#: The whole-store drift an OOD rescue must stay within (the headline gate).
RESCUE_DRIFT = 0.10


def _pack_summary(report, wall_s: float) -> dict:
    worst = 0.0
    for c in report.chunks:
        worst = max(worst, abs(c.achieved_ratio - c.target_ratio) / c.target_ratio)
    return {
        "wall_s": float(wall_s),
        "achieved_ratio": float(report.achieved_ratio),
        "budget_drift": float(report.budget_drift),
        "stored_bytes": int(report.stored_bytes),
        "file_bytes": int(report.file_bytes),
        "n_chunks": int(report.n_chunks),
        "worst_chunk_drift": float(worst),
        "control": report.control.as_dict() if report.control else None,
    }


def _timed_pack(path, source, framework, ratio, options, reps: int = 1):
    """Pack ``reps`` times into ``path`` (overwriting); best-of wall time."""
    best, report = float("inf"), None
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        report = pack(path, source, framework, ratio, options=options)
        best = min(best, time.perf_counter() - t0)
    return report, best


def run_control_bench(
    framework,
    *,
    shape: tuple[int, ...] = (48, 32, 32),
    chunk: tuple[int, ...] = (8, 16, 16),
    ratio: float = 5.0,
    wave_size: int = 4,
    workers: tuple[int, ...] = (0, 2),
    ood_scale: float = 1e3,
    t2_std: float = 0.5,
    t2_pressure: float = 0.2,
    refine_compressions: int = 6,
    risk_budget: int | None = None,
    reps: int = 3,
    seed: int = 0,
    work_dir: str | Path | None = None,
) -> dict:
    """Run the full benchmark; returns the ``BENCH_control.json`` dict.

    ``report["ok"]`` is the combined gate verdict; the CLI exits nonzero
    when it is false. ``risk_budget=None`` sizes the budget to the chunk
    count, so an OOD pack may escalate every chunk.

    Fixture sizing matters for the rescue gate: the first wave carries no
    drift evidence yet (nothing committed), so its chunks land at the raw
    model prediction no matter how wrong. The field must be large enough —
    relative to ``wave_size`` — that a worst-case first wave leaves the
    remaining byte budget reachable within the compressor's ratio ceiling.
    ``t2_pressure`` separates "noisy but usable" from "broken": an
    in-distribution model misses by ~10–15% per chunk (escalating those
    would torch the fitted wall gate), an OOD one by ~100%.
    """
    import tempfile

    from repro.data import load_field

    field = load_field("miranda/pressure", shape=tuple(shape), seed=seed + 7)
    fitted_src = field.data
    ood_src = fitted_src * float(ood_scale)

    n_chunks = 1
    for dim, c in zip(shape, chunk):
        n_chunks *= -(-dim // c)
    if risk_budget is None:
        risk_budget = n_chunks
    control = ControlOptions(
        t2_std=float(t2_std),
        t2_pressure=float(t2_pressure),
        refine_compressions=int(refine_compressions),
        risk_budget=int(risk_budget),
    )

    def opts(control_opts, n_workers: int = 0) -> StoreOptions:
        return StoreOptions(
            chunk_shape=tuple(chunk),
            wave_size=int(wave_size),
            workers=int(n_workers),
            control=control_opts,
        )

    tmp = None
    if work_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="control-bench-")
        work_dir = tmp.name
    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)

    try:
        # 1. Neutrality: plain options vs explicit control=None, same bytes.
        plain_report, _ = _timed_pack(
            work / "plain.rps", fitted_src, framework, ratio,
            StoreOptions(chunk_shape=tuple(chunk), wave_size=int(wave_size)),
        )
        off_report, off_wall = _timed_pack(
            work / "fitted-off.rps", fitted_src, framework, ratio,
            opts(None), reps=reps,
        )
        neutral = (
            (work / "plain.rps").read_bytes()
            == (work / "fitted-off.rps").read_bytes()
        )

        # 2. Worker determinism of the controller-ON pack (OOD source: the
        # escalating path is the one worth proving, pinned wave_size).
        worker_bytes = {}
        for w in workers:
            p = work / f"ood-on-w{w}.rps"
            pack(p, ood_src, framework, ratio, options=opts(control, w))
            worker_bytes[int(w)] = p.read_bytes()
        reference = worker_bytes[int(workers[0])]
        deterministic = all(b == reference for b in worker_bytes.values())

        # 3a. Fitted scenario: ON must not slow a trusted model down.
        fitted_on_report, on_wall = _timed_pack(
            work / "fitted-on.rps", fitted_src, framework, ratio,
            opts(control), reps=reps,
        )
        wall_ratio = on_wall / off_wall if off_wall > 0 else float("inf")

        # 3b. OOD scenario: OFF drifts, ON must rescue within the budget.
        ood_off_report, ood_off_wall = _timed_pack(
            work / "ood-off.rps", ood_src, framework, ratio, opts(None)
        )
        ood_on_report, ood_on_wall = _timed_pack(
            work / "ood-on.rps", ood_src, framework, ratio, opts(control)
        )
    finally:
        if tmp is not None:
            tmp.cleanup()

    fitted = {
        "off": _pack_summary(off_report, off_wall),
        "on": _pack_summary(fitted_on_report, on_wall),
        "wall_ratio": float(wall_ratio),
    }
    ood = {
        "off": _pack_summary(ood_off_report, ood_off_wall),
        "on": _pack_summary(ood_on_report, ood_on_wall),
    }
    spent = ood_on_report.control
    gates = {
        "neutral": bool(neutral),
        "deterministic": bool(deterministic),
        "ood_rescued": bool(
            ood_on_report.budget_drift <= RESCUE_DRIFT
            and ood_on_report.budget_drift < ood_off_report.budget_drift
        ),
        "bounded_cost": bool(
            spent.compressions_spent
            <= spent.probes_spent
            <= spent.t2 * control.refine_compressions
        ),
    }
    return {
        "schema": SCHEMA,
        "commit": repo_commit(),
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "compressor": framework.compressor_name,
        "shape": list(shape),
        "chunk": list(chunk),
        "n_chunks": int(n_chunks),
        "target_ratio": float(ratio),
        "wave_size": int(wave_size),
        "workers": [int(w) for w in workers],
        "ood_scale": float(ood_scale),
        "reps": int(reps),
        "seed": int(seed),
        "control": control.to_kwargs(),
        "rescue_drift_gate": RESCUE_DRIFT,
        "fitted": fitted,
        "ood": ood,
        "gates": gates,
        "ok": all(gates.values()),
    }


def format_report(report: dict) -> str:
    """Human-readable summary: gates, then the paired scenario table."""
    lines = [
        f"control-bench: {report['compressor']} shape={tuple(report['shape'])} "
        f"chunk={tuple(report['chunk'])} target={report['target_ratio']:g} "
        f"wave={report['wave_size']} commit={report['commit'] or '?'}",
        "neutrality: " + (
            "control=None pack byte-identical to plain StoreOptions pack"
            if report["gates"]["neutral"] else "DIVERGED"
        ),
        "determinism: " + (
            f"controller-ON bytes identical across workers {report['workers']}"
            if report["gates"]["deterministic"] else "DIVERGED across worker counts"
        ),
        f"{'scenario':<10} {'mode':<4} {'wall s':>8} {'ratio':>8} {'drift':>7} "
        f"{'worst':>7} {'t0':>4} {'t1':>4} {'t2':>4} {'probes':>6} {'compr':>6}",
    ]
    for scenario in ("fitted", "ood"):
        for mode in ("off", "on"):
            row = report[scenario][mode]
            ctrl = row["control"] or {}
            lines.append(
                f"{scenario:<10} {mode:<4} {row['wall_s']:>8.3f} "
                f"{row['achieved_ratio']:>8.2f} {row['budget_drift']:>7.1%} "
                f"{row['worst_chunk_drift']:>7.1%} "
                f"{ctrl.get('t0', '-'):>4} {ctrl.get('t1', '-'):>4} "
                f"{ctrl.get('t2', '-'):>4} {ctrl.get('probes_spent', '-'):>6} "
                f"{ctrl.get('compressions_spent', '-'):>6}"
            )
    lines.append(
        f"fitted ON/OFF wall ratio: {report['fitted']['wall_ratio']:.3f}x"
    )
    on, off = report["ood"]["on"], report["ood"]["off"]
    verdict = "RESCUED" if report["gates"]["ood_rescued"] else "NOT RESCUED"
    ctrl = on["control"] or {}
    lines.append(
        f"ood rescue: drift {off['budget_drift']:.1%} (off) -> "
        f"{on['budget_drift']:.1%} (on, gate {report['rescue_drift_gate']:.0%}) "
        f"at {ctrl.get('probes_spent', 0)} refine probes / "
        f"{ctrl.get('compressions_spent', 0)} compressions, "
        f"{ctrl.get('unreachable', 0)} unreachable — {verdict}"
    )
    return "\n".join(lines)


def write_report(report: dict, path: str | Path | None = None) -> Path:
    """Write the report JSON (default: ``BENCH_control.json`` at repo root)."""
    out = Path(path) if path is not None else _REPO_ROOT / REPORT_NAME
    out.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return out


def load_report(path: str | Path | None = None) -> dict | None:
    """Read a previously committed report; None when absent or unreadable."""
    p = Path(path) if path is not None else _REPO_ROOT / REPORT_NAME
    try:
        report = json.loads(p.read_text())
    except (OSError, ValueError):
        return None
    return report if report.get("schema") == SCHEMA else None
