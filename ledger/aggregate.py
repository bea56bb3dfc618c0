"""From raw records to metrics — a separate step from running.

A run leaves per-op records, spans and counts (in memory, and under
``ledger/out/<run>/`` when asked); everything the ledger prints is
computed from those here, so a run directory can be re-aggregated
later with ``python ledger/aggregate.py ledger/out/<run>``.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from pathlib import Path

if __name__ == "__main__":  # run as a script: make the `ledger` package importable
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from ledger import trace
from ledger.metrics import (
    CALLS_ONLY,
    E2E,
    PACK,
    SERVE_LIMIT_MS,
    SPANS,
    per_layer,
    percentile,
    quartiles,
    tail_percentile,
    verdict,
)
from ledger.openloop import LATE_LIMIT_MS

#: Above this the trace does not explain where the time went.
UNACCOUNTED_LIMIT = 0.05


def _durations(ops: list[dict], kind: str, only_ok: bool = False) -> list[float]:
    return [o["end"] - o["start"] for o in ops if o["kind"] == kind and (o["ok"] or not only_ok)]


def _late_p99_ms(ops: list[dict]) -> float:
    """How late the open-loop generator ran at p99 (0 without one)."""
    late = [o["late"] for o in ops if o["kind"] == "request"]
    return 1e3 * percentile(late, 99) if late else 0.0


def _wall(ops: list[dict]) -> float:
    """The measured wall: the closed-loop ops' durations summed, or the
    bursts' drain times (segment A's wall is set by its fixed rate)."""
    return sum(_durations(ops, "op")) + sum(_durations(ops, "burst"))


def end_to_end(workload: str, raw: dict, ops: list[dict], failed_checks: int) -> dict:
    """Every end-to-end metric that applies to ``workload``, plus the
    attempted/failed counts and the percentile the tail was taken at."""
    timed = "request" if workload == "serve-open" else "op"
    # Open-loop requests come in sub-segments (see workloads.SEGMENTS):
    # percentiles are taken per sub-segment and the median one reported.
    groups: dict[int, list[float]] = {}
    for o in ops:
        if o["kind"] == timed and o["ok"]:
            groups.setdefault(o.get("segment", 0), []).append(o["end"] - o["start"])
    latencies = [x for group in groups.values() for x in group]
    n_timed = sum(o["kind"] == timed for o in ops) // max(len(groups), 1)
    tail = tail_percentile(n_timed)

    def latency_ms(p: float) -> float:
        return 1e3 * quartiles([percentile(group, p) for group in groups.values()])[1]

    attempted = sum(o["n"] for o in ops)
    failed = sum(o["failed"] for o in ops) + failed_checks
    if workload == "serve-open":
        rates = [(o["n"] - o["failed"]) / (o["end"] - o["start"])
                 for o in ops if o["kind"] == "burst"]
        ops_per_s = quartiles(rates)[1]
    else:
        ops_per_s = len(latencies) / _wall(ops)
    setups = [rep["total_s"] for rep in raw["setup"]["reps"]]
    out = {
        "setup_s": quartiles(setups)[1],
        "ops_per_s": ops_per_s,
        "op_p50_ms": latency_ms(50),
        "op_tail_ms": latency_ms(tail),
        "peak_rss_mb": raw["peak_rss_mb"],
        "failed_share": failed / attempted,
    }
    if workload == "read-scan":
        out["first_tile_ms"] = 1e3 * percentile(
            [o["first_tile"] for o in ops if o["ok"]], 50
        )
    if workload in PACK:
        errs = [o["ratio_err"] for o in ops if "ratio_err" in o]
        file_bytes = sum(o["file_bytes"] for o in ops if "file_bytes" in o)
        stored = sum(o["stored_bytes"] for o in ops if "stored_bytes" in o)
        out["ratio_err_p50"] = percentile(errs, 50)
        out["ratio_err_p90"] = percentile(errs, 90)
        out["container_overhead"] = (file_bytes - stored) / file_bytes
    return {"e2e": out, "attempted": attempted, "failed": failed, "tail_percentile": tail,
            "samples": n_timed, "segments": len(groups)}


def layers(raw: dict, traced: dict, spans: list, untraced_ops: list[dict]) -> dict:
    """Every per-layer metric from the traced pass: span calls and self
    times inside the timed phase, the counts, and the harness's own
    validity numbers. A layer the workload never enters reads 0."""
    ops = traced["ops"]
    first = min(o["start"] for o in ops)
    last = max(o["end"] for o in ops)
    # Keep the spans of the timed phase; a kept span's parent is kept too
    # (it contains its child), so re-indexing never leaves one dangling.
    keep = [i for i, s in enumerate(spans) if s.start >= first and s.end <= last]
    new_index = {old: new for new, old in enumerate(keep)}
    timed = [spans[i]._replace(parent=new_index.get(spans[i].parent, -1)) for i in keep]
    out = {name: 0.0 for name, _, _ in per_layer()}
    for name, (calls, self_s) in trace.self_times(timed).items():
        if name in SPANS:
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
    for name in CALLS_ONLY:
        out[f"{name}.calls"] = traced["calls"].get(name, 0)
    for name, value in traced["counts"].items():
        out[name] = value
    compress_calls = out["compressors.compress.sz3.calls"] + out["compressors.compress.szx.calls"]
    if compress_calls:
        out["control.useful_compress_share"] = out["store.writer.chunks"] / compress_calls

    reps = raw["setup"]["reps"]
    out["setup.import_s"] = raw["setup"]["import_s"]
    for part in ("synth_s", "fit_collection_s", "fit_training_s", "prepack_s"):
        out[f"setup.{part}"] = quartiles([rep[part] for rep in reps])[1]

    # Where the trace is blind: measured wall not under any root span.
    intervals = sorted(
        (o["start"], o["end"]) for o in ops if o["kind"] in ("op", "burst")
    )
    starts = [a for a, _ in intervals]
    covered = 0.0
    for s in timed:
        if s.parent < 0:
            i = bisect_right(starts, s.start) - 1
            if i >= 0 and s.start <= intervals[i][1]:
                covered += s.end - s.start
    wall = _wall(ops)
    out["ledger.unaccounted_share"] = (wall - covered) / wall
    out["ledger.trace_overhead"] = wall / _wall(untraced_ops) - 1.0

    out["ledger.generator.late_p99_ms"] = _late_p99_ms(ops)
    requests = [o for o in ops if o["kind"] == "request"]
    if requests:
        a0 = min(o["start"] for o in requests)
        a1 = max(o["end"] for o in requests)
        served = sum(
            (s.end - s.start) * s.size for s in timed
            if s.name == "serve.service.predict_batch" and a0 <= s.start <= a1
        )
        out["load.gateway.wait_share"] = 1.0 - served / sum(
            o["end"] - o["start"] for o in requests
        )
    return out


def summarise(raw: dict, spans: list | None = None) -> dict:
    """The result of one run: correctness, counts, end-to-end metrics
    from the untraced pass and — for a traced run — per-layer metrics
    (with the end-to-end metrics the driver cannot gate on among them)."""
    workload = raw["workload"]
    untraced = next(p for p in raw["passes"] if not p["traced"])
    result = end_to_end(workload, raw, untraced["ops"], untraced["failed_checks"])
    result.update(workload=workload, seed=raw["seed"], seconds=raw["seconds"],
                  trace=raw["trace"], flags=[])
    traced = next((p for p in raw["passes"] if p["traced"]), None)
    if traced is not None:
        checked = end_to_end(workload, raw, traced["ops"], traced["failed_checks"])
        result["attempted"] += checked["attempted"]
        result["failed"] += checked["failed"]
        result["layers"] = layers(raw, traced, spans or [], untraced["ops"])
        for name, value in result["e2e"].items():
            if name in result["layers"]:
                result["layers"][name] = value
        if result["layers"]["ledger.unaccounted_share"] > UNACCOUNTED_LIMIT:
            result["flags"].append("unaccounted")
    if any(_late_p99_ms(p["ops"]) > LATE_LIMIT_MS for p in raw["passes"]):
        result["flags"].append("invalid:generator_late")
    if workload == "serve-open" and result["e2e"]["op_tail_ms"] > SERVE_LIMIT_MS:
        result["flags"].append("over_limit")
    result["correct"] = result["failed"] == 0
    return result


def contract_line(result: dict) -> str:
    """The JSON object the driver reads from the last line of stdout."""
    if result["trace"]:
        units = {name: unit for name, unit, _ in per_layer()}
        values = result["layers"]
    else:
        units = {m.name: m.unit for m in E2E.values() if m.gated}
        values = result["e2e"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    })


# -- tables --------------------------------------------------------------------


def format_end_to_end(results: dict[str, dict]) -> str:
    """Every end-to-end metric by name and unit, per workload."""
    lines = []
    for workload, r in results.items():
        lines.append(
            f"{workload}  (seed {r['seed']}, "
            + (f"{r['segments']} x " if r["segments"] > 1 else "")
            + f"{r['samples']} timed samples, "
            f"tail = p{r['tail_percentile']:g}, {r['failed']} failed of {r['attempted']}"
            + (f", flags: {', '.join(r['flags'])}" if r["flags"] else "") + ")"
        )
        for name, value in r["e2e"].items():
            lines.append(f"    {name:<20}{value:>14.6g} {E2E[name].unit}")
    return "\n".join(lines)


def format_layers(results: dict[str, dict]) -> str:
    """The per-layer table of the traced pass: one column per workload,
    self time as seconds and as a share of that workload's traced wall."""
    names = [n for n, _, _ in per_layer()]
    workloads = list(results)
    head = f"{'metric':<36}" + "".join(f"{w:>16}" for w in workloads)
    lines = [head, "-" * len(head)]
    for name in names:
        row = [results[w]["layers"][name] for w in workloads]
        if not any(row):
            continue
        lines.append(f"{name:<36}" + "".join(f"{v:>16.6g}" for v in row))
    lines.append("")
    lines.append("self time as a share of all traced self time, by layer:")
    layer_names = list(dict.fromkeys(SPANS.values()))
    for layer in layer_names:
        row = []
        for w in workloads:
            values = results[w]["layers"]
            total = sum(values[f"{s}.self_s"] for s in SPANS if s not in CALLS_ONLY)
            mine = sum(values[f"{s}.self_s"] for s, lay in SPANS.items()
                       if lay == layer and s not in CALLS_ONLY)
            row.append(mine / total if total else 0.0)
        if any(row):
            lines.append(f"{layer:<36}" + "".join(f"{v:>15.1%} " for v in row))
    return "\n".join(lines)


def load_history(path) -> list[dict]:
    """History-format records: one JSON object per line, or a JSON list."""
    text = Path(path).read_text().strip()
    if text.startswith("["):
        return json.loads(text)
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def compare(a: list[dict], b: list[dict]) -> tuple[str, bool]:
    """Per (workload, metric): median and quartiles of runs ``a`` and
    ``b`` and the verdict on ``b``. Returns the table and whether any
    pair came out worse."""
    def fmt(values) -> str:
        return "/".join(f"{x:.5g}" for x in quartiles(values))

    lines = [f"{'workload':<14}{'metric':<20}{'A q1/med/q3':>36}{'B q1/med/q3':>36}  verdict"]
    any_worse = False
    workloads = [w for w in a[0]["workloads"] if all(w in r["workloads"] for r in a + b)]
    for w in workloads:
        for name in a[0]["workloads"][w]["e2e"]:
            va = [r["workloads"][w]["e2e"][name] for r in a]
            vb = [r["workloads"][w]["e2e"][name] for r in b]
            v = verdict(E2E[name], va, vb)
            any_worse |= v == "worse"
            lines.append(f"{w:<14}{name:<20}{fmt(va):>36}{fmt(vb):>36}  {v}")
    return "\n".join(lines), any_worse


def load_run(run_dir) -> dict[int, dict[str, dict]]:
    """Re-aggregate every raw record file under a run directory:
    trace flag -> workload -> result."""
    results: dict[int, dict[str, dict]] = {0: {}, 1: {}}
    for raw_path in sorted(Path(run_dir).glob("raw-*.json")):
        raw = json.loads(raw_path.read_text())
        spans_path = raw_path.with_name(raw_path.stem.replace("raw-", "spans-") + ".jsonl")
        spans = trace.load(spans_path) if spans_path.exists() else None
        results[raw["trace"]][raw["workload"]] = summarise(raw, spans)
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python ledger/aggregate.py ledger/out/<run>", file=sys.stderr)
        return 2
    results = load_run(argv[0])
    if results[0]:
        print(format_end_to_end(results[0]))
    if results[1]:
        print(format_layers(results[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
