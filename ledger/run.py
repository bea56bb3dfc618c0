"""The ledger's one command.

    python ledger/run.py [--seed N]              all five workloads: an untraced pass
                                                 (end-to-end metrics), then a traced pass
                                                 (per-layer table); appends to history.jsonl
    python ledger/run.py --workload NAME         the same for one workload
    python ledger/run.py --agree [K]             K untraced passes must agree within bounds
    python ledger/run.py --compare A.json B.json verdict per (workload, metric)
    python ledger/run.py --list                  every workload and metric name

    python ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run in this process, as the benchmark driver calls it; the last
        line of stdout is the JSON object BENCHMARK.json's contract asks for.

Each workload runs in a fresh process of its own. ``repro.obs`` stays
disabled throughout: its off-cost is what users pay.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# The script's own directory is sys.path[0]; swap it for the checkout root
# so `ledger` imports as a package (and ledger/trace.py never shadows the
# standard library's `trace`), then the program's sources.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from ledger import aggregate  # noqa: E402
from ledger.metrics import E2E, END_TO_END, RUN_SECONDS, WORKLOADS, per_layer, worse_by  # noqa: E402

OUT = ROOT / "ledger" / "out"
HISTORY = ROOT / "ledger" / "history.jsonl"
#: Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 3


# -- one run, in this process ----------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, traced: bool, out: Path | None) -> int:
    from ledger import trace, workloads  # imports the program: fails without src/

    import_s = time.perf_counter() - _T0
    spec = workloads.BY_NAME[workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    spans = None
    try:
        reps, state = [], None
        for _ in range(1 if traced else SETUP_REPS):
            state = None  # drop the previous set-up before building the next
            t0 = time.perf_counter()
            state = spec.setup(seed, workdir)
            reps.append({"total_s": time.perf_counter() - t0, **state["parts"]})

        def record(p, tracer=None) -> dict:
            return {"traced": tracer is not None, "ops": p.ops, "counts": p.counts,
                    "failed_checks": p.failed_checks,
                    "calls": dict(tracer.calls) if tracer else {}}

        passes = [record(spec.run_pass(state, seconds, trace.Tracer()))]
        if traced:
            # Same seeds, same op counts, fresh serving objects — now with
            # the wrappers installed. The untraced pass above is the wall
            # the tracing overhead is measured against.
            tracer = trace.Tracer()
            with trace.installed(tracer):
                passes.append(record(spec.run_pass(state, seconds, tracer), tracer))
            spans = tracer.spans()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Pool workers have been waited for by now, so their peak is known.
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    raw = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "op_bytes": spec.op_bytes, "why": spec.why,
        "setup": {"import_s": import_s, "reps": reps},
        "peak_rss_mb": rss_kib / 1024.0,
        "passes": passes,
    }
    result = aggregate.summarise(raw, spans)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        tag = f"{workload}-trace{int(traced)}"
        (out / f"raw-{tag}.json").write_text(json.dumps(raw, default=float))
        (out / f"result-{tag}.json").write_text(json.dumps(result, default=float))
        if spans is not None:
            trace.dump(spans, out / f"spans-{tag}.jsonl")
    print(aggregate.format_end_to_end({workload: result}))
    if traced:
        print(aggregate.format_layers({workload: result}))
        print("worker processes are not traced: serve.pool.*.self_s is the caller's wait")
    print(aggregate.contract_line(result))
    return 0 if result["correct"] else 1


# -- all workloads, each in a fresh process --------------------------------------


def _git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def fingerprint() -> dict:
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu or platform.processor(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def _child(workload: str, seed: int, seconds: float, traced: int, out: Path) -> dict:
    """Run one workload in a fresh process and read its result back."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced),
         "--out", str(out)],
        capture_output=True, text=True,
    )
    path = out / f"result-{workload}-trace{traced}.json"
    if not path.exists():
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: run failed with code {proc.returncode}")
    return json.loads(path.read_text())


def _bad(result: dict) -> bool:
    return not result["correct"] or any(f.startswith("invalid") for f in result["flags"])


def run_all(names: list[str], seed: int, seconds: float, agree: int | None) -> int:
    commit = _git("rev-parse", "--short", "HEAD") or "nogit"
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    out = OUT / f"{stamp}-{commit}"
    print(f"ledger: seed {seed} (feeds only the input generators), {seconds:g} s nominal per "
          f"workload, commit {commit}, raw records in {out.relative_to(ROOT)}")
    status = 0
    if agree is not None:
        runs = []
        for k in range(agree):
            runs.append({w: _child(w, seed, seconds, 0, out / f"agree{k}") for w in names})
            print(f"-- untraced pass {k + 1} of {agree}")
            print(aggregate.format_end_to_end(runs[-1]))
        for w in names:
            status |= any(_bad(run[w]) for run in runs)
            for name in runs[0][w]["e2e"]:
                values = [run[w]["e2e"][name] for run in runs]
                lower = E2E[name].better == "lower"
                best, worst = (min(values), max(values)) if lower else (max(values), min(values))
                gap = worse_by(E2E[name], best, worst)
                if gap > E2E[name].bound:
                    status = 1
                    print(f"DISAGREE {w} {name}: {values} differ by {gap:.4g} "
                          f"(bound {E2E[name].bound:g})")
        print("agree: every metric within its bound" if not status else "agree: FAILED")
        return status

    untraced = {w: _child(w, seed, seconds, 0, out) for w in names}
    print("-- end-to-end metrics (untraced pass)")
    print(aggregate.format_end_to_end(untraced))
    traced = {w: _child(w, seed, seconds, 1, out) for w in names}
    print("-- per-layer metrics (traced pass; worker processes are not traced, so "
          "serve.pool.*.self_s is the caller's wait)")
    print(aggregate.format_layers(traced))
    line = {
        "utc": stamp, "commit": commit, "dirty": bool(_git("status", "--porcelain")),
        "host": fingerprint(), "seed": seed, "seconds": seconds,
        "workloads": {
            w: {"e2e": untraced[w]["e2e"], "layers": traced[w]["layers"],
                "attempted": untraced[w]["attempted"], "failed": untraced[w]["failed"],
                "tail_percentile": untraced[w]["tail_percentile"],
                "flags": sorted(set(untraced[w]["flags"] + traced[w]["flags"]))}
            for w in names
        },
    }
    (out / "summary.json").write_text(json.dumps(line))
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(line) + "\n")
    for w in names:
        if _bad(untraced[w]) or _bad(traced[w]):
            status = 1
            print(f"FAILED {w}: {untraced[w]['failed'] + traced[w]['failed']} failed ops, "
                  f"flags {line['workloads'][w]['flags']}")
    return status


def list_names() -> None:
    for w in WORKLOADS:
        print(f"workload {w}")
    for m in END_TO_END:
        kind = "end_to_end" if m.gated else "end_to_end_ungated"
        print(f"{kind} {m.name} {m.unit} {m.better} {m.bound:g}")
    for name, unit, better in per_layer():
        print(f"per_layer {name} {unit} {better}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="feeds the input generators only (default 0)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="nominal measured time per workload; scales the fixed op counts")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="run one workload in this process, untraced (0) or traced (1)")
    ap.add_argument("--out", type=Path, help="directory for raw records (single-run mode)")
    ap.add_argument("--agree", type=int, nargs="?", const=2, metavar="K")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args(argv)
    if args.list:
        list_names()
        return 0
    if args.compare:
        table, any_worse = aggregate.compare(*(aggregate.load_history(p) for p in args.compare))
        print(table)
        return int(any_worse)
    if args.trace is not None:
        if args.workload is None:
            ap.error("--trace needs --workload")
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    names = [args.workload] if args.workload else list(WORKLOADS)
    return run_all(names, args.seed, args.seconds, args.agree)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
