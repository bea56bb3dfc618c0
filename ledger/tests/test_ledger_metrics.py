"""Names, the percentile-floor rule, verdicts, and BENCHMARK.json parity."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ledger import metrics

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize(
    "n, expected",
    [(5, 50), (19, 50), (20, 50), (40, 75), (99, 75), (100, 90), (120, 90), (199, 90),
     (200, 95), (288, 95), (999, 95), (1000, 99), (2000, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = metrics.tail_percentile(n)
    assert p == expected
    if p > 50:
        assert n * (1 - p / 100) >= metrics.TAIL_FLOOR - 1e-9
    higher = [q for q in metrics.LADDER if q > p]
    assert all(n * (1 - q / 100) < metrics.TAIL_FLOOR for q in higher)


def test_names_and_units_fit_the_contract_charset():
    names = [m.name for m in metrics.END_TO_END] + [n for n, _, _ in metrics.per_layer()]
    names += list(metrics.WORKLOADS)
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    gated = [m.name for m in metrics.END_TO_END if m.gated]
    layer = [n for n, _, _ in metrics.per_layer()]
    assert len(set(gated + layer + list(metrics.WORKLOADS))) == len(gated) + len(layer) + 5
    units = [m.unit for m in metrics.END_TO_END] + [u for _, u, _ in metrics.per_layer()]
    assert all(UNIT.match(u) for u in units)
    assert all(m.better in ("lower", "higher") for m in metrics.END_TO_END)


def test_ten_end_to_end_metrics_and_the_gated_subset():
    assert len(metrics.END_TO_END) == 10
    gated = [m for m in metrics.END_TO_END if m.gated]
    assert "setup_s" in [m.name for m in gated]
    assert all(0 < m.bound <= 0.25 for m in gated)
    assert max(m.bound for m in gated) == metrics.E2E["setup_s"].bound
    # every ungated one is still reported, in the traced run
    layer = {n for n, _, _ in metrics.per_layer()}
    for m in metrics.END_TO_END:
        assert m.gated or m.name in layer or m.name == "failed_share"


def test_benchmark_json_matches_run_list():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = subprocess.run(
        [sys.executable, str(ROOT / "ledger" / "run.py"), "--list"],
        capture_output=True, text=True, check=True,
    ).stdout.split("\n")
    rows = [line.split() for line in listed if line]
    assert [w["name"] for w in bench["workloads"]] == [r[1] for r in rows if r[0] == "workload"]
    assert [
        [m["name"], m["unit"], m["better"], f"{m['bound']:g}"] for m in bench["end_to_end"]
    ] == [r[1:] for r in rows if r[0] == "end_to_end"]
    assert [[m["name"], m["unit"], m["better"]] for m in bench["per_layer"]] == [
        r[1:] for r in rows if r[0] == "per_layer"
    ]
    assert bench["run_seconds"] == metrics.RUN_SECONDS
    assert bench["paths"] == ["ledger"]
    assert bench["command"] == ["python3", "ledger/run.py"]
    assert sorted(bench) == ["command", "end_to_end", "paths", "per_layer", "run_seconds",
                             "workloads"]
    assert 2 <= len(bench["workloads"]) <= 8 and len(bench["per_layer"]) <= 128
    for w in bench["workloads"]:
        assert sorted(w) == ["name", "why"]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_verdicts():
    lat = metrics.EndToEnd("lat_ms", "ms", "lower", 0.10)
    assert metrics.verdict(lat, [10.0, 10.1, 10.2], [10.3, 10.4, 10.5]) == "within bound"
    assert metrics.verdict(lat, [10.0, 10.1, 10.2], [12.0, 12.1, 12.2]) == "worse"
    assert metrics.verdict(lat, [10.0, 10.1, 10.2], [8.0, 8.1, 8.2]) == "better"
    # spread wider than the bound: unresolved ...
    assert metrics.verdict(lat, [8.0, 10.0, 12.0, 14.0], [9.0, 10.0, 13.0, 15.0]) == "unresolved"
    # ... unless every run of b beats every run of a
    assert metrics.verdict(lat, [8.0, 10.0, 12.0, 14.0], [5.0, 6.0, 7.0, 7.5]) == "better"
    rate = metrics.EndToEnd("rate", "1/s", "higher", 0.10)
    assert metrics.verdict(rate, [100.0, 101.0, 102.0], [80.0, 81.0, 82.0]) == "worse"
    err = metrics.EndToEnd("err", "ratio", "lower", 0.002, absolute=True)
    assert metrics.verdict(err, [0.010, 0.010], [0.011, 0.011]) == "within bound"
    assert metrics.verdict(err, [0.010, 0.010], [0.020, 0.020]) == "worse"
    assert metrics.worse_by(rate, 100.0, 90.0) == pytest.approx(0.10)
