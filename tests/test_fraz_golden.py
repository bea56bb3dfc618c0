"""FRaZ's search pinned probe for probe against a checked-in table.

Every case replays one ``FrazSearch.compress_to_ratio`` call and must
give the committed probes exactly: each ``(eb, ratio)`` in order, the
``converged`` / ``reachable`` flags, the compressions spent, the error
bound returned and a digest of the payload kept. The cases cover szx (a
closed-form sizer: one real compression per search) and sz3 (every
probe compresses), cold and warm starts, warm guesses clipped to either
bracket end, targets below and above the codec's range, a warm start
that converges on its first probe, and a budget of one probe. A rewrite
of the search loop that moves one probe fails here. Regenerate, after an
*intentional* change to the search, with::

    PYTHONPATH=src python -m tests.test_fraz_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.fraz import FrazSearch
from repro.data import load_field

TABLE = Path(__file__).parent / "data" / "golden" / "fraz_probes.json"

#: ``(tolerance, max_iterations)`` per search configuration.
_SETTINGS = ((0.05, 12), (0.02, 14), (0.1, 6), (0.05, 1))
_TARGETS = (0.5, 4.0, 9.0, 1e7)
#: Warm starts as multiples of the field's value range; ``None`` is cold.
_GUESSES = (None, 1e-9, 1e-3, 3e-2, 10.0)


def _field() -> np.ndarray:
    return load_field("miranda/viscosity", shape=(10, 12, 14)).data


def _cases() -> list[dict]:
    """The search configurations the table pins (without their outcomes)."""
    data = _field()
    vrange = float(data.max() - data.min())
    cases = []
    for codec in ("szx", "sz3"):
        for tolerance, max_iterations in _SETTINGS:
            search = FrazSearch(codec, tolerance=tolerance, max_iterations=max_iterations)
            for target in _TARGETS:
                case = dict(codec=codec, tolerance=tolerance, max_iterations=max_iterations,
                            target=target)
                cases += [{**case, "initial_eb": None if g is None else g * vrange}
                          for g in _GUESSES]
                # seeded with the cold answer: a first probe that converges
                cold = search.compress_to_ratio(data, target)
                if cold.converged:
                    cases.append({**case, "initial_eb": cold.error_bound})
    return cases


def _replay(case: dict, data: np.ndarray) -> dict:
    """What the search does on ``case``: its probes, flags, cost and result."""
    search = FrazSearch(case["codec"], tolerance=case["tolerance"],
                        max_iterations=case["max_iterations"])
    out = search.compress_to_ratio(data, case["target"], initial_eb=case["initial_eb"])
    return {
        "history": [list(probe) for probe in out.history],
        "converged": out.converged,
        "reachable": out.reachable,
        "n_compressions": out.n_compressions,
        "error_bound": out.error_bound,
        "payload": hashlib.blake2b(out.result.payload, digest_size=8).hexdigest(),
    }


@pytest.fixture(scope="module")
def table() -> list[dict]:
    return json.loads(TABLE.read_text())


def test_table_covers_every_outcome(table):
    """Cold and warm, reachable and not, converged and not, and a warm
    start that converges on its first probe, for both codecs."""
    for codec in ("szx", "sz3"):
        rows = [row for row in table if row["codec"] == codec]
        assert any(row["initial_eb"] is None for row in rows)
        assert any(row["initial_eb"] is not None for row in rows)
        assert {row["reachable"] for row in rows} == {True, False}
        assert {row["converged"] for row in rows} == {True, False}
        assert any(row["converged"] and len(row["history"]) == 1 for row in rows)


@pytest.mark.parametrize("codec", ["szx", "sz3"])
def test_searches_match_the_table(table, codec):
    data = _field()
    keys = ("codec", "tolerance", "max_iterations", "target", "initial_eb")
    for row in table:
        if row["codec"] != codec:
            continue
        case = {key: row[key] for key in keys}
        got = _replay(case, data)
        want = {key: row[key] for key in got}
        assert got == want, case


def _write_table() -> None:
    data = _field()
    rows = [{**case, **_replay(case, data)} for case in _cases()]
    TABLE.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"wrote {TABLE} ({len(rows)} searches)")


if __name__ == "__main__":
    _write_table()
