"""Byte-identity regression against a checked-in controlled ``.rps`` store.

``tests/test_encoding_golden.py`` pins each codec's payload; this pins
the whole write path above it — per-chunk prediction, the control
plane's tier decisions, every T2 search's choice of error bound, the
closed-loop budget, chunk framing and the manifest. The fixture is an
out-of-distribution szx pack, so most chunks escalate: a change to how
:class:`repro.core.fraz.FrazSearch` probes (or to anything else between
the field and the file) that moves one byte fails here.

The model is pinned next to the store (``control_szx_model.npz``) so the
bytes depend on prediction, not on re-running the training search; the
field is synthesized deterministically. Regenerate both after an
*intentional* format or policy change with::

    PYTHONPATH=src python -m tests.test_store_golden
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import CarolFramework, load_dataset, load_field
from repro.api import load, save
from repro.control import ControlOptions
from repro.store import Store, StoreOptions, pack

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
MODEL = GOLDEN_DIR / "control_szx_model.npz"
STORE = GOLDEN_DIR / "control_szx.rps"

_SHAPE = (24, 24, 26)
_CHUNK = (8, 12, 13)  # 1248 values: nine full szx blocks and a padded tail
_RATIO = 8.0
_OPTIONS = StoreOptions(
    chunk_shape=_CHUNK,
    wave_size=3,
    control=ControlOptions(
        t2_std=0.5, t2_pressure=0.2, refine_compressions=6, risk_budget=8
    ),
)


def _source() -> np.ndarray:
    """Ten times the amplitude the model was trained on: predictions
    miss by enough to escalate, each chunk by a different amount, so the
    eight searches differ in length and in where they settle."""
    return load_field("miranda/pressure", shape=_SHAPE, seed=5).data * 10.0


def _pack(path: Path):
    return pack(path, _source(), load(MODEL), _RATIO, options=_OPTIONS)


def test_controlled_szx_store_matches_golden(tmp_path):
    report = _pack(tmp_path / "control_szx.rps")
    assert (tmp_path / "control_szx.rps").read_bytes() == STORE.read_bytes()
    # The fixture is only a pin of the T2 path while it takes it: both
    # tiers present, the risk budget binding, one compression per chunk.
    stats = report.control
    assert stats.t1 >= 1 and stats.t2 == _OPTIONS.control.risk_budget
    assert stats.compressions_spent == stats.t2 < stats.probes_spent


def test_golden_store_reads_back_within_its_bounds():
    source = _source()
    with Store(STORE) as st:
        out = st.read()
        bounds = [float(e["error_bound"]) for e in st.manifest["chunks"]]
    assert out.shape == source.shape
    assert np.abs(out - source).max() <= max(bounds)


def _regenerate() -> None:
    fw = CarolFramework(
        compressor="szx", rel_error_bounds=np.geomspace(1e-3, 3e-1, 6), n_iter=4, cv=2
    )
    fw.fit(load_dataset("miranda", shape=_CHUNK))
    save(MODEL, fw)
    report = _pack(STORE)
    print(report.summary())
    print(f"wrote {MODEL.name} ({MODEL.stat().st_size} bytes), "
          f"{STORE.name} ({STORE.stat().st_size} bytes)")


if __name__ == "__main__":
    _regenerate()
