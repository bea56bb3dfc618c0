"""Byte-identity regression against checked-in ``.rps`` stores.

``tests/test_encoding_golden.py`` pins each codec's payload; this pins
the whole write path above it — per-chunk prediction, the control
plane's tier decisions, every T2 search's choice of error bound, the
closed-loop budget, chunk framing and the manifest. Two fixtures:

- ``control_szx.rps`` — an out-of-distribution *controlled* szx pack, so
  most chunks escalate: a change to how :class:`repro.core.fraz.FrazSearch`
  probes (or to anything else between the field and the file) that moves
  one byte fails here;
- ``plain_sz3.rps`` — an *uncontrolled* sz3 pack (the paper's pure model
  path, one compression per chunk): chunks clipped by the field's edge on
  the last axis, each with its own Huffman codebook, some storing
  outliers. It pins sz3's predictor, quantizer and entropy stage at
  store-chunk scale, where set-up is not amortised.

Each model is pinned next to its store (``*_model.npz``) so the bytes
depend on prediction, not on re-running the training search; the fields
are synthesized deterministically. Regenerate after an *intentional*
format or policy change with::

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


SZ3_MODEL = GOLDEN_DIR / "plain_sz3_model.npz"
SZ3_STORE = GOLDEN_DIR / "plain_sz3.rps"

_SZ3_SHAPE = (16, 20, 22)
_SZ3_CHUNK = (8, 10, 8)  # the last axis splits 8 + 8 + 6: four clipped chunks
_SZ3_RATIO = 3.0
_SZ3_OPTIONS = StoreOptions(chunk_shape=_SZ3_CHUNK)


def _sz3_source() -> np.ndarray:
    """A smooth field with six impulses far outside its range: at the
    error bound a ratio of 3 asks for, an impulse's residual overflows
    the 16-bit quantization window and is stored as an outlier."""
    data = load_field("miranda/pressure", shape=_SZ3_SHAPE, seed=5).data.copy()
    rng = np.random.default_rng(7)
    data[tuple(rng.integers(0, s, size=6) for s in _SZ3_SHAPE)] += np.float32(1e4)
    return data


def _pack_sz3(path: Path):
    return pack(path, _sz3_source(), load(SZ3_MODEL), _SZ3_RATIO, options=_SZ3_OPTIONS)


def test_plain_sz3_store_matches_golden(tmp_path):
    report = _pack_sz3(tmp_path / "plain_sz3.rps")
    assert (tmp_path / "plain_sz3.rps").read_bytes() == SZ3_STORE.read_bytes()
    assert report.control is None
    # The fixture only pins what it says while it has it: clipped chunks,
    # and outliers in some chunks but not all.
    with Store(SZ3_STORE) as st:
        shapes = {tuple(c.shape) for c in st.grid}
        outliers = [int(e["meta"]["n_outliers"]) for e in st.manifest["chunks"]]
    assert shapes == {(8, 10, 8), (8, 10, 6)}
    assert 0 < sum(n > 0 for n in outliers) < len(outliers)


def test_golden_sz3_store_reads_back_within_its_bounds():
    source = _sz3_source()
    with Store(SZ3_STORE) as st:
        out = st.read()
        for chunk in st.grid:
            bound = float(st.chunk_entry(chunk.coords)["error_bound"])
            got, want = out[chunk.slices], source[chunk.slices]
            # The codec holds the bound in float64; the store's float32
            # round adds at most half an ulp of the largest value.
            slack = 0.5 * float(np.spacing(np.abs(got).max()))
            assert np.abs(got.astype(np.float64) - want).max() <= bound + slack


def _regenerate() -> None:
    for codec, bounds, chunk, model, store, do_pack in (
        ("szx", np.geomspace(1e-3, 3e-1, 6), _CHUNK, MODEL, STORE, _pack),
        ("sz3", np.geomspace(1e-7, 1e-1, 7), _SZ3_CHUNK, SZ3_MODEL, SZ3_STORE, _pack_sz3),
    ):
        fw = CarolFramework(compressor=codec, rel_error_bounds=bounds, n_iter=4, cv=2)
        fw.fit(load_dataset("miranda", shape=chunk))
        save(model, fw)
        report = do_pack(store)
        print(report.summary())
        print(f"wrote {model.name} ({model.stat().st_size} bytes), "
              f"{store.name} ({store.stat().st_size} bytes)")


if __name__ == "__main__":
    _regenerate()
