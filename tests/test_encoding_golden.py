"""Byte-identity regression against checked-in golden encoded blobs.

The vectorized kernels in :mod:`repro.encoding` are contractually
byte-identical to the scalar references they replaced — and therefore to
every stream ever written by earlier versions of this repo. The fuzz tests
catch divergence between the *current* kernel and the *current* reference;
these golden blobs additionally pin the on-disk format across history: a
future "optimization" that changes the stream (even one both current
implementations agree on) fails here.

The fixtures are rebuilt deterministically from a hard-coded seed, so the
blobs never need to ship their inputs. Regenerate after an *intentional*
format change with::

    PYTHONPATH=src python -m tests.test_encoding_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.compressors.cuszp import CuSZpCompressor
from repro.compressors.sperr import SPERRCompressor
from repro.compressors.sz3 import SZ3Compressor
from repro.compressors.szx import SZXCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.huffman import HuffmanCodec
from repro.encoding.lz77 import lz77_compress, lz77_decompress
from repro.encoding.range_coder import RangeDecoder, RangeEncoder

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
_SEED = 20260805
_CENTER = 256  # SZ3-like symbol offset for the quantization-code fixture
_FIELD_EB = 1e-3

#: Whole-compressor golden payloads: the only byte pin the compressors
#: have — every stream already on disk (``.rps`` stores included) was
#: written in this format, so these fix the full payload layout (headers,
#: outlier sections, entropy streams) across history, one blob per
#: entropy variant of sz3.
_COMPRESSORS = {
    "sz3.bin": lambda: SZ3Compressor(),
    "sz3_range.bin": lambda: SZ3Compressor(entropy="range"),
    "szx.bin": lambda: SZXCompressor(),
    "sperr_whole.bin": lambda: SPERRCompressor(),
    "zfp.bin": lambda: ZFPCompressor(),
    "cuszp.bin": lambda: CuSZpCompressor(),
}

#: ZFP's fixed-rate stream: bits per value, and a blake2b-64 digest of
#: its reconstruction (a fixed-rate stream promises no error bound, so
#: the decoder is pinned by what it returns).
_FIXED_RATE = 12.0
_FIXED_RATE_RECON = "46d51ca276c8c043"

#: SECRE's estimated curves, pinned exactly: every registry estimator at
#: its defaults, plus the sampling strides ``ablation_sampling`` sweeps, on
#: the fixture field and on one large enough that no stride is clamped by
#: the samplers' minimum block count, each as float64 and as float32.
_CURVES = "secre_curves.json"
_SURROGATES = {
    **{name: (name, {}) for name in ("szx", "zfp", "sz3", "sperr", "cuszp")},
    **{f"szx/stride={s}": ("szx", {"stride": s}) for s in (16, 64, 128, 256)},
    **{f"sz3/stride={s}": ("sz3", {"stride": s}) for s in (3, 5, 8)},
}


def _fixture_symbols() -> np.ndarray:
    """Deterministic SZ3-like symbol stream: dominant center, normal tails."""
    rng = np.random.default_rng(_SEED)
    return _CENTER + np.clip(
        np.rint(rng.standard_normal(20000) * 4), -_CENTER, _CENTER
    ).astype(np.int64)


def _fixture_bytes() -> bytes:
    """Deterministic LZ77 input: repetitive text plus an incompressible tail."""
    rng = np.random.default_rng(_SEED + 1)
    text = rng.integers(32, 127, size=1500, dtype=np.uint8).tobytes()
    noise = rng.integers(0, 256, size=1024, dtype=np.uint8).tobytes()
    return text * 3 + noise


def _fixture_field(shape: tuple[int, ...] = (20, 24, 28), seed: int = _SEED + 2) -> np.ndarray:
    """Deterministic smooth 3-D field for the whole-compressor payloads."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    for axis in range(3):
        x = np.cumsum(x, axis=axis)
    return x / 12.0


def _encode_all() -> dict[str, bytes]:
    syms = _fixture_symbols()
    codec = HuffmanCodec.fit(syms)
    writer = BitWriter()
    codec.encode(syms, writer)
    freq = np.bincount(syms)
    field = _fixture_field()
    out = {
        "huffman.bin": writer.getvalue(),
        "lz77.bin": lz77_compress(_fixture_bytes()),
        "range.bin": RangeEncoder(freq).encode(syms),
    }
    for name, make in _COMPRESSORS.items():
        out[name] = make().compress(field, _FIELD_EB).payload
    out["zfp_fixed_rate.bin"] = (
        ZFPCompressor().compress_fixed_rate(field, _FIXED_RATE).payload
    )
    return out


def _estimate_all() -> dict[str, list[float]]:
    from repro.surrogate.registry import get_surrogate

    fields = {
        "fixture": _fixture_field(),
        "sweep": _fixture_field((64, 128, 128), _SEED + 3),
    }
    out = {}
    for field_name, field in fields.items():
        ebs = np.geomspace(1e-4, 1e-1, 7) * float(field.max() - field.min())
        for key, (name, kwargs) in _SURROGATES.items():
            for dtype in ("float64", "float32"):
                ratios, _ = get_surrogate(name, **kwargs).estimate_curve(
                    field.astype(dtype), ebs
                )
                out[f"{field_name}/{key}/{dtype}"] = [float(r) for r in ratios]
    return out


def _digest(arr: np.ndarray) -> str:
    return hashlib.blake2b(arr.tobytes(), digest_size=8).hexdigest()


@pytest.fixture(scope="module")
def encoded() -> dict[str, bytes]:
    return _encode_all()


@pytest.mark.parametrize(
    "name",
    ["huffman.bin", "lz77.bin", "range.bin", *_COMPRESSORS, "zfp_fixed_rate.bin"],
)
def test_encoded_stream_matches_golden(name: str, encoded: dict[str, bytes]) -> None:
    path = GOLDEN_DIR / name
    assert path.exists(), (
        f"golden blob {path} missing; regenerate with "
        f"PYTHONPATH=src python -m tests.test_encoding_golden"
    )
    assert encoded[name] == path.read_bytes(), (
        f"{name}: encoder output diverged bit-for-bit from the committed "
        f"golden stream — an intentional format change must regenerate the "
        f"blobs and say so in the commit"
    )


def test_golden_blobs_decode_to_fixture() -> None:
    syms = _fixture_symbols()
    codec = HuffmanCodec.fit(syms)
    freq = np.bincount(syms)

    huff = (GOLDEN_DIR / "huffman.bin").read_bytes()
    np.testing.assert_array_equal(
        codec.decode(BitReader(huff), syms.size), syms
    )
    lz = (GOLDEN_DIR / "lz77.bin").read_bytes()
    assert lz77_decompress(lz) == _fixture_bytes()
    rng_blob = (GOLDEN_DIR / "range.bin").read_bytes()
    np.testing.assert_array_equal(
        RangeDecoder(freq, rng_blob).decode(syms.size), syms
    )


@pytest.mark.parametrize("name", sorted(_COMPRESSORS))
def test_golden_compressor_payloads_decode_within_bound(name: str) -> None:
    """The committed whole-compressor streams still decode, and to the
    promised pointwise bound — format *and* semantics are pinned."""
    data = _fixture_field()
    comp = _COMPRESSORS[name]()
    result = comp.compress(data, _FIELD_EB)
    assert result.payload == (GOLDEN_DIR / name).read_bytes()
    out = comp.decompress(result)
    assert np.abs(out - data).max() <= _FIELD_EB * (1 + 1e-9)


def test_golden_fixed_rate_stream_decodes_to_pinned_field() -> None:
    codec = ZFPCompressor()
    result = codec.compress_fixed_rate(_fixture_field(), _FIXED_RATE)
    assert result.payload == (GOLDEN_DIR / "zfp_fixed_rate.bin").read_bytes()
    assert _digest(codec.decompress(result)) == _FIXED_RATE_RECON


def test_secre_curves_match_golden() -> None:
    """Every estimated curve equals the committed one float for float:
    the sampled-and-compressed estimators share the codecs' bytes, the
    tailored ones their arithmetic."""
    pinned = json.loads((GOLDEN_DIR / _CURVES).read_text())
    assert _estimate_all() == pinned


def _write_golden() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, blob in _encode_all().items():
        (GOLDEN_DIR / name).write_bytes(blob)
        print(f"wrote {GOLDEN_DIR / name} ({len(blob)} bytes)")
    (GOLDEN_DIR / _CURVES).write_text(json.dumps(_estimate_all(), indent=1) + "\n")
    print(f"wrote {GOLDEN_DIR / _CURVES}")


if __name__ == "__main__":
    _write_golden()
