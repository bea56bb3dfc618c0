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

from pathlib import Path

import numpy as np
import pytest

from repro.compressors.sperr import SPERRCompressor
from repro.compressors.sz3 import SZ3Compressor
from repro.compressors.szx import SZXCompressor
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


def _fixture_field() -> np.ndarray:
    """Deterministic smooth 3-D field for the whole-compressor payloads."""
    rng = np.random.default_rng(_SEED + 2)
    x = rng.standard_normal((20, 24, 28))
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
    return out


@pytest.fixture(scope="module")
def encoded() -> dict[str, bytes]:
    return _encode_all()


@pytest.mark.parametrize(
    "name",
    ["huffman.bin", "lz77.bin", "range.bin", *_COMPRESSORS],
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


def _write_golden() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, blob in _encode_all().items():
        (GOLDEN_DIR / name).write_bytes(blob)
        print(f"wrote {GOLDEN_DIR / name} ({len(blob)} bytes)")


if __name__ == "__main__":
    _write_golden()
