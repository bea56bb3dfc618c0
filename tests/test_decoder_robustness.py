"""Decoder robustness: truncated/tampered streams fail loudly, never hang.

A production codec must raise a clean error on corrupt input rather than
return silently wrong data, hang in a decode loop, or crash the
interpreter. These tests exhaustively truncate and bit-flip real payloads
for every registered codec, and do the same to ``.rps`` chunk payloads
and container framing. Randomness (which bit to flip at each position)
comes from the shared ``property_rng``/``property_seed`` fixtures, so a
red run is reproducible via ``REPRO_TEST_SEED``.
"""

import dataclasses

import numpy as np
import pytest

from repro.compressors import available_compressors, get_compressor
from repro.encoding.bitstream import BitReader
from repro.store.format import (
    CorruptChunkError,
    StoreFormatError,
    chunk_checksum,
    json_safe,
    write_header,
    write_manifest,
)
from repro.store.reader import StoreReader

ALL = available_compressors()

#: What a decoder is allowed to raise on a corrupt stream. Anything else
#: (segfault, hang, silent success) fails the test.
CLEAN_ERRORS = (ValueError, EOFError, IndexError)


@pytest.fixture(scope="module")
def payloads(property_seed):
    rng = np.random.default_rng(property_seed)
    x = np.cumsum(np.cumsum(rng.standard_normal((24, 28)), 0), 1) / 10
    out = {}
    for name in ALL:
        codec = get_compressor(name)
        out[name] = (x, codec.compress(x, 1e-3))
    return out


class TestTruncation:
    @pytest.mark.parametrize("name", ALL)
    def test_truncated_payload_raises(self, payloads, name):
        x, res = payloads[name]
        codec = get_compressor(name)
        broken = dataclasses.replace(res, payload=res.payload[: len(res.payload) // 3])
        with pytest.raises(CLEAN_ERRORS):
            codec.decompress(broken)

    @pytest.mark.parametrize("name", ALL)
    def test_empty_payload_raises(self, payloads, name):
        x, res = payloads[name]
        codec = get_compressor(name)
        broken = dataclasses.replace(res, payload=b"")
        with pytest.raises(CLEAN_ERRORS):
            codec.decompress(broken)

    @pytest.mark.parametrize("name", ALL)
    def test_truncation_at_every_byte_boundary(self, payloads, name):
        """Cutting the stream after *any* prefix must raise cleanly.

        The payload integrity checksum makes this uniform across codecs:
        the mismatch is caught before the decoder ever runs.
        """
        x, res = payloads[name]
        codec = get_compressor(name)
        assert len(res.payload) > 0
        for cut in range(len(res.payload)):
            broken = dataclasses.replace(res, payload=res.payload[:cut])
            with pytest.raises(ValueError):
                codec.decompress(broken)

    @pytest.mark.parametrize("name", ALL)
    def test_single_bitflip_at_every_byte(self, payloads, name, property_rng):
        """One flipped bit anywhere in the stream must raise cleanly —
        never hang, crash, or silently reconstruct wrong data."""
        x, res = payloads[name]
        codec = get_compressor(name)
        bits = property_rng.integers(0, 8, size=len(res.payload))
        for pos in range(len(res.payload)):
            buf = bytearray(res.payload)
            buf[pos] ^= 1 << int(bits[pos])
            broken = dataclasses.replace(res, payload=bytes(buf))
            with pytest.raises(ValueError):
                codec.decompress(broken)


class TestMetadataTampering:
    @pytest.mark.parametrize("name", ALL)
    def test_wrong_shape_fails_or_reshapes(self, payloads, name):
        """Tampered shape must not return an array of the wrong size
        silently pretending to be valid for the original shape."""
        x, res = payloads[name]
        codec = get_compressor(name)
        meta = dict(res.metadata)
        meta["shape"] = (9999, 2)
        broken = dataclasses.replace(res, metadata=meta)
        try:
            out = codec.decompress(broken)
        except Exception:
            return  # raising is the preferred outcome
        assert out.shape != x.shape  # if it "works", it must not masquerade

    def test_wrong_codec_name_rejected(self, payloads):
        x, res = payloads["szx"]
        broken = dataclasses.replace(res, compressor="sperr")
        with pytest.raises(ValueError):
            get_compressor("szx").decompress(broken)

    @pytest.mark.parametrize("name", ALL)
    def test_tampered_integrity_stamp_rejected(self, payloads, name):
        x, res = payloads[name]
        meta = dict(res.metadata)
        meta["payload_check"] = "0" * 16
        broken = dataclasses.replace(res, metadata=meta)
        with pytest.raises(ValueError, match="integrity"):
            get_compressor(name).decompress(broken)


class TestDamagedSz3Codebook:
    """With the integrity stamp gone (``decode_chunk(..., verify=False)``
    strips it) the decoder itself must reject a codebook no encoder could
    have written — by name, not with a bare IndexError or wrong data."""

    @staticmethod
    def _tampered(res, edit):
        """``res`` with its stamp stripped and ``edit(bits, sym_at, len_at,
        n_present)`` applied to the header bits: the present symbols are
        17-bit fields from ``sym_at``, their code lengths 6-bit fields
        from ``len_at``."""
        head_len = int.from_bytes(res.payload[:8], "little")
        head = res.payload[8 : 8 + head_len]
        reader = BitReader(head)
        reader.read_uint_array(int(res.metadata["n_anchors"]), 64)
        reader.read_uint_array(int(res.metadata["n_outliers"]), 64)
        n_present = reader.read_elias_gamma() - 1
        assert n_present >= 3
        bits = np.unpackbits(np.frombuffer(head, dtype=np.uint8))
        edit(bits, reader.position, reader.position + 17 * n_present, n_present)
        meta = {k: v for k, v in res.metadata.items() if k != "payload_check"}
        payload = res.payload[:8] + np.packbits(bits).tobytes() + res.payload[8 + head_len :]
        return dataclasses.replace(res, payload=payload, metadata=meta)

    def _assert_rejected(self, payloads, edit):
        _, res = payloads["sz3"]
        codec = get_compressor("sz3")
        codec.decompress(self._tampered(res, lambda *a: None))  # the stamp is not what fails
        with pytest.raises(ValueError, match="(?i)huffman codebook"):
            codec.decompress(self._tampered(res, edit))

    def test_symbol_outside_alphabet(self, payloads):
        def edit(bits, sym_at, len_at, n_present):
            bits[sym_at : sym_at + 17] = 1  # symbol 131071 of 65537

        self._assert_rejected(payloads, edit)

    def test_code_length_past_maximum(self, payloads):
        def edit(bits, sym_at, len_at, n_present):
            bits[len_at : len_at + 6] = 1  # length 63 > 48

        self._assert_rejected(payloads, edit)

    def test_oversubscribed_lengths(self, payloads):
        def edit(bits, sym_at, len_at, n_present):
            fields = bits[len_at : len_at + 6 * n_present].reshape(n_present, 6)
            fields[:] = [0, 0, 0, 0, 0, 1]  # every code one bit long: Kraft sum > 1

        self._assert_rejected(payloads, edit)


class TestNegativeCounts:
    """A negative count in the metadata fails at the read it sizes, with
    a ``ValueError`` naming the count — not by accident further on (an
    empty codebook, a symbol outside the alphabet, numpy's "negative
    dimensions"), as when the reader accepted negative counts."""

    @pytest.mark.parametrize(
        "name, codec_args, field",
        [
            ("sz3", {}, "n_outliers"),
            ("sz3", {}, "n_anchors"),
            ("sz3", {}, "n_codes"),
            ("sz3", {"predictor": "lorenzo"}, "n_outliers"),
            ("sz3", {"predictor": "lorenzo"}, "n_codes"),
            ("sz3", {"entropy": "range"}, "n_codes"),
            ("szx", {}, "nblocks"),
        ],
    )
    @pytest.mark.parametrize("value", [-1, -7])
    def test_negative_count_is_named(self, payloads, name, codec_args, field, value):
        x, _ = payloads[name]
        codec = get_compressor(name, **codec_args)
        res = codec.compress(x, 1e-3)
        codec.decompress(res)  # the untampered stream decodes
        broken = dataclasses.replace(res, metadata={**res.metadata, field: value})
        with pytest.raises(ValueError, match=f"non-negative, got {value}$"):
            codec.decompress(broken)


class TestDeterminism:
    @pytest.mark.parametrize("name", ALL)
    def test_compression_is_deterministic(self, payloads, name):
        """Same input + same error bound -> byte-identical payload."""
        x, res = payloads[name]
        codec = get_compressor(name)
        again = codec.compress(x, 1e-3)
        assert again.payload == res.payload

    @pytest.mark.parametrize("name", ALL)
    def test_decompression_is_deterministic(self, payloads, name):
        x, res = payloads[name]
        codec = get_compressor(name)
        a = codec.decompress(res)
        b = codec.decompress(res)
        np.testing.assert_array_equal(a, b)


# -- .rps container corruption ---------------------------------------------------


@pytest.fixture(scope="module")
def packed_store(tmp_path_factory, property_seed):
    """A tiny hand-assembled ``.rps`` file with real compressed payloads.

    Built straight from the format helpers (no fitted model needed):
    two szx chunks over an (8, 8) field. Returns the path plus the byte
    span of each chunk payload so corruption can target them precisely.
    """
    rng = np.random.default_rng(property_seed)
    field = np.cumsum(rng.standard_normal((8, 8)), axis=0)
    chunk_shape = (4, 8)
    codec = get_compressor("szx")
    path = tmp_path_factory.mktemp("robust") / "field.rps"
    entries, payload_blobs = [], []
    with open(path, "wb") as fh:
        offset = write_header(fh)
        for i, row in enumerate(range(0, 8, 4)):
            data = np.ascontiguousarray(field[row : row + 4])
            res = codec.compress(data, 1e-2)
            fh.write(res.payload)
            entries.append(
                {
                    "coords": [i, 0],
                    "offset": offset,
                    "nbytes": len(res.payload),
                    "error_bound": 1e-2,
                    "target_ratio": 4.0,
                    "achieved_ratio": float(res.ratio),
                    "raw_bytes": int(data.nbytes),
                    "checksum": chunk_checksum(res.payload),
                    "meta": json_safe(res.metadata),
                }
            )
            payload_blobs.append((offset, len(res.payload)))
            offset += len(res.payload)
        write_manifest(
            fh,
            {
                "version": 1,
                "compressor": "szx",
                "shape": [8, 8],
                "dtype": "float64",
                "chunk_shape": list(chunk_shape),
                "target_ratio": 4.0,
                "original_bytes": int(field.nbytes),
                "stored_bytes": sum(n for _, n in payload_blobs),
                "chunks": entries,
            },
        )
    return path, payload_blobs, field


class TestStoreCorruption:
    def test_pristine_store_reads(self, packed_store):
        path, _, field = packed_store
        with StoreReader(path) as reader:
            np.testing.assert_allclose(reader.read(), field, atol=1e-2)

    def test_bitflip_every_payload_byte_raises(
        self, packed_store, tmp_path, property_rng
    ):
        """Flipping any bit inside a chunk payload must surface as a
        clean CorruptChunkError from read_chunk — never bad data."""
        path, payload_blobs, _ = packed_store
        blob = path.read_bytes()
        offset, nbytes = payload_blobs[0]
        bits = property_rng.integers(0, 8, size=nbytes)
        bad = tmp_path / "flipped.rps"
        for pos in range(offset, offset + nbytes):
            buf = bytearray(blob)
            buf[pos] ^= 1 << int(bits[pos - offset])
            bad.write_bytes(bytes(buf))
            with StoreReader(bad) as reader:
                with pytest.raises(CorruptChunkError):
                    reader.read_chunk((0, 0))
                # the other chunk stays readable: corruption is contained
                reader.read_chunk((1, 0))

    def test_truncation_at_every_byte_boundary_raises(self, packed_store, tmp_path):
        """A ``.rps`` file cut after any prefix must be rejected at open
        with a StoreFormatError (the manifest/footer can't be recovered)."""
        path, _, _ = packed_store
        blob = path.read_bytes()
        bad = tmp_path / "cut.rps"
        for cut in range(len(blob)):
            bad.write_bytes(blob[:cut])
            with pytest.raises(StoreFormatError):
                StoreReader(bad)

    def test_verify_false_still_fails_closed_on_truncated_payload(
        self, packed_store, tmp_path
    ):
        """verify=False skips checksums but a payload running past EOF is
        still a hard CorruptChunkError, not a short silent read."""
        path, payload_blobs, _ = packed_store
        offset, nbytes = payload_blobs[-1]
        blob = path.read_bytes()
        # keep framing valid but lie about the last payload's length
        bad = tmp_path / "lying.rps"
        bad.write_bytes(blob)
        with StoreReader(bad, verify=False) as reader:
            entry = reader.chunk_entry((1, 0))
            entry["nbytes"] = len(blob) + 1024  # points past EOF
            with pytest.raises(CorruptChunkError, match="truncated"):
                reader.read_chunk((1, 0))
