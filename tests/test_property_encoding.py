"""Property-based tests (hypothesis + seeded fuzz) for the encoding substrate.

The ``TestVectorizedMatchesReference`` class is the byte-identity fuzz
harness for the vectorized kernels: every stream shape that has bitten a
codec before (random, empty, all-equal, incompressible, long-code-heavy)
runs through both the production kernel and its frozen scalar oracle in
``tests/encoding_oracle.py``, and the encoded bytes and decoded symbols
must match exactly. Randomness comes from the shared ``property_rng``
fixture, so failures reproduce with ``REPRO_TEST_SEED=<seed>``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.sz3 import _C0, _C1, _predict
from repro.encoding.bitstream import BitReader, BitWriter, window_values
from repro.encoding.huffman import _HOPS, _TABLE_BITS, HuffmanCodec, huffman_code_lengths
from repro.encoding.lz77 import lz77_compress, lz77_decompress
from repro.encoding.range_coder import RangeDecoder, RangeEncoder
from tests import encoding_oracle as reference

_SETTINGS = dict(max_examples=60, deadline=None)


class TestBitstreamProperties:
    @given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 48)), max_size=40))
    @settings(**_SETTINGS)
    def test_any_sequence_round_trips(self, items):
        w, ref = BitWriter(), BitWriter()
        values = np.array([value for value, _ in items], dtype=np.uint64)
        w.write_varlen_uint_array(values, np.array([width for _, width in items], dtype=np.int64))
        for value, width in items:
            reference.write_bits_reference(ref, value & ((1 << width) - 1), width)
        assert w.getvalue() == ref.getvalue()
        r = BitReader(w.getvalue())
        for value, width in items:
            assert r.read_bits(width) == value & ((1 << width) - 1)

    @given(st.integers(1, 10**9))
    @settings(**_SETTINGS)
    def test_elias_gamma_total(self, value):
        w = BitWriter()
        w.write_elias_gamma(value)
        assert BitReader(w.getvalue()).read_elias_gamma() == value
        # gamma code length = 2*floor(log2 v) + 1
        assert w.bit_length == 2 * (value.bit_length() - 1) + 1

    @given(st.lists(st.booleans(), max_size=200))
    @settings(**_SETTINGS)
    def test_bit_array_round_trip(self, bits):
        w = BitWriter()
        w.write_bit_array(np.array(bits, dtype=bool))
        r = BitReader(w.getvalue())
        assert list(r.read_bit_array(len(bits))) == bits


class TestHuffmanProperties:
    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=500),
    )
    @settings(**_SETTINGS)
    def test_round_trip_any_stream(self, symbols):
        syms = np.array(symbols, dtype=np.int64)
        codec = HuffmanCodec.fit(syms)
        w = BitWriter()
        codec.encode(syms, w)
        out = codec.decode(BitReader(w.getvalue()), syms.size)
        np.testing.assert_array_equal(out, syms)

    @given(st.lists(st.integers(0, 5000), min_size=2, max_size=64))
    @settings(**_SETTINGS)
    def test_kraft_holds_for_any_frequencies(self, freqs):
        lengths = huffman_code_lengths(np.array(freqs, dtype=np.int64))
        used = lengths[lengths > 0]
        if used.size:
            assert (2.0 ** (-used.astype(float))).sum() <= 1.0 + 1e-12


class TestLZ77Properties:
    @given(st.binary(max_size=3000))
    @settings(**_SETTINGS)
    def test_round_trip_any_bytes(self, data):
        assert lz77_decompress(lz77_compress(data)) == data

    @given(st.binary(min_size=1, max_size=200), st.integers(2, 30))
    @settings(**_SETTINGS)
    def test_repeated_content_compresses(self, chunk, reps):
        data = chunk * reps
        blob = lz77_compress(data)
        if len(data) > 200:
            assert len(blob) < len(data)
        assert lz77_decompress(blob) == data


def _fuzz_streams(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Symbol streams covering every regime the kernels special-case."""
    center = 256
    skewed = center + np.clip(
        np.rint(rng.standard_normal(4000) * 3), -center, center
    ).astype(np.int64)
    return {
        "random": rng.integers(0, 40, size=3000).astype(np.int64),
        "empty": np.zeros(0, dtype=np.int64),
        "all_equal": np.full(500, 7, dtype=np.int64),
        "incompressible": rng.permutation(4096).astype(np.int64),
        "skewed": skewed,  # SZ3-like: one dominant symbol, geometric tails
        "tiny": rng.integers(0, 5, size=3).astype(np.int64),  # the walk is the reference
    }


class TestVectorizedMatchesReference:
    """Fuzz every codec against its frozen scalar oracle, byte for byte."""

    def test_huffman_streams_and_decodes_match(self, property_rng):
        for name, syms in _fuzz_streams(property_rng).items():
            codec = HuffmanCodec.fit(syms)
            w_new, w_ref = BitWriter(), BitWriter()
            codec.encode(syms, w_new)
            reference.huffman_encode_reference(codec, syms, w_ref)
            assert w_new.getvalue() == w_ref.getvalue(), name
            got = codec.decode(BitReader(w_new.getvalue()), syms.size)
            ref = reference.huffman_decode_reference(
                codec, BitReader(w_new.getvalue()), syms.size
            )
            np.testing.assert_array_equal(got, syms, err_msg=name)
            np.testing.assert_array_equal(ref, syms, err_msg=name)

    def test_huffman_long_codes_past_table_window(self, property_rng):
        # A Kraft-complete length set reaching past the decode-table window
        # forces the canonical long-code path on a bulk (table-path) stream.
        max_len = _TABLE_BITS + 4
        lengths = np.array(
            list(range(1, max_len)) + [max_len, max_len], dtype=np.int64
        )
        assert (2.0 ** -lengths.astype(float)).sum() == 1.0  # complete code
        codec = HuffmanCodec.from_lengths(lengths)
        # Bias the stream toward the deep symbols so long codes are common.
        weights = np.sqrt(np.arange(1, lengths.size + 1, dtype=np.float64))
        syms = property_rng.choice(
            lengths.size, size=2000, p=weights / weights.sum()
        ).astype(np.int64)
        w = BitWriter()
        codec.encode(syms, w)
        payload = w.getvalue()
        w_ref = BitWriter()
        reference.huffman_encode_reference(codec, syms, w_ref)
        assert payload == w_ref.getvalue()
        got = codec.decode(BitReader(payload), syms.size)
        ref = reference.huffman_decode_reference(codec, BitReader(payload), syms.size)
        np.testing.assert_array_equal(got, syms)
        np.testing.assert_array_equal(ref, syms)

    def test_lz77_streams_match(self, property_rng):
        streams = _fuzz_streams(property_rng)
        cases = {
            "random_bytes": property_rng.integers(
                0, 256, size=5000, dtype=np.uint8
            ).tobytes(),
            "empty": b"",
            "all_equal": b"\x07" * 4000,
            "repetitive": bytes(streams["random"] % 7) * 5,
            "skewed": streams["skewed"].astype(np.uint16).tobytes(),
        }
        for name, data in cases.items():
            blob = lz77_compress(data)
            assert blob == reference.lz77_compress_reference(data), name
            assert lz77_decompress(blob) == data, name

    def test_range_coder_streams_match(self, property_rng):
        for name, syms in _fuzz_streams(property_rng).items():
            freq = np.bincount(syms, minlength=max(int(syms.max(initial=0)) + 1, 2))
            if syms.size == 0:
                freq = np.ones(4, dtype=np.int64)
            payload = RangeEncoder(freq).encode(syms)
            ref_payload = reference.range_encode_reference(RangeEncoder(freq), syms)
            assert payload == ref_payload, name
            got = RangeDecoder(freq, payload).decode(syms.size)
            ref = reference.range_decode_reference(
                RangeDecoder(freq, payload), syms.size
            )
            np.testing.assert_array_equal(got, syms, err_msg=name)
            np.testing.assert_array_equal(ref, syms, err_msg=name)

    def test_sz3_lossless_composition_matches(self, property_rng):
        # The composed Huffman + LZ77 stage, as SZ3's lossless backend runs it.
        syms = _fuzz_streams(property_rng)["skewed"]
        codec = HuffmanCodec.fit(syms)
        w_new, w_ref = BitWriter(), BitWriter()
        codec.encode(syms, w_new)
        reference.huffman_encode_reference(codec, syms, w_ref)
        new_blob = lz77_compress(w_new.getvalue())
        ref_blob = reference.lz77_compress_reference(w_ref.getvalue())
        assert new_blob == ref_blob
        out = codec.decode(BitReader(lz77_decompress(new_blob)), syms.size)
        np.testing.assert_array_equal(out, syms)

    def test_bitstream_bulk_matches_scalar(self, property_rng):
        # Bulk uint-array writes must lay down exactly the bits the old
        # scalar write_bits laid down, at every misalignment.
        widths = property_rng.integers(1, 49, size=30)
        values = [
            property_rng.integers(0, 1 << int(w), size=17, dtype=np.uint64)
            for w in widths
        ]
        w_bulk, w_scalar = BitWriter(), BitWriter()
        for writer in (w_bulk, w_scalar):  # misalign both streams identically
            reference.write_bits_reference(writer, 1, 3)
        for w, vals in zip(widths, values):
            w_bulk.write_uint_array(vals, int(w))
            for v in vals.tolist():
                reference.write_bits_reference(w_scalar, int(v), int(w))
        assert w_bulk.getvalue() == w_scalar.getvalue()
        r = BitReader(w_bulk.getvalue())
        assert r.read_bits(3) == 1
        for w, vals in zip(widths, values):
            np.testing.assert_array_equal(r.read_uint_array(17, int(w)), vals)

    def test_invalid_stream_still_raises(self, property_rng):
        # Truncated payloads must fail loudly on the table path, like the
        # reference walk does — never return garbage.
        syms = property_rng.integers(0, 30, size=500).astype(np.int64)
        codec = HuffmanCodec.fit(syms)
        w = BitWriter()
        codec.encode(syms, w)
        payload = w.getvalue()
        truncated = payload[: max(1, len(payload) // 4)]
        with pytest.raises((EOFError, ValueError)):
            codec.decode(BitReader(truncated), syms.size)
        with pytest.raises((EOFError, ValueError)):
            reference.huffman_decode_reference(
                codec, BitReader(truncated), syms.size
            )


# -- the data-parallel Huffman decoder against its two oracles -----------------


def _decoder_alphabets(
    rng: np.random.Generator, n_long: int = 60_000
) -> dict[str, tuple[HuffmanCodec, np.ndarray]]:
    """(codec, probabilities) per regime the array decoder special-cases."""
    deep = np.array(list(range(1, _TABLE_BITS + 4)) + [_TABLE_BITS + 4] * 2, dtype=np.int64)
    assert (2.0 ** -deep.astype(float)).sum() == 1.0
    geometric = 0.7 ** np.arange(40)
    dominant = np.r_[0.93, np.full(30, 0.07 / 30)]  # ~1.4 bits/symbol, like a ratio-20 sz3 chunk
    out = {
        "uniform": (HuffmanCodec.from_frequencies(np.ones(37, dtype=np.int64)), np.ones(37)),
        "dominant": (HuffmanCodec.from_frequencies(np.rint(dominant * 1e6)), dominant),
        "geometric": (HuffmanCodec.from_frequencies(np.rint(geometric * 1e9) + 1), geometric),
        "single": (HuffmanCodec.from_frequencies(np.array([0, 0, 9, 0])), np.array([0, 0, 1.0, 0])),
        # codes of every length 1 .. 20: short and long ones interleave
        "deep": (HuffmanCodec.from_lengths(deep), np.sqrt(np.arange(1.0, deep.size + 1))),
        # every code 17 or 18 bits: nothing hits the table
        "long": (HuffmanCodec.from_lengths(rng.integers(17, 19, size=n_long)), np.ones(n_long)),
    }
    return {k: (codec, p / p.sum()) for k, (codec, p) in out.items()}


def _outcome(decode, codec, bits, start, count):
    """What a decoder does with a stream: the exception type it raises,
    or (symbols, where it left the reader)."""
    reader = BitReader(bits)
    reader.read_bit_array(start)
    try:
        return decode(codec, reader, count), reader.position
    except (EOFError, ValueError) as exc:
        return type(exc)


def _assert_same_outcome(got, want, where):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want, where
    else:
        np.testing.assert_array_equal(got[0], want[0], err_msg=str(where))
        assert got[1] == want[1], where


class TestHuffmanDecoderEquivalence:
    """``HuffmanCodec.decode`` == ``huffman_decode_reference`` (the
    decoder before the table path took every count: the per-bit walk up
    to 64 symbols, the hybrid table decoder past that) ==
    ``huffman_decode_walk``: same symbols, same cursor, same exception
    type."""

    @pytest.mark.parametrize("name", ["uniform", "dominant", "geometric", "single", "deep", "long"])
    def test_counts_and_offsets(self, property_rng, name):
        codec, p = _decoder_alphabets(property_rng)[name]
        total = 16_384
        syms = property_rng.choice(p.size, size=total, p=p).astype(np.int64)
        w = BitWriter()
        codec.encode(syms, w)
        ends = np.r_[0, np.cumsum(codec.lengths[syms])]  # where code i ends: ends[i + 1]
        hop = 1 << _HOPS
        for start in (0, 3, 13):
            # No byte padding: the reader holds the junk prefix and the codes.
            bits = np.concatenate((property_rng.integers(0, 2, size=start).astype(bool), w.bits()))
            for count in (0, 1, 8, 64, 65, 16 * hop - 1, 16 * hop, 16 * hop + 1, total, total + 1):
                got = _outcome(HuffmanCodec.decode, codec, bits, start, count)
                ref = _outcome(reference.huffman_decode_reference, codec, bits, start, count)
                _assert_same_outcome(got, ref, (name, start, count))
                if count > total:
                    assert got is EOFError
                    continue
                np.testing.assert_array_equal(got[0], syms[:count])
                assert got[1] == start + ends[count]  # exactly after the last code
                if count < 1000:  # the per-bit walk is slow
                    walk = _outcome(reference.huffman_decode_walk, codec, bits, start, count)
                    _assert_same_outcome(walk, got, (name, start, count, "walk"))

    @pytest.mark.parametrize("name", ["uniform", "dominant", "geometric", "single", "deep", "long"])
    def test_damaged_streams_fail_the_same_way(self, property_rng, name):
        # (the reference rebuilds a dict of all long codes on every call)
        codec, p = _decoder_alphabets(property_rng, n_long=1500)[name]
        count = 200
        syms = property_rng.choice(p.size, size=count, p=p).astype(np.int64)
        w = BitWriter()
        codec.encode(syms, w)
        payload = w.getvalue()
        flips = property_rng.integers(0, 8, size=len(payload))
        damaged = [payload[:cut] for cut in range(len(payload))]
        for pos in range(len(payload)):
            buf = bytearray(payload)
            buf[pos] ^= 1 << int(flips[pos])
            damaged.append(bytes(buf))
        seen = set()
        for i, blob in enumerate(damaged):
            bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8)).astype(bool)
            got = _outcome(HuffmanCodec.decode, codec, bits, 0, count)
            ref = _outcome(reference.huffman_decode_reference, codec, bits, 0, count)
            _assert_same_outcome(got, ref, (name, i))
            seen.add(got if isinstance(got, type) else "decoded")
        assert EOFError in seen  # every truncation is one
        if name in ("single", "long"):  # incomplete codes: a flip can leave no code at all
            assert ValueError in seen


    @pytest.mark.parametrize("name", ["uniform", "dominant", "geometric", "single", "deep"])
    def test_short_damaged_streams_fail_like_the_walk(self, property_rng, name):
        # Up to 64 symbols the decoder used to be the walk. On these
        # codebooks it fails where, and as, the table path does: every
        # window of a complete code names a symbol, and "single" has one
        # code of one bit. (On "long", an incomplete codebook of long
        # codes, they differ within 48 bits of the end: the walk calls an
        # unmatched window invalid after the longest code, the table path
        # only once 49 bits were there to look at.)
        codec, p = _decoder_alphabets(property_rng)[name]
        syms = property_rng.choice(p.size, size=64, p=p).astype(np.int64)
        w = BitWriter()
        codec.encode(syms, w)
        payload = w.getvalue()
        flips = property_rng.integers(0, 8, size=len(payload))
        for pos in range(len(payload)):
            buf = bytearray(payload)
            buf[pos] ^= 1 << int(flips[pos])
            for blob in (payload[:pos], bytes(buf)):
                bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8)).astype(bool)
                for count in (1, 8, 64):
                    got = _outcome(HuffmanCodec.decode, codec, bits, 0, count)
                    walk = _outcome(reference.huffman_decode_walk, codec, bits, 0, count)
                    _assert_same_outcome(got, walk, (name, pos, count))

    def test_unmatched_long_window_is_eof_until_49_bits_remain(self, property_rng):
        # A window no code of up to _MAX_CODE_LEN bits matches is "invalid"
        # only once that many bits (and one more) were there to look at.
        codec, p = _decoder_alphabets(property_rng, n_long=1500)["long"]
        syms = property_rng.choice(p.size, size=70).astype(np.int64)
        w = BitWriter()
        codec.encode(syms, w)
        for tail in range(44, 54):  # all-ones: past every canonical range
            bits = np.concatenate((w.bits(), np.ones(tail, dtype=bool)))
            got = _outcome(HuffmanCodec.decode, codec, bits, 0, syms.size + 1)
            ref = _outcome(reference.huffman_decode_reference, codec, bits, 0, syms.size + 1)
            assert got is ref is (ValueError if tail >= 49 else EOFError), tail


def _window_values_parent(bits: np.ndarray, width: int) -> np.ndarray:
    """``window_values`` as it was before the phase-shifted rewrite."""
    arr = np.asarray(bits).astype(bool, copy=False).ravel()
    nbits = arr.size
    packed = np.packbits(arr)
    buf = np.zeros(nbits // 8 + 3, dtype=np.uint32)
    buf[: packed.size] = packed
    fused = (buf[:-2] << np.uint32(16)) | (buf[1:-1] << np.uint32(8)) | buf[2:]
    p = np.arange(nbits + 1)
    down = (24 - width - (p & 7)).astype(np.uint32)
    return ((fused[p >> 3] >> down) & np.uint32((1 << width) - 1)).astype(np.int64)


def _predict_parent(sub: np.ndarray, h: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """sz3's ``_predict`` as it was before the strided-slice rewrite."""
    n = sub.shape[0]
    mids = np.arange(h, n, s)
    lm1 = sub[mids - h]
    r1 = mids + h
    has_r1 = r1 < n
    rp1 = sub[np.minimum(r1, n - 1)]
    l3 = mids - 3 * h
    has_l3 = l3 >= 0
    lm3 = sub[np.maximum(l3, 0)]
    r3 = mids + 3 * h
    has_r3 = r3 < n
    rp3 = sub[np.minimum(r3, n - 1)]

    bshape = (mids.size,) + (1,) * (sub.ndim - 1)
    full = (has_l3 & has_r1 & has_r3).reshape(bshape)
    linear_ok = has_r1.reshape(bshape)
    cubic = _C0 * lm3 + _C1 * lm1 + _C1 * rp1 + _C0 * rp3
    linear = 0.5 * (lm1 + rp1)
    return mids, np.where(full, cubic, np.where(linear_ok, linear, lm1))


class TestRewrittenKernelsMatchParentBodies:
    def test_window_values(self, property_rng):
        for nbits in range(41):
            bits = property_rng.integers(0, 2, size=nbits).astype(bool)
            # packed as a reader holds them, then junk after the stream:
            # set bits in the last byte's tail and a whole extra byte
            packed = np.packbits(np.concatenate((bits, np.ones(8 - nbits % 8, dtype=bool))))
            packed = np.append(packed, np.uint8(0xFF))
            for width in range(1, 17):
                got = window_values(packed, nbits, width)
                want = _window_values_parent(bits, width)
                assert got.shape == want.shape
                np.testing.assert_array_equal(got, want, err_msg=f"{nbits} bits, width {width}")

    def test_sz3_predict(self, property_rng):
        for n in (2, 3, 4, 5, 6, 7, 8, 9, 17, 33):
            for h in (1, 2, 4):
                if n <= h:
                    continue  # _pass_subgrid never hands such a pass over
                # a strided, transposed view, as _pass_subgrid produces
                sub = property_rng.standard_normal((3, n, 5)).transpose(1, 0, 2)[:, :, ::2]
                mids, want = _predict_parent(sub, h, 2 * h)
                got = _predict(sub, h, 2 * h)
                assert got.tobytes() == want.tobytes(), (n, h)
                assert sub[h :: 2 * h].tobytes() == sub[mids].tobytes()

    def test_huffman_code_lengths_equal_the_heap(self, property_rng):
        fib = [1, 1]
        while len(fib) < 40:
            fib.append(fib[-1] + fib[-2])
        cases = [np.array(fib), np.ones(1000, dtype=np.int64), np.array([3])]
        for _ in range(200):
            n = int(property_rng.integers(1, 80))
            cases.append(property_rng.integers(0, 5, size=n))  # ties everywhere
            cases.append(2 ** property_rng.integers(0, 12, size=n))
            cases.append(property_rng.geometric(0.01, size=n) * (property_rng.random(n) < 0.7))
        for freq in cases:
            np.testing.assert_array_equal(
                huffman_code_lengths(freq), reference.huffman_code_lengths_reference(freq)
            )
