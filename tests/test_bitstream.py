"""Unit tests for the MSB-first bitstream writer/reader."""

import numpy as np
import pytest

from repro.encoding.bitstream import BitReader, BitWriter, pack_uint_array


class TestBitWriter:
    def test_empty_stream(self):
        w = BitWriter()
        assert w.bit_length == 0
        assert w.byte_length == 0
        assert w.getvalue() == b""

    def test_single_bits(self):
        w = BitWriter()
        for b in (1, 0, 1, 1, 0, 0, 0, 1):
            w.write_bit(b)
        assert w.bit_length == 8
        assert w.getvalue() == bytes([0b10110001])

    def test_write_bits_msb_first(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(0b01111, 5)
        assert w.getvalue() == bytes([0b10101111])

    def test_write_bits_zero_width(self):
        w = BitWriter()
        w.write_bits(123, 0)
        assert w.bit_length == 0

    def test_write_bits_rejects_negative(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(-1, 4)
        with pytest.raises(ValueError):
            w.write_bits(1, -2)

    def test_byte_padding(self):
        w = BitWriter()
        w.write_bits(0b1, 1)
        assert w.byte_length == 1
        assert w.getvalue() == bytes([0b10000000])

    def test_write_uint_array(self):
        w = BitWriter()
        w.write_uint_array(np.array([1, 2, 3], dtype=np.uint64), 4)
        r = BitReader(w.getvalue())
        assert list(r.read_uint_array(3, 4)) == [1, 2, 3]

    def test_write_bit_array_accepts_nonbool(self):
        w = BitWriter()
        w.write_bit_array(np.array([0, 2, 0, 5]))  # nonzero -> 1
        r = BitReader(w.getvalue())
        assert list(r.read_bit_array(4)) == [False, True, False, True]

    def test_large_values_64bit(self):
        w = BitWriter()
        big = (1 << 63) + 12345
        w.write_bits(big, 64)
        r = BitReader(w.getvalue())
        assert r.read_bits(64) == big


class TestPackedRuns:
    """The compressors' fast path: :func:`pack_uint_array` /
    :meth:`BitWriter.write_packed` must be bit-identical to the
    :meth:`BitWriter.write_uint_array` they bypass — byte identity of
    whole compressor streams rests on it."""

    @pytest.mark.parametrize("nbits", [1, 7, 8, 13, 17, 32, 41, 64])
    def test_pack_matches_write_uint_array(self, rng, nbits):
        vals = rng.integers(0, 1 << min(nbits, 62), size=200, dtype=np.uint64)
        vals[0] = 0
        vals[-1] = np.uint64((1 << nbits) - 1)  # all-ones field
        ref, fast = BitWriter(), BitWriter()
        ref.write_uint_array(vals, nbits)
        fast.write_packed(pack_uint_array(vals, nbits))
        assert fast.bit_length == ref.bit_length == nbits * vals.size
        assert fast.getvalue() == ref.getvalue()

    def test_pack_at_unaligned_offset(self, rng):
        vals = rng.integers(0, 1 << 11, size=50, dtype=np.uint64)
        for prefix in range(1, 8):
            ref, fast = BitWriter(), BitWriter()
            for w in (ref, fast):
                w.write_bits(1, prefix)
            ref.write_uint_array(vals, 11)
            fast.write_packed(pack_uint_array(vals, 11))
            assert fast.getvalue() == ref.getvalue()

    def test_pack_empty_and_zero_width(self):
        assert pack_uint_array(np.zeros(0, dtype=np.uint64), 13).nbits == 0
        assert pack_uint_array(np.arange(4, dtype=np.uint64), 0).nbits == 0
        w = BitWriter()
        w.write_packed(pack_uint_array(np.zeros(0, dtype=np.uint64), 13))
        assert w.getvalue() == b""

    def test_pack_rejects_oversized_width(self):
        with pytest.raises(ValueError, match="nbits"):
            pack_uint_array(np.arange(4, dtype=np.uint64), 65)


class TestVarlenArray:
    """:meth:`BitWriter.write_varlen_uint_array` packs words; it must lay
    down the bits ``write_bits`` lays down one value at a time."""

    @pytest.mark.parametrize("max_width", [1, 7, 20, 48, 64])
    def test_matches_write_bits(self, rng, max_width):
        widths = rng.integers(0, max_width + 1, size=300)
        widths[:3] = (max_width, 0, max_width)
        vals = rng.integers(0, 1 << 63, size=300, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
        for prefix in (0, 5):
            ref, fast = BitWriter(), BitWriter()
            for w in (ref, fast):
                w.write_bits(1, prefix)
            for v, n in zip(vals.tolist(), widths.tolist()):
                ref.write_bits(v & ((1 << n) - 1), n)  # only the low bits count
            fast.write_varlen_uint_array(vals, widths)
            assert fast.bit_length == ref.bit_length == prefix + widths.sum()
            assert fast.getvalue() == ref.getvalue()
            np.testing.assert_array_equal(fast.bits(), ref.bits())

    def test_empty_and_rejected_input(self):
        w = BitWriter()
        w.write_varlen_uint_array(np.arange(3, dtype=np.uint64), np.zeros(3, dtype=int))
        w.write_varlen_uint_array(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=int))
        assert w.bit_length == 0 and w.getvalue() == b""
        with pytest.raises(ValueError):
            w.write_varlen_uint_array(np.arange(3, dtype=np.uint64), np.array([1, 2]))
        with pytest.raises(ValueError):
            w.write_varlen_uint_array(np.arange(2, dtype=np.uint64), np.array([1, -1]))
        with pytest.raises(ValueError):
            w.write_varlen_uint_array(np.arange(2, dtype=np.uint64), np.array([1, 65]))


class TestBitReader:
    def test_round_trip_mixed(self, rng):
        w = BitWriter()
        values = rng.integers(0, 2**20, 50)
        for v in values:
            w.write_bits(int(v), 21)
        w.write_unary(7)
        w.write_elias_gamma(123456)
        r = BitReader(w.getvalue())
        for v in values:
            assert r.read_bits(21) == v
        assert r.read_unary() == 7
        assert r.read_elias_gamma() == 123456

    def test_reader_from_bit_array(self):
        r = BitReader(np.array([True, False, True, True]))
        assert r.read_bits(4) == 0b1011

    def test_exhaustion_raises(self):
        r = BitReader(bytes([0xFF]))
        r.read_bits(8)
        with pytest.raises(EOFError):
            r.read_bit()

    def test_unterminated_unary_raises(self):
        w = BitWriter()
        w.write_bit_array(np.zeros(5, dtype=bool))
        r = BitReader(w.bits())
        with pytest.raises(EOFError):
            r.read_unary()

    def test_position_and_remaining(self):
        w = BitWriter()
        w.write_bits(0b1010, 4)
        r = BitReader(w.getvalue())
        assert r.remaining == 8  # byte-padded
        r.read_bits(3)
        assert r.position == 3
        assert r.remaining == 5

    def test_read_uint_array_empty(self):
        r = BitReader(b"")
        assert r.read_uint_array(0, 8).size == 0
        assert r.read_uint_array(5, 0).size == 5

    @pytest.mark.parametrize(
        "read, named",
        [
            (lambda r: r.read_bits(65), "65"),
            (lambda r: r.read_bits(70), "70"),
            (lambda r: r.read_bits(-1), "-1"),
            (lambda r: r.read_uint_array(1, 70), "70"),
            (lambda r: r.read_uint_array(0, 65), "65"),
            (lambda r: r.read_uint_array(-1, 4), "-1"),
            (lambda r: r.read_uint_array(-1, 0), "-1"),
            (lambda r: r.read_bit_array(-3), "-3"),
        ],
    )
    def test_rejects_reads_it_cannot_honour(self, read, named):
        """A width past 64 or a negative count is a ``ValueError`` naming
        it, before anything is read (the old reader returned 2**64 - 1
        for ``read_bits(70)``, 7 values and position -4 for
        ``read_uint_array(-1, 4)``, 29 bools for ``read_bit_array(-3)``)."""
        r = BitReader(bytes(range(200, 240)))
        r.read_bits(3)
        with pytest.raises(ValueError, match=f"got {named}$"):
            read(r)
        assert (r.position, r.remaining) == (3, 317)

    def test_elias_gamma_past_64_bits_raises(self):
        """A unary prefix of 65 zeros announces a 65-bit field after it;
        the width check rejects that read (the old reader returned a
        wrong value)."""
        r = BitReader(np.concatenate((np.zeros(65, dtype=bool), np.ones(80, dtype=bool))))
        with pytest.raises(ValueError, match="got 65$"):
            r.read_elias_gamma()

    @pytest.mark.parametrize("zeros", [0, 5, 8, 63, 64, 71, 72, 73, 80, 500, 4000])
    def test_unary_over_any_zero_run(self, zeros):
        """The byte walk and its vector fallback for long runs agree."""
        for phase in (0, 3, 7):
            w = BitWriter()
            w.write_bits(1, phase)
            w.write_unary(zeros)
            w.write_unary(2)
            r = BitReader(w.getvalue())
            r.read_bits(phase)
            assert r.read_unary() == zeros
            assert r.read_unary() == 2
            assert r.position == phase + zeros + 4

    def test_unary_with_nothing_left_is_eof(self):
        for data in (b"", b"\x80", np.ones(3, dtype=bool)):
            r = BitReader(data)
            r.read_bit_array(r.remaining)
            with pytest.raises(EOFError):
                r.read_unary()
            with pytest.raises(EOFError):
                r.read_elias_gamma()


class TestEliasGamma:
    @pytest.mark.parametrize("value", [1, 2, 3, 4, 7, 8, 255, 256, 10**6])
    def test_round_trip(self, value):
        w = BitWriter()
        w.write_elias_gamma(value)
        assert BitReader(w.getvalue()).read_elias_gamma() == value

    def test_rejects_nonpositive(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_elias_gamma(0)

    def test_one_is_single_bit(self):
        w = BitWriter()
        w.write_elias_gamma(1)
        assert w.bit_length == 1


class TestUnary:
    def test_round_trip_sequence(self):
        w = BitWriter()
        for v in [0, 1, 5, 0, 2]:
            w.write_unary(v)
        r = BitReader(w.getvalue())
        assert [r.read_unary() for _ in range(5)] == [0, 1, 5, 0, 2]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BitWriter().write_unary(-1)


def test_float64_bits_round_trip(rng):
    """Raw float bit patterns survive the uint64 path (used by compressors)."""
    vals = rng.standard_normal(10)
    w = BitWriter()
    w.write_uint_array(vals.view(np.uint64), 64)
    r = BitReader(w.getvalue())
    out = r.read_uint_array(10, 64).view(np.float64)
    np.testing.assert_array_equal(out, vals)
