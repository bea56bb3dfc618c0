"""The byte-backed ``BitReader`` against the bool-backed one it replaced.

``tests/bitreader_oracle.py`` keeps the old reader verbatim. Both read
the same stream through the same sequence of operations; after every
operation they must have returned equal values (equal dtypes for
arrays), stand at the same ``position`` with the same ``remaining``,
or have raised the same exception type. Streams cover every start
phase 0..7, byte input and bool-array input (ending mid-byte), dense
and sparse bits (zero runs longer than the unary search's byte walk),
real unary / Elias-gamma codes, and reads that run exactly to, and one
past, the end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.encoding.bitstream import BitReader, BitWriter
from tests.bitreader_oracle import BitReader as OracleReader

OPS = ("bit", "bits", "bit_array", "uint_array", "unary", "elias_gamma")


def _outcome(reader, op: str, arg: tuple):
    try:
        return getattr(reader, f"read_{op}")(*arg)
    except (EOFError, ValueError) as exc:
        return type(exc)


def _assert_same(got, want, where: str) -> None:
    if isinstance(want, type) or isinstance(got, type):
        assert got is want, where
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype, where
        np.testing.assert_array_equal(got, want, err_msg=where)
    else:
        assert type(got) is type(want) and got == want, where


def _run(new: BitReader, old: OracleReader, ops) -> None:
    """Apply ``ops`` (``(name, args)`` pairs) to both readers in lockstep."""
    for i, (op, arg) in enumerate(ops):
        where = f"op {i}: read_{op}{arg} at bit {old.position}"
        want = _outcome(old, op, arg)
        if want is ValueError and op in ("unary", "elias_gamma") and old.remaining == 0:
            # the old reader's argmax over an empty remainder raised
            # before its own "not terminated" EOFError could
            want = EOFError
        _assert_same(_outcome(new, op, arg), want, where)
        assert (new.position, new.remaining) == (old.position, old.remaining), where


def _gamma_fits(old: OracleReader) -> bool:
    """Whether an Elias-gamma read here stays inside the old reader's
    contract: a unary prefix of at most 63 zeros (or none terminated,
    an EOF for both). Past that the old reader read a >64-bit field and
    returned garbage; the new one raises."""
    rest = old._bits[old._pos :]
    hit = np.flatnonzero(rest[:64])
    return hit.size > 0 or rest.size <= 64 and not rest.any()


def _random_ops(rng, new, old, n_ops: int):
    """Yield random operations, sized against what is left in the stream:
    mostly short reads, one in five sized to run to (or just past) the
    end."""
    for _ in range(n_ops):
        op = OPS[rng.integers(len(OPS))]
        left = old.remaining
        to_end = rng.random() < 0.2
        size = int(rng.choice([left, left + 1, max(left - 1, 0)])) if to_end else None
        if op == "bit" or op == "unary":
            yield op, ()
        elif op == "elias_gamma":
            yield ("elias_gamma" if _gamma_fits(old) else "unary"), ()
        elif op == "bits":
            yield op, (min(size, 64) if to_end else int(rng.integers(0, 65)),)
        elif op == "bit_array":
            yield op, (size if to_end else int(rng.integers(0, 24)),)
        else:
            width = int(rng.integers(0, 65))
            if to_end:
                count = size // max(width, 1) + int(rng.integers(0, 2))
            else:
                count = int(rng.integers(0, 5))
            yield op, (count, width)


def _streams(rng):
    """``(label, data)`` pairs: bytes, and bool arrays of any length."""
    for nbytes in (0, 1, 2, 3, 7, 8, 9, 17, 40):
        yield f"{nbytes} random bytes", rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()
    for nbits in (1, 5, 13, 63, 64, 65, 127, 200):
        yield f"{nbits} dense bools", rng.integers(0, 2, nbits).astype(bool)
        yield f"{nbits} sparse bools", rng.random(nbits) < 0.02
    sparse = (rng.random(8 * 300) < 0.004).astype(np.uint8)  # zero runs of ~30 bytes
    yield "sparse bytes", np.packbits(sparse).tobytes()
    w = BitWriter()
    for value in rng.integers(1, 1 << 40, 30):
        w.write_elias_gamma(max(int(value) >> int(rng.integers(0, 40)), 1))
        w.write_unary(int(rng.integers(0, 90)))
        w.write_bits(int(rng.integers(0, 1 << 20)), 20)
    yield "gamma/unary codes", w.getvalue()
    yield "gamma/unary codes as bools", w.bits()


@pytest.mark.parametrize("phase", range(8))
def test_unary_codes_of_every_length(property_rng, phase):
    """Back-to-back unary codes of 0..200 zeros, shuffled: runs that end
    in the start byte, in the byte walk, and past it (the vector scan)."""
    w = BitWriter()
    w.write_bits(0b1010101 & ((1 << phase) - 1), phase)
    lengths = property_rng.permutation(201)
    for n in lengths:
        w.write_unary(int(n))
    for data in (w.getvalue(), w.bits()):
        new, old = BitReader(data), OracleReader(data)
        _run(new, old, [("bits", (phase,))] + [("unary", ())] * (lengths.size + 2))


@pytest.mark.parametrize("phase", range(8))
def test_random_op_sequences(property_rng, phase):
    for label, data in _streams(property_rng):
        for trial in range(6):
            new, old = BitReader(data), OracleReader(data)
            _run(new, old, [("bit_array", (phase,))])
            _run(new, old, _random_ops(property_rng, new, old, 40))
            assert (new.position, new.remaining) == (old.position, old.remaining), label


@pytest.mark.parametrize("width", range(1, 65))
def test_every_width_at_every_phase(property_rng, width):
    values = property_rng.integers(0, 1 << 62, 37, dtype=np.uint64) << np.uint64(2)
    values |= property_rng.integers(0, 4, 37, dtype=np.uint64)
    values &= np.uint64((1 << width) - 1)
    for phase in range(8):
        w = BitWriter()
        w.write_bits(0b1011011 & ((1 << phase) - 1), phase)
        w.write_uint_array(values, width)
        w.write_bits(int(values[0]), width)
        for data in (w.getvalue(), w.bits()):
            new, old = BitReader(data), OracleReader(data)
            ops = [
                ("bits", (phase,)),
                ("uint_array", (values.size, width)),
                ("bits", (width,)),
                ("bits", (width,)),  # past the end unless padding covers it
            ]
            _run(new, old, ops)


@pytest.mark.parametrize("phase", range(8))
def test_reads_to_the_end_and_one_past(property_rng, phase):
    for nbits in (phase, phase + 1, phase + 7, phase + 8, phase + 64, phase + 100):
        bits = property_rng.integers(0, 2, nbits).astype(bool)
        bits[-1:] = True  # a unary code can end on the last bit
        for data in (bits, np.packbits(bits).tobytes()):
            size = len(data) * 8 if isinstance(data, bytes) else nbits
            left = size - phase
            runs = [
                [("bit_array", (left,)), ("bit_array", (0,)), ("bit", ())],
                [("bit_array", (left + 1,)), ("bit_array", (left,))],
                [("bits", (min(left, 64),)), ("bits", (1,))],
                [("uint_array", (left, 1)), ("uint_array", (1, 1)), ("uint_array", (0, 64))],
                [("uint_array", (left + 1, 1)), ("uint_array", (1, 64))],
                [("unary", ())] * 3 + [("elias_gamma", ())],
            ]
            for width in (3, 8, 25, 26, 57, 58, 64):
                runs.append([("uint_array", (left // width, width)), ("bits", (left % width,))])
                runs.append([("uint_array", (left // width + 1, width)), ("bits", (0,))])
            for ops in runs:
                new, old = BitReader(data), OracleReader(data)
                _run(new, old, [("bit_array", (phase,))] + ops)
