"""Vectorized-vs-reference encoding kernel table.

The vectorized kernels in :mod:`repro.encoding` promise *byte-identical*
streams to the scalar implementations they replaced, which are preserved
verbatim in :mod:`repro.encoding.reference`. The promise itself is held by
tier-1 (``tests/test_property_encoding.py::TestVectorizedMatchesReference``);
this module measures what it buys, and lives exactly as long as the
references do:

- every codec's encode and decode run on the same deterministic fixture —
  the quantization-symbol stream a real :class:`~repro.compressors.sz3.
  SZ3Compressor` produces for a synthetic field — and the outputs are
  diffed byte-for-byte against the reference oracles;
- both implementations are timed in the same run, so the recorded speedup
  compares like with like on the machine that produced the numbers.

Its one reader is ``benchmarks/test_codec_throughput.py``, which prints
the table into the scorecard's ``codec_throughput`` row. Whole compressors
are measured where they are used — by the ledger's pack and read workloads
(``ledger/README.md``).
"""

from __future__ import annotations

import time

import numpy as np

DEFAULT_FIELD = "miranda/viscosity"
DEFAULT_SHAPE = (64, 64, 64)
DEFAULT_REL_EB = 1e-3


def sz3_symbol_stream(
    field_path: str = DEFAULT_FIELD,
    shape: tuple[int, ...] = DEFAULT_SHAPE,
    rel_eb: float = DEFAULT_REL_EB,
    seed: int | None = None,
) -> np.ndarray:
    """Quantization-symbol stream SZ3 feeds its entropy stage on a fixture.

    Captured by tapping ``_encode_codes`` during a real compression, so the
    benchmark exercises exactly the symbol statistics (one dominant
    "exactly predicted" symbol, geometric tails) the kernels see in
    production rather than synthetic uniform noise.
    """
    from repro.compressors.sz3 import SZ3Compressor
    from repro.data.datasets import load_field

    kwargs: dict = {"shape": tuple(shape)}
    if seed is not None:
        kwargs["seed"] = seed
    field = load_field(field_path, **kwargs)

    captured: list[np.ndarray] = []

    class _Tap(SZ3Compressor):
        def _encode_codes(self, symbols, writer):
            captured.append(np.asarray(symbols, dtype=np.int64).copy())
            return super()._encode_codes(symbols, writer)

    _Tap().compress(field.data, field.relative_error_bound(rel_eb))
    if not captured:
        raise RuntimeError("fixture compression produced no symbol stream")
    return captured[0]


def _best_of(fns: list, reps: int) -> tuple[list[float], list]:
    """Best wall-clock seconds and last result for each callable.

    The callables are timed *interleaved* — every rep round runs each once
    — so machine noise (frequency scaling, a busy neighbor) lands on the
    vectorized kernel and its reference alike instead of skewing whichever
    happened to run during the slow window. Cyclic GC is paused around the
    timed region (heap collected first) so entries timed later in the run
    don't pay collection passes triggered by earlier entries' garbage.
    """
    import gc

    best = [float("inf")] * len(fns)
    results: list = [None] * len(fns)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, reps)):
            for i, fn in enumerate(fns):
                t0 = time.perf_counter()
                results[i] = fn()
                best[i] = min(best[i], time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best, results


def _entry(
    nbytes: int,
    reps: int,
    encode_new,
    encode_ref,
    decode_new,
    decode_ref,
    check_encoded,
    check_decoded,
) -> dict:
    """Time one codec's four paths and verify both identity gates.

    ``check_encoded(new_payload, ref_payload)`` and
    ``check_decoded(new_out, ref_out)`` return True when the vectorized
    kernel's output is byte/element-identical to the reference's.
    """
    (enc_s, ref_enc_s), (payload, ref_payload) = _best_of([encode_new, encode_ref], reps)
    (dec_s, ref_dec_s), (decoded, ref_decoded) = _best_of(
        [lambda: decode_new(payload), lambda: decode_ref(ref_payload)], reps
    )
    identical = bool(
        check_encoded(payload, ref_payload) and check_decoded(decoded, ref_decoded)
    )
    mb = nbytes / 1e6
    return {
        "input_bytes": int(nbytes),
        "encoded_bytes": int(len(payload)),
        "encode_mbps": mb / enc_s,
        "decode_mbps": mb / dec_s,
        "ref_encode_mbps": mb / ref_enc_s,
        "ref_decode_mbps": mb / ref_dec_s,
        "speedup_encode": ref_enc_s / enc_s,
        "speedup_decode": ref_dec_s / dec_s,
        "speedup_total": (ref_enc_s + ref_dec_s) / (enc_s + dec_s),
        "identical": identical,
    }


def run_codec_bench(
    field_path: str = DEFAULT_FIELD,
    shape: tuple[int, ...] = DEFAULT_SHAPE,
    rel_eb: float = DEFAULT_REL_EB,
    reps: int = 3,
    seed: int | None = None,
) -> dict:
    """Benchmark every vectorized codec against its frozen scalar reference.

    Returns the report dict :func:`format_report` prints;
    ``report["identical"]`` is the aggregate byte-identity verdict across
    all codecs.
    """
    from repro.compressors.sz3 import _ALPHABET
    from repro.encoding import reference
    from repro.encoding.bitstream import BitReader, BitWriter
    from repro.encoding.huffman import HuffmanCodec
    from repro.encoding.lz77 import lz77_compress, lz77_decompress
    from repro.encoding.range_coder import RangeDecoder, RangeEncoder
    from repro.encoding.rle import rle_bytes_decode, rle_bytes_encode

    symbols = sz3_symbol_stream(field_path, shape, rel_eb=rel_eb, seed=seed)
    count = int(symbols.size)
    sym_bytes = int(symbols.size * symbols.itemsize)
    zero_symbol = int(np.bincount(symbols).argmax())

    codec = HuffmanCodec.fit(symbols, alphabet_size=_ALPHABET)
    freq = np.bincount(symbols, minlength=_ALPHABET)

    def huff_encode_new() -> bytes:
        w = BitWriter()
        codec.encode(symbols, w)
        return w.getvalue()

    def huff_encode_ref() -> bytes:
        w = BitWriter()
        reference.huffman_encode_reference(codec, symbols, w)
        return w.getvalue()

    # The LZ77 fixture is the Huffman-coded bitstream — exactly the bytes
    # SZ3's lossless backend sees in production.
    huff_payload = huff_encode_new()
    lz_bytes = len(huff_payload)

    same_bytes = lambda a, b: a == b  # noqa: E731
    same_syms = lambda a, b: bool(np.array_equal(a, b) and np.array_equal(a, symbols))  # noqa: E731

    codecs = {
        "huffman": _entry(
            sym_bytes, reps,
            huff_encode_new,
            huff_encode_ref,
            lambda p: codec.decode(BitReader(p), count),
            lambda p: reference.huffman_decode_reference(codec, BitReader(p), count),
            same_bytes, same_syms,
        ),
        "lz77": _entry(
            lz_bytes, reps,
            lambda: lz77_compress(huff_payload),
            lambda: reference.lz77_compress_reference(huff_payload),
            lz77_decompress,
            lz77_decompress,
            same_bytes,
            lambda a, b: a == b == huff_payload,
        ),
        "range": _entry(
            sym_bytes, reps,
            lambda: RangeEncoder(freq).encode(symbols),
            lambda: reference.range_encode_reference(RangeEncoder(freq), symbols),
            lambda p: RangeDecoder(freq, p).decode(count),
            lambda p: reference.range_decode_reference(RangeDecoder(freq, p), count),
            same_bytes, same_syms,
        ),
        "rle": _entry(
            sym_bytes, reps,
            lambda: rle_bytes_encode(symbols, zero_symbol=zero_symbol),
            lambda: reference.rle_bytes_encode_reference(symbols, zero_symbol=zero_symbol),
            lambda p: rle_bytes_decode(p, zero_symbol=zero_symbol),
            lambda p: reference.rle_bytes_decode_reference(p, zero_symbol=zero_symbol),
            same_bytes, same_syms,
        ),
        # The composed SZ3 lossless stage (Huffman + LZ77).
        "sz3_lossless": _entry(
            sym_bytes, reps,
            lambda: lz77_compress(huff_encode_new()),
            lambda: reference.lz77_compress_reference(huff_encode_ref()),
            lambda p: codec.decode(BitReader(lz77_decompress(p)), count),
            lambda p: reference.huffman_decode_reference(
                codec, BitReader(lz77_decompress(p)), count
            ),
            same_bytes, same_syms,
        ),
    }

    return {
        "field": field_path,
        "shape": list(shape),
        "rel_error_bound": rel_eb,
        "reps": int(reps),
        "n_symbols": count,
        "symbol_bytes": sym_bytes,
        "huffman_stream_bytes": lz_bytes,
        "codecs": codecs,
        "identical": all(c["identical"] for c in codecs.values()),
    }


def format_report(report: dict) -> str:
    """Human-readable per-codec table of the report."""
    lines = [
        f"encoding kernels vs reference: {report['field']} "
        f"shape={tuple(report['shape'])} rel_eb={report['rel_error_bound']:g} "
        f"reps={report['reps']} n_symbols={report['n_symbols']}",
        f"{'codec':<13} {'MB':>6} {'enc MB/s':>9} {'dec MB/s':>9} "
        f"{'enc x':>7} {'dec x':>7} {'total x':>8} {'identical':>10}",
    ]
    for name, c in report["codecs"].items():
        lines.append(
            f"{name:<13} {c['input_bytes']/1e6:>6.2f} {c['encode_mbps']:>9.2f} "
            f"{c['decode_mbps']:>9.2f} {c['speedup_encode']:>7.2f} "
            f"{c['speedup_decode']:>7.2f} {c['speedup_total']:>8.2f} "
            f"{'yes' if c['identical'] else 'DIVERGED':>10}"
        )
    return "\n".join(lines)
