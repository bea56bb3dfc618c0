"""Compressor throughput microbenchmarks (performance regression tracking).

Unlike the table/figure harnesses (single-shot experiments), these use
pytest-benchmark's normal multi-round mode so throughput regressions in the
codecs show up as statistically meaningful deltas. The grouping mirrors the
paper's split: high-throughput (szx, cuszp, zfp) vs high-ratio (sz3, sperr).

``test_encoding_kernel_speedups`` additionally prints the kernel table of
:mod:`repro.bench.codec_bench`: every vectorized encoding kernel timed
against its frozen scalar reference, with a byte-identity gate.
"""

import numpy as np
import pytest

from repro.bench.codec_bench import format_report, run_codec_bench
from repro.bench.harness import print_and_save
from repro.compressors import get_compressor
from repro.data import load_field

_CODEC_BENCH_REPS = {"tiny": 1, "small": 3, "medium": 7}


@pytest.fixture(scope="module")
def field(scale):
    return load_field("miranda/viscosity", **scale.dataset_kwargs("miranda"))


@pytest.mark.parametrize("name", ["szx", "cuszp", "zfp", "sz3", "sperr"])
def test_compress_throughput(benchmark, field, name):
    codec = get_compressor(name)
    eb = field.relative_error_bound(1e-2)
    benchmark.group = "compress"
    result = benchmark(codec.compress, field.data, eb)
    benchmark.extra_info["ratio"] = round(result.ratio, 2)
    benchmark.extra_info["MB"] = round(field.nbytes / 1e6, 2)
    assert result.ratio > 1.0


@pytest.mark.parametrize("name", ["szx", "cuszp", "zfp", "sz3", "sperr"])
def test_roundtrip_throughput(benchmark, field, name):
    codec = get_compressor(name)
    eb = field.relative_error_bound(1e-2)
    compressed = codec.compress(field.data, eb)
    benchmark.group = "decompress"
    out = benchmark(codec.decompress, compressed)
    assert np.abs(out - field.data).max() <= eb


def test_encoding_kernel_speedups(benchmark, scale):
    """Vectorized-vs-reference speedups; byte identity (vectorized stream ==
    reference stream) is a hard assert at every scale."""
    reps = _CODEC_BENCH_REPS.get(scale.name, 3)

    def run():
        return run_codec_bench(shape=scale.shape3d, reps=reps)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report["identical"], "vectorized codec diverged from reference"
    print_and_save("codec_throughput", format_report(report))
