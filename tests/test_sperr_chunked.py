"""SPERR chunked mode (the paper's 128^d-chunk window, scaled)."""

import numpy as np
import pytest

from repro.compressors.sperr import SPERRCompressor


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, 52, 36))
    for a in range(3):
        x = np.cumsum(x, axis=a)
    return x / 60.0


class TestChunkedRoundTrip:
    @pytest.mark.parametrize("edge", [16, 24])
    def test_bound_and_shape(self, data, edge):
        codec = SPERRCompressor(chunk_edge=edge)
        out, res = codec.roundtrip(data, 1e-2)
        assert out.shape == data.shape
        assert np.abs(out - data).max() <= 1e-2
        assert res.metadata["mode"] == "chunked"

    def test_non_divisible_edges(self, data):
        codec = SPERRCompressor(chunk_edge=17)  # ragged trailing chunks
        out, _ = codec.roundtrip(data, 1e-2)
        assert np.abs(out - data).max() <= 1e-2

    @pytest.mark.parametrize("edge", [8, 16])
    @pytest.mark.parametrize("shape", [(17, 13), (20, 24, 28)])
    def test_edge_clipped_chunks(self, rng, shape, edge):
        """Trailing chunks clipped to one or a few samples per axis."""
        x = rng.standard_normal(shape)
        for axis in range(len(shape)):
            x = np.cumsum(x, axis=axis)
        out, res = SPERRCompressor(chunk_edge=edge).roundtrip(x, 1e-2)
        assert res.metadata["mode"] == "chunked"
        assert np.abs(out - x).max() <= 1e-2 * (1 + 1e-9)

    @pytest.mark.parametrize("quant_factor", [0.25, 1.0])
    def test_quant_factor_extremes(self, rng, quant_factor):
        x = np.cumsum(np.cumsum(rng.standard_normal((24, 24)), 0), 1) / 8
        codec = SPERRCompressor(quant_factor=quant_factor, chunk_edge=16)
        for eb in (1e-6, 1e-3, 0.5):
            out, _ = codec.roundtrip(x, eb)
            assert np.abs(out - x).max() <= eb * (1 + 1e-9)

    def test_small_array_skips_chunking(self):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.standard_normal((10, 10)), 0)
        codec = SPERRCompressor(chunk_edge=16)
        res = codec.compress(x, 1e-3)
        assert res.metadata.get("mode") != "chunked"

    def test_2d_and_1d(self, rng):
        codec = SPERRCompressor(chunk_edge=16)
        x2 = np.cumsum(np.cumsum(rng.standard_normal((40, 40)), 0), 1) / 10
        out2, _ = codec.roundtrip(x2, 1e-2)
        assert np.abs(out2 - x2).max() <= 1e-2
        x1 = np.cumsum(rng.standard_normal(300)) / 5
        out1, _ = codec.roundtrip(x1, 1e-2)
        assert np.abs(out1 - x1).max() <= 1e-2


class TestChunkedBehaviour:
    def test_ratio_close_to_whole_array(self, data):
        """Chunking costs a little ratio (smaller transforms, per-chunk
        headers) but stays in the same band."""
        eb = 1e-2
        r_whole = SPERRCompressor().compression_ratio(data, eb)
        r_chunk = SPERRCompressor(chunk_edge=16).compression_ratio(data, eb)
        assert r_chunk > 0.6 * r_whole

    def test_chunk_count(self, data):
        codec = SPERRCompressor(chunk_edge=16)
        res = codec.compress(data, 1e-2)
        import math

        expected = math.prod((-(-s // 16)) for s in data.shape)
        assert len(res.metadata["chunks"]) == expected

    def test_invalid_edge(self):
        with pytest.raises(ValueError):
            SPERRCompressor(chunk_edge=4)

    def test_truncated_chunk_stream(self, data):
        import dataclasses

        codec = SPERRCompressor(chunk_edge=16)
        res = codec.compress(data, 1e-2)
        broken = dataclasses.replace(res, payload=res.payload[: len(res.payload) // 2])
        with pytest.raises((ValueError, EOFError, IndexError)):
            codec.decompress(broken)
