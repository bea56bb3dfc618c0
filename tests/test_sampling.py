"""Tests for SECRE's sampling strategies (Table 1)."""

import numpy as np
import pytest

from repro.surrogate.sampling import (
    sample_chunk,
    sample_flat_blocks,
    sample_grid_blocks,
    sample_points,
)


class TestFlatBlocks:
    def test_fraction_and_alignment(self, rng):
        data = rng.standard_normal(128 * 256)
        sample = sample_flat_blocks(data, 128, 16, min_blocks=8)
        assert sample.size % 128 == 0
        assert sample.size / data.size == pytest.approx(1 / 16)

    def test_small_input_returns_everything(self, rng):
        data = rng.standard_normal(50)
        sample = sample_flat_blocks(data, 128, 128)
        np.testing.assert_array_equal(sample, data)

    def test_stride_shrinks_for_min_blocks(self, rng):
        data = rng.standard_normal(128 * 64)  # 64 blocks
        sample = sample_flat_blocks(data, 128, 128, min_blocks=8)
        assert sample.size // 128 >= 8

    def test_samples_are_views_of_input_values(self):
        data = np.arange(128 * 4, dtype=float)
        sample = sample_flat_blocks(data, 128, 1)
        np.testing.assert_array_equal(sample[:128], data[:128])


class TestGridBlocks:
    def test_block_shape(self, rng):
        data = rng.standard_normal((16, 16, 16))
        blocks = sample_grid_blocks(data, 4, 2)
        assert blocks.shape[1:] == (4, 4, 4)
        assert blocks.size / data.size == pytest.approx(1 / 2)

    def test_first_block_is_corner(self, rng):
        data = rng.standard_normal((8, 8))
        blocks = sample_grid_blocks(data, 4, 1)
        np.testing.assert_array_equal(blocks[0], data[:4, :4])

    def test_small_array_padded(self, rng):
        data = rng.standard_normal((3, 3))
        blocks = sample_grid_blocks(data, 4, 1)
        assert blocks.shape == (1, 4, 4)
        np.testing.assert_array_equal(blocks[0, :3, :3], data)


class TestPoints:
    def test_stride_preserves_ndim(self, rng):
        data = rng.standard_normal((20, 25, 30))
        sampled = sample_points(data, 5)
        assert sampled.ndim == 3
        assert sampled.shape == (4, 5, 6)
        assert sampled.size / data.size == pytest.approx(1 / 125)

    def test_stride_one_is_identity(self, rng):
        data = rng.standard_normal((7, 9))
        sampled = sample_points(data, 1)
        np.testing.assert_array_equal(sampled, data)


class TestChunk:
    def test_centered_chunk(self, rng):
        data = rng.standard_normal((32, 32))
        chunk = sample_chunk(data, 0.5)
        assert chunk.shape == (16, 16)
        assert chunk.size / data.size == pytest.approx(0.25)
        # centered: the chunk is the middle of the array
        np.testing.assert_array_equal(chunk, data[8:24, 8:24])

    def test_tiny_axes_taken_fully(self):
        data = np.arange(64.0).reshape(8, 8)
        chunk = sample_chunk(data, 0.5)
        assert chunk.shape == (8, 8)  # 8-element floor per axis
        np.testing.assert_array_equal(chunk, data)

    def test_fraction_one_full_array(self, rng):
        data = rng.standard_normal((10, 12))
        chunk = sample_chunk(data, 1.0)
        np.testing.assert_array_equal(chunk, data)

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            sample_chunk(np.ones((4, 4)), 0.0)

    def test_large_3d_fraction(self, rng):
        data = rng.standard_normal((32, 32, 32))
        chunk = sample_chunk(data, 0.5)
        assert chunk.shape == (16, 16, 16)
        assert chunk.size / data.size == pytest.approx(1 / 8)
