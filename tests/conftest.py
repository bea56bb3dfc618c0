"""Shared fixtures: deterministic RNGs and small representative fields.

Property-based and robustness tests draw their randomness from the shared
``property_rng`` fixture. Its seed comes from the ``REPRO_TEST_SEED``
environment variable (defaulting to a fixed constant), and any failing
test that used the fixture echoes the seed in its report so the exact run
can be reproduced with ``REPRO_TEST_SEED=<seed> pytest ...``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

PROPERTY_SEED_ENV = "REPRO_TEST_SEED"
_DEFAULT_PROPERTY_SEED = 20260805


@pytest.fixture(scope="session")
def property_seed() -> int:
    """Seed for all property/robustness randomness, from the environment."""
    raw = os.environ.get(PROPERTY_SEED_ENV, "")
    try:
        return int(raw) if raw else _DEFAULT_PROPERTY_SEED
    except ValueError:
        raise pytest.UsageError(
            f"{PROPERTY_SEED_ENV}={raw!r} is not an integer seed"
        ) from None


@pytest.fixture
def property_rng(property_seed: int) -> np.random.Generator:
    """Fresh generator per test (same seed), so test order never matters."""
    return np.random.default_rng(property_seed)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        if "property_seed" in item.fixturenames or "property_rng" in item.fixturenames:
            seed = getattr(item, "funcargs", {}).get(
                "property_seed",
                os.environ.get(PROPERTY_SEED_ENV, str(_DEFAULT_PROPERTY_SEED)),
            )
            report.sections.append(
                (
                    "property seed",
                    f"reproduce with: {PROPERTY_SEED_ENV}={seed} "
                    f"pytest {item.nodeid!s}",
                )
            )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def smooth3d(rng) -> np.ndarray:
    """Smooth, compressible 3-D field (integrated noise)."""
    x = rng.standard_normal((20, 24, 28))
    for axis in range(3):
        x = np.cumsum(x, axis=axis)
    return (x / 40.0).astype(np.float64)


@pytest.fixture
def smooth2d(rng) -> np.ndarray:
    x = rng.standard_normal((40, 48))
    for axis in range(2):
        x = np.cumsum(x, axis=axis)
    return x / 20.0


@pytest.fixture
def rough1d(rng) -> np.ndarray:
    """Poorly compressible 1-D signal."""
    return rng.standard_normal(3000)


@pytest.fixture
def tiny_field(rng) -> np.ndarray:
    return np.cumsum(rng.standard_normal((6, 7, 5)), axis=0)


@pytest.fixture
def pool_small_chunks(monkeypatch) -> None:
    """For tests that mean to exercise worker processes on tiny stores:
    drop the reader's pool threshold to zero so every store keeps its
    injected pool. Each such test asserts ``submitted > 0`` so it cannot
    go vacuous."""
    import repro.store.reader as reader_mod

    monkeypatch.setattr(reader_mod, "POOL_MIN_CHUNK_BYTES", 0)
