"""Common interface for error-bounded lossy compressors."""

from __future__ import annotations

import abc
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import span
from repro.utils.validation import as_float_array, check_error_bound, require_finite


def payload_checksum(payload: bytes) -> str:
    """blake2b-64 hex digest of a compressed payload.

    Stamped into every stream's metadata at compress time and verified
    before decoding, so a truncated or bit-flipped payload raises a clean
    ``ValueError`` instead of hanging in (or crashing out of) a decoder,
    or silently reconstructing wrong data.
    """
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def quantization_step(error_bound: float) -> float:
    """Quantization step for an absolute error bound.

    Nominally ``2*eb`` (round-to-nearest then halves the step), shrunk by a
    1e-9 relative margin so the worst-case half-step rounding error stays
    *strictly* within the bound despite floating-point arithmetic. Encoder
    and decoder must both use this helper so reconstructions agree.
    """
    return 2.0 * error_bound * (1.0 - 1e-9)


@dataclass
class CompressionResult:
    """Outcome of one compression call.

    ``payload`` is the actual encoded byte stream — ``compressed_bytes`` is
    its length plus the small self-describing header, so ratios are honest
    end-to-end numbers, not coefficient counts.
    """

    compressor: str
    payload: bytes
    metadata: dict = field(repr=False)
    original_bytes: int = 0
    error_bound: float = 0.0
    elapsed: float = 0.0

    _HEADER_BYTES = 32  # shape/dtype/eb bookkeeping, charged to every stream

    @property
    def compressed_bytes(self) -> int:
        return len(self.payload) + self._HEADER_BYTES

    @property
    def ratio(self) -> float:
        return self.original_bytes / self.compressed_bytes

    def __repr__(self) -> str:  # keep payload out of reprs
        return (
            f"CompressionResult({self.compressor}, eb={self.error_bound:g}, "
            f"{self.original_bytes}B -> {self.compressed_bytes}B, "
            f"ratio={self.ratio:.2f})"
        )


class Sizer:
    """``error_bound -> compressed_bytes`` for one array under one codec.

    What :meth:`LossyCompressor.sizer` returns. This base form *is* the
    real compressor: each call runs ``compress`` and keeps what it
    produced in ``result``, so a search that probes through it already
    owns the bytes of its best probe. A closed-form subclass measures
    without encoding and leaves ``result`` at ``None`` — the caller then
    encodes once, at the error bound it settled on.
    """

    result: CompressionResult | None = None

    def __init__(self, codec: "LossyCompressor", arr: np.ndarray) -> None:
        self._codec = codec
        self._arr = arr

    def __call__(self, error_bound: float) -> int:
        self.result = self._codec.compress(self._arr, error_bound)
        return self.result.compressed_bytes


class LossyCompressor(abc.ABC):
    """Error-bounded lossy compressor.

    Guarantee: ``|decompress(compress(x, eb)) - x| <= eb`` pointwise, and the
    compression ratio is non-decreasing in ``eb`` (the monotonicity FXRZ and
    CAROL both rely on).
    """

    name: str = "abstract"

    def compress(self, data: np.ndarray, error_bound: float) -> CompressionResult:
        """Compress ``data`` under absolute pointwise ``error_bound``."""
        arr = as_float_array(data)
        require_finite(arr)
        eb = check_error_bound(error_bound)
        with span("compressor.compress", codec=self.name, error_bound=eb) as sp:
            start = time.perf_counter()
            payload, metadata = self._compress(arr.astype(np.float64, copy=False), eb)
            elapsed = time.perf_counter() - start
            sp.set(bytes_in=arr.nbytes, bytes_out=len(payload))
        metadata = dict(metadata)
        metadata.setdefault("shape", arr.shape)
        metadata.setdefault("error_bound", eb)
        metadata.setdefault("dtype", str(arr.dtype))
        metadata.setdefault("payload_check", payload_checksum(payload))
        return CompressionResult(
            compressor=self.name,
            payload=payload,
            metadata=metadata,
            original_bytes=arr.nbytes,
            error_bound=eb,
            elapsed=elapsed,
        )

    def decompress(self, result: CompressionResult) -> np.ndarray:
        """Reconstruct the array from a :class:`CompressionResult`."""
        if result.compressor != self.name:
            raise ValueError(
                f"{self.name} cannot decode a {result.compressor!r} stream"
            )
        expected = result.metadata.get("payload_check")
        if expected is not None and payload_checksum(result.payload) != expected:
            raise ValueError(
                f"{self.name}: payload failed its integrity check "
                f"({len(result.payload)} bytes; stream truncated or corrupted)"
            )
        with span("compressor.decompress", codec=self.name,
                  bytes_in=result.compressed_bytes):
            out = self._decompress(result.payload, result.metadata)
        return out.astype(result.metadata.get("dtype", "float64"), copy=False)

    def compression_ratio(self, data: np.ndarray, error_bound: float) -> float:
        """Convenience: ratio only (the quantity f(e) in the paper)."""
        return self.compress(data, error_bound).ratio

    def sizer(self, data: np.ndarray) -> Sizer:
        """The ratio-only primitive: ``sizer(x)(eb)`` equals
        ``compress(x, eb).compressed_bytes`` for every valid ``eb``.

        Whatever does not depend on the error bound (validation, upcast,
        per-block statistics) is done here, once per array; the returned
        :class:`Sizer` is then called once per probe. The default runs
        the real compressor — every codec has one, and it is the oracle
        a closed-form override is tested against.
        """
        return Sizer(self, as_float_array(data))

    def roundtrip(
        self, data: np.ndarray, error_bound: float
    ) -> tuple[np.ndarray, CompressionResult]:
        res = self.compress(data, error_bound)
        return self.decompress(res), res

    @abc.abstractmethod
    def _compress(self, data: np.ndarray, error_bound: float) -> tuple[bytes, dict]:
        """Return ``(payload_bytes, metadata)``; data is float64, finite."""

    @abc.abstractmethod
    def _decompress(self, payload: bytes, metadata: dict) -> np.ndarray:
        """Invert :meth:`_compress`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
