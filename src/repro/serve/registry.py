"""Model registry: names -> saved frameworks, lazily loaded, hot-reloadable.

A serving deployment references models by name, not by path: the
operator registers ``name -> model.npz`` once, the first request for a
name pays the load, and subsequent requests reuse the cached framework.
Overwriting the ``.npz`` (a retrain landing) is picked up automatically:
:meth:`ModelRegistry.get` re-checks the file's :func:`_file_signature`
and reloads when it changes, so a running service hot-swaps models
without restarting.

The signature is ``(mtime_ns, size, blake2b of head + tail bytes)``
rather than the mtime alone: on filesystems with coarse timestamp
granularity (or under same-second replace-then-replace sequences) a
new file can land with the old mtime, and an mtime-only check would
serve the stale model forever. Size and content hash close that hole;
hashing the head and tail (rather than the whole file) keeps the
per-request cost bounded for large models — for ``.npz`` archives the
tail covers the zip central directory and member CRCs, which change
whenever any member's bytes change.

Already-fitted in-memory frameworks can be registered too (:meth:`add`)
— convenient for tests and for embedding the service in the same process
that trained the model.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.obs import span
from repro.utils.serialization import load_framework

#: Bytes hashed from each end of the file for the change signature.
_SIG_BYTES = 65536


def _file_signature(path: Path) -> tuple[int, int, str]:
    """Cheap change-detection signature: ``(mtime_ns, size, digest)``.

    The digest is blake2b over the first and last ``_SIG_BYTES`` of the
    file (the whole file when it is small enough for the two windows to
    overlap).
    """
    st = path.stat()
    h = hashlib.blake2b(digest_size=8)
    with open(path, "rb") as fh:
        h.update(fh.read(_SIG_BYTES))
        if st.st_size > 2 * _SIG_BYTES:
            fh.seek(-_SIG_BYTES, os.SEEK_END)
            h.update(fh.read(_SIG_BYTES))
    return (st.st_mtime_ns, st.st_size, h.hexdigest())


@dataclass
class _Entry:
    path: Path | None
    signature: tuple[int, int, str] | None = None
    framework: object | None = None


class ModelRegistry:
    """Thread-safe name -> fitted-framework mapping with lazy (re)load."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}

    def register(self, name: str, path) -> None:
        """Map ``name`` to a saved framework file (loaded on first use)."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no saved framework at {path}")
        with self._lock:
            self._entries[name] = _Entry(path=path)

    def add(self, name: str, framework) -> None:
        """Register an already-fitted in-memory framework (never reloaded)."""
        with self._lock:
            self._entries[name] = _Entry(path=None, framework=framework)

    def unregister(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def get(self, name: str):
        """The fitted framework for ``name``; loads or hot-reloads as needed."""
        with self._lock:
            try:
                entry = self._entries[name]
            except KeyError:
                raise KeyError(
                    f"unknown model {name!r}; registered: {sorted(self._entries)}"
                ) from None
            if entry.path is None:
                return entry.framework
            signature = _file_signature(entry.path)
            if entry.framework is None or signature != entry.signature:
                with span("serve.registry.load", name=name,
                          reload=entry.framework is not None):
                    entry.framework = load_framework(entry.path)
                entry.signature = signature
            return entry.framework

    def reload(self, name: str):
        """Force a reload from disk (no-op for in-memory registrations)."""
        with self._lock:
            entry = self._entries[name]
            if entry.path is not None:
                with span("serve.registry.load", name=name, reload=True):
                    entry.framework = load_framework(entry.path)
                entry.signature = _file_signature(entry.path)
            return entry.framework
