"""Raw binary field I/O (the SDRBench interchange format).

SDRBench distributes fields as headerless little-endian binary arrays
(typically float32), with the grid dimensions given in the filename or an
accompanying note. These helpers load such files into :class:`Field`
objects — so when the real Miranda/NYX/CESM data is on disk, the whole
pipeline runs on it unchanged — and write fields back out for
interoperability with the reference compressors' CLIs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.data.fields import Field


def open_raw(path: str | Path, shape: tuple[int, ...], dtype=np.float32) -> np.memmap:
    """Memory-map a headerless binary field (SDRBench convention).

    ``shape`` is the logical grid (C order, slowest axis first, matching
    SDRBench's ``<field>_<d1>x<d2>x<d3>.f32`` naming read right-to-left in
    the filename but passed here in array order). The file must hold
    exactly that many values. The memmap streams through
    :meth:`repro.store.StoreWriter.write` one wave at a time, so fields
    larger than RAM never fully materialize.
    """
    path = Path(path)
    dtype = np.dtype(dtype)
    expected = int(np.prod(shape)) * dtype.itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise ValueError(
            f"{path.name}: file has {actual} bytes but shape {tuple(shape)} with "
            f"dtype {dtype} needs {expected}"
        )
    return np.memmap(path, dtype=dtype, mode="r", shape=tuple(shape))


def load_raw(
    path: str | Path,
    shape: tuple[int, ...],
    dtype: str | np.dtype = np.float32,
    dataset: str | None = None,
    name: str | None = None,
) -> Field:
    """Read a headerless binary field (:func:`open_raw`) into memory.

    Real SDRBench fields can carry NaN/Inf fill sentinels (land cells in
    climate data, void regions); such a file is rejected, since
    error-bounded compression is undefined on non-finite values.
    """
    path = Path(path)
    data = np.array(open_raw(path, shape, dtype))
    if not np.isfinite(data).all():
        raise ValueError(f"{path.name}: contains non-finite values")
    return Field(
        dataset=dataset or path.parent.name or "raw",
        name=name or path.stem,
        data=data,
    )


@contextmanager
def atomic_write(path: str | Path):
    """``with atomic_write(path) as fh:`` — a binary file handle whose
    bytes replace ``path`` only once the block finishes.

    Bytes go to a temporary file in the destination directory, which is
    ``os.replace``-d over ``path`` on success and removed on any failure,
    so a crash or an exception mid-write never leaves a truncated file —
    and never destroys the one it was replacing. A reader that already
    holds the old file open keeps reading the old bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")  # exclusive: never truncates another writer's file
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_raw(field: Field, path: str | Path) -> Path:
    """Write a field as headerless binary (inverse of :func:`load_raw`),
    atomically (:func:`atomic_write`)."""
    path = Path(path)
    with atomic_write(path) as fh:
        field.data.tofile(fh)
    return path


def load_raw_dataset(
    directory: str | Path,
    shape: tuple[int, ...],
    pattern: str = "*.f32",
    dtype: str | np.dtype = np.float32,
    dataset: str | None = None,
) -> list[Field]:
    """Load every matching raw file in a directory as one dataset.

    All fields must share ``shape`` (the SDRBench layout); files whose size
    does not match raise, naming the offender.
    """
    directory = Path(directory)
    paths = sorted(directory.glob(pattern))
    if not paths:
        raise FileNotFoundError(f"no files matching {pattern!r} in {directory}")
    ds = dataset or directory.name
    return [load_raw(p, shape, dtype=dtype, dataset=ds) for p in paths]
