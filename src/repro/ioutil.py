"""Atomic file-write helpers shared by storage and observability.

Every artifact the engine persists -- WAL checkpoints, cache snapshots,
``--obs`` metrics/calibration/cache JSON, ``BENCH_*.json`` snapshots -- is
written with the temp-file + :func:`os.replace` idiom so a crash at any
instant leaves either the previous complete file or the new complete file,
never a torn hybrid.  (POSIX ``rename(2)`` within one directory is atomic;
``os.replace`` gives the same guarantee on Windows.)

The ``crashpoint`` hook threads the fault injector's seeded crash-point
machinery (:meth:`repro.storage.faults.FaultInjector.crashpoint`) into the
commit sequence: a :class:`~repro.storage.faults.SimulatedCrash` raised
after the temp file is written but *before* the rename models a crash
mid-checkpoint -- the stale temp file is left behind and the previous
artifact survives intact, which is exactly what recovery relies on.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Optional

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "atomic_savez",
    "encode_array",
    "decode_array",
    "fsync_directory",
]

CrashHook = Optional[Callable[[str], None]]


def _tmp_path(path: Path) -> Path:
    """A sibling temp name: same directory, so the rename stays atomic."""
    return path.with_name(f".{path.name}.tmp.{os.getpid()}")


def fsync_directory(directory) -> None:
    """Make the entries of ``directory`` (a rename, a new file) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _commit(tmp: Path, path: Path, fsync: bool, crashpoint: CrashHook, point: str) -> None:
    if crashpoint is not None:
        crashpoint(point)  # may raise SimulatedCrash: temp written, not renamed
    os.replace(tmp, path)
    if fsync:
        fsync_directory(os.path.dirname(os.path.abspath(path)) or ".")


def atomic_write_bytes(
    path,
    data: bytes,
    fsync: bool = False,
    crashpoint: CrashHook = None,
    point: str = "atomic-write",
) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename)."""
    path = Path(path)
    tmp = _tmp_path(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        _commit(tmp, path, fsync, crashpoint, point)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str, fsync: bool = False) -> None:
    """Write ``text`` to ``path`` atomically."""
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(
    path, payload, indent: int = 2, default=None, fsync: bool = False
) -> None:
    """Serialize ``payload`` and write it to ``path`` atomically.

    Serialization happens before any filesystem mutation, so a payload that
    fails to encode leaves the previous artifact untouched.
    """
    text = json.dumps(payload, indent=indent, default=default)
    atomic_write_text(path, text, fsync=fsync)


def encode_array(array) -> dict:
    """Exact (bit-preserving) JSON encoding of a float array.

    WAL payloads are JSON; ``repr(float)`` round-trips in CPython but a
    base64 of the raw bytes is unambiguous and cheaper to validate, so
    replayed skylines and rows compare bit-equal to what was logged.
    """
    import base64

    import numpy as np

    arr = np.ascontiguousarray(array, dtype=float)
    return {
        "shape": list(arr.shape),
        "b64": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(encoded: dict):
    """Inverse of :func:`encode_array`; returns a fresh writable array."""
    import base64

    import numpy as np

    data = np.frombuffer(
        base64.b64decode(encoded["b64"]), dtype=float
    ).reshape(encoded["shape"])
    return data.copy()


def atomic_savez(
    path,
    fsync: bool = False,
    crashpoint: CrashHook = None,
    point: str = "atomic-write",
    **arrays,
) -> None:
    """``np.savez`` into ``path`` atomically.

    The members are stored, not deflated: the snapshots hold random doubles,
    which barely compress, and zlib was most of a checkpoint's time.  The
    archive is written through an open temp-file handle (so numpy never
    appends its own ``.npz`` suffix), then renamed over ``path``.  With
    ``fsync`` the bytes are on disk before the rename and the directory
    entry after it, so a power loss leaves the old archive or the new one.
    """
    import numpy as np

    path = Path(path)
    tmp = _tmp_path(path)
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        _commit(tmp, path, fsync, crashpoint, point)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
