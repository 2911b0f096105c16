"""Binary checkpoint I/O shared by every module.

Per-parameter file layout, all little-endian:

    magic   4 bytes  b"LEDT"
    version u32      2
    rank    u32
    extents u64 * rank
    payload f64, row-major

A checkpoint directory holds one ``.ledt`` file per named parameter plus a
``manifest.txt`` with one tab-separated ``name<TAB>file<TAB>shape`` line per
parameter, sorted by name so identical states produce identical bytes.
The payload is the float64 the code computes in, so a run staged through
checkpoints equals the same run in one process.  Version 1 files (float32
payloads) are rejected.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor, UsageError

MAGIC = b"LEDT"
VERSION = 2
MANIFEST = "manifest.txt"


def save_tensor(path: str | Path, values) -> None:
    arr = values.data if isinstance(values, Tensor) else np.asarray(values)
    shape = arr.shape
    arr = np.ascontiguousarray(arr, dtype="<f8")
    header = MAGIC + struct.pack("<II", VERSION, len(shape))
    header += struct.pack(f"<{len(shape)}Q", *shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def load_tensor(path: str | Path) -> np.ndarray:
    """Read one parameter file back as float64."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise UsageError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 12:
        raise UsageError(f"{path}: {len(raw)} bytes, shorter than the header")
    version, rank = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise UsageError(f"{path}: unsupported version {version}")
    offset = 12 + 8 * rank
    if len(raw) < offset:
        raise UsageError(f"{path}: {len(raw)} bytes, shorter than the header")
    extents = struct.unpack_from(f"<{rank}Q", raw, 12)
    count = int(np.prod(extents, dtype=np.int64)) if rank else 1
    if len(raw) != offset + 8 * count:
        raise UsageError(f"{path}: payload size does not match header extents")
    payload = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    return payload.astype(np.float64).reshape(extents)


def _filename(name: str) -> str:
    return name + ".ledt"


def save_checkpoint(directory: str | Path, named: dict) -> None:
    """Write every entry of ``named`` (name -> Tensor or ndarray) plus the
    manifest.  Existing files for the same names are overwritten."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for name in sorted(named):
        arr = named[name]
        data = arr.data if isinstance(arr, Tensor) else np.asarray(arr)
        fname = _filename(name)
        save_tensor(directory / fname, data)
        shape = ",".join(str(s) for s in data.shape)
        lines.append(f"{name}\t{fname}\t{shape}")
    (directory / MANIFEST).write_text("\n".join(lines) + "\n")


def load_checkpoint(directory: str | Path) -> dict[str, np.ndarray]:
    directory = Path(directory)
    manifest = directory / MANIFEST
    if not manifest.exists():
        raise UsageError(f"no checkpoint manifest at {manifest}")
    out: dict[str, np.ndarray] = {}
    for i, line in enumerate(manifest.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            name, fname, shape_s = line.split("\t")
            shape = tuple(int(s) for s in shape_s.split(",") if s)
        except ValueError:
            raise UsageError(
                f"{manifest} line {i}: {line!r} is not "
                f"name<TAB>file<TAB>comma-separated integer shape") from None
        arr = load_tensor(directory / fname)
        if arr.shape != shape:
            raise UsageError(
                f"{fname}: manifest shape {shape} != stored shape {arr.shape}")
        out[name] = arr
    return out

