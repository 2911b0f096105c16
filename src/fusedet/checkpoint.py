"""Checkpoint directories shared by every module.

A checkpoint directory holds one numpy ``.npy`` file per named parameter,
``<name>.npy``, each a C-ordered float64 array: the dtype the code computes
in, so a run staged through checkpoints equals the same run in one process.
Every value is finite, as the code computes no other; the loader refuses a
NaN or an infinity by file.
``manifest.txt`` lists the parameter names, sorted, one per line, and
defines what the checkpoint holds: the loader reads exactly the files it
names and ignores any others in the directory (a larger adapter's leftovers
under the same ``--out``, say).  Identical states give identical bytes.
A save removes the old manifest before it writes any file and writes the
new one last, so a save that stops part-way leaves no manifest, and the
directory is refused rather than loaded as a mix of old and new values.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .tensor import UsageError

MANIFEST = "manifest.txt"


def save_checkpoint(directory: str | Path, named: dict[str, np.ndarray]) -> None:
    """Remove the manifest, write one ``.npy`` file per entry of ``named``
    (name -> ndarray), then the manifest.  Existing files for the same names
    are overwritten."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / MANIFEST).unlink(missing_ok=True)
    for name, arr in named.items():
        np.save(directory / f"{name}.npy",
                np.asarray(arr, dtype=np.float64, order="C"))
    (directory / MANIFEST).write_text("".join(f"{n}\n" for n in sorted(named)))


def _read_array(path: Path) -> np.ndarray:
    """A float64 ``.npy`` file of finite values, nothing past its payload."""
    try:
        with open(path, "rb") as fh:
            arr = np.lib.format.read_array(fh, allow_pickle=False)
            trailing = fh.read(1)
    except FileNotFoundError:
        raise UsageError(f"{path}: missing, but {MANIFEST} names it") from None
    except (ValueError, MemoryError) as err:   # a header's shape too large
        raise UsageError(f"{path}: {err}") from None
    if trailing:
        raise UsageError(f"{path}: bytes after the array payload")
    if arr.dtype != np.float64:
        raise UsageError(f"{path}: dtype {arr.dtype}, expected float64")
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{path}: non-finite values")
    return arr


def load_checkpoint(directory: str | Path) -> dict[str, np.ndarray]:
    """Read exactly the parameters the manifest names (name -> array)."""
    directory = Path(directory)
    manifest = directory / MANIFEST
    if not manifest.exists():
        raise UsageError(f"no checkpoint manifest at {manifest}")
    return {name: _read_array(directory / f"{name}.npy")
            for name in manifest.read_text().splitlines()}
