"""Checkpoint format: the ``.npy`` layout pinned by hand, round trips of
arrays and of every trained module, manifests, and each corrupt file as a
named error."""

from __future__ import annotations

import io
from dataclasses import replace

import numpy as np
import pytest

from fusedet import checkpoint as ck
from fusedet import training as tr
from fusedet.adapter import ARCHS
from fusedet.config import ExperimentConfig
from fusedet.tensor import UsageError


def save_one(directory, arr, name="w"):
    ck.save_checkpoint(directory, {name: arr})
    return directory / f"{name}.npy"


def npy_bytes(arr, **kwargs) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr, **kwargs)
    return buf.getvalue()


def test_byte_layout_is_pinned(tmp_path):
    """numpy format 1.0: magic, header dict padded to a 128-byte prefix,
    then the little-endian float64 payload in C order."""
    raw = save_one(tmp_path, [[1.0, 2.0], [3.0, 4.0]]).read_bytes()
    assert raw[:8] == b"\x93NUMPY\x01\x00"
    assert int.from_bytes(raw[8:10], "little") == 128 - 10
    assert raw[10:128].startswith(
        b"{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), }")
    payload = np.frombuffer(raw, dtype="<f8", offset=128)
    np.testing.assert_array_equal(payload, [1.0, 2.0, 3.0, 4.0])
    assert len(raw) == 128 + 32
    assert (tmp_path / ck.MANIFEST).read_text() == "w\n"


def test_round_trip_exact_for_f32_values(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5)).astype(np.float32).astype(np.float64)
    save_one(tmp_path, arr)
    back = ck.load_checkpoint(tmp_path)["w"]
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, arr)


def test_round_trip_exact_for_float64(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5))
    save_one(tmp_path, np.asfortranarray(arr))
    back = ck.load_checkpoint(tmp_path)["w"]
    assert back.dtype == np.float64 and back.flags.c_contiguous
    np.testing.assert_array_equal(back, arr)


def test_scalar_rank_zero(tmp_path):
    save_one(tmp_path, np.array(2.5))
    back = ck.load_checkpoint(tmp_path)["w"]
    assert back.shape == () and back == 2.5


def test_bad_magic_rejected(tmp_path):
    p = save_one(tmp_path, np.ones(3))
    p.write_bytes(b"NOPE" + p.read_bytes()[4:])
    with pytest.raises(UsageError, match=r"w\.npy: .*magic"):
        ck.load_checkpoint(tmp_path)


def test_truncated_payload_rejected(tmp_path):
    p = save_one(tmp_path, np.ones((4, 4)))
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(UsageError, match=r"w\.npy: "):
        ck.load_checkpoint(tmp_path)


def test_truncated_header_rejected(tmp_path):
    """A file cut inside its magic string or its header dict is a named
    error that names the file."""
    p = save_one(tmp_path, np.ones((4, 4)))
    raw = p.read_bytes()
    for cut in (0, 5, 20, 127):
        p.write_bytes(raw[:cut])
        with pytest.raises(UsageError, match=r"w\.npy: "):
            ck.load_checkpoint(tmp_path)


def test_header_claiming_more_than_the_file_holds(tmp_path):
    """A header whose shape no file could hold is refused by name before
    any payload is read."""
    p = save_one(tmp_path, np.ones(3))
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (2 ** 40,)})
    p.write_bytes(buf.getvalue() + np.ones(3).tobytes())
    with pytest.raises(UsageError, match=r"w\.npy: "):
        ck.load_checkpoint(tmp_path)


def test_trailing_bytes_rejected(tmp_path):
    """``np.load`` would accept bytes after the payload; the loader does not."""
    p = save_one(tmp_path, np.ones(3))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(UsageError,
                       match=r"w\.npy: bytes after the array payload"):
        ck.load_checkpoint(tmp_path)


@pytest.mark.parametrize("dtype", ["<f4", ">f8", "<i8"])
def test_other_dtypes_rejected(tmp_path, dtype):
    p = save_one(tmp_path, np.ones(3))
    p.write_bytes(npy_bytes(np.ones(3, dtype=dtype)))
    with pytest.raises(UsageError,
                       match=r"w\.npy: dtype .*, expected float64"):
        ck.load_checkpoint(tmp_path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected(tmp_path, value):
    """The code computes only finite values, so a NaN or an infinity is
    named at its file, not at the first op that reads it."""
    save_one(tmp_path, np.array([1.0, value, 3.0]))
    with pytest.raises(UsageError, match=r"w\.npy: non-finite values$"):
        ck.load_checkpoint(tmp_path)


def test_pickled_objects_rejected(tmp_path):
    p = save_one(tmp_path, np.ones(2))
    p.write_bytes(npy_bytes(np.array([1.0, None], dtype=object),
                            allow_pickle=True))
    with pytest.raises(UsageError, match=r"w\.npy: .*allow_pickle"):
        ck.load_checkpoint(tmp_path)


def test_missing_parameter_file_is_named(tmp_path):
    p = save_one(tmp_path, np.ones(2))
    p.unlink()
    with pytest.raises(UsageError,
                       match=r"w\.npy: missing, but manifest\.txt names it"):
        ck.load_checkpoint(tmp_path)


def test_checkpoint_directory_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    named = {
        "det.q_embed": rng.standard_normal((4, 8)),
        "adapter.gate": np.zeros(2),
        "mllm.tok": rng.standard_normal((16, 8)),
    }
    ck.save_checkpoint(tmp_path, named)
    assert (tmp_path / ck.MANIFEST).read_text().splitlines() == sorted(named)
    back = ck.load_checkpoint(tmp_path)
    assert set(back) == set(named)
    for name, arr in named.items():
        np.testing.assert_array_equal(back[name], arr)


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(2)
    named = {"a.w": rng.standard_normal((3, 3)), "b.w": rng.standard_normal(5)}
    ck.save_checkpoint(tmp_path / "one", named)
    ck.save_checkpoint(tmp_path / "two", named)
    files = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in files:
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes())


def test_interrupted_resave_leaves_no_manifest(tmp_path, monkeypatch):
    """A save over an older checkpoint that stops after its first file is
    refused by name, not loaded as one new and one old parameter."""
    ck.save_checkpoint(tmp_path, {"a": np.zeros(2), "b": np.zeros(2)})
    save, calls = np.save, []

    def fails_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        save(*args, **kwargs)

    monkeypatch.setattr(ck.np, "save", fails_second)
    with pytest.raises(OSError):
        ck.save_checkpoint(tmp_path, {"a": np.ones(2), "b": np.ones(2)})
    with pytest.raises(UsageError, match="^no checkpoint manifest at "):
        ck.load_checkpoint(tmp_path)


def test_missing_manifest(tmp_path):
    with pytest.raises(UsageError):
        ck.load_checkpoint(tmp_path)


@pytest.mark.parametrize("line", ["gain\tgain.ledt",
                                  "gain\tgain.ledt\t2\textra",
                                  "gain\tgain.ledt\t2,x"])
def test_malformed_manifest_line_is_named(tmp_path, line):
    """A manifest line is one parameter name; any other line, such as an
    old ``name<TAB>file<TAB>shape`` one, names no file and is a named error
    that quotes the line."""
    ck.save_checkpoint(tmp_path, {"gain": np.ones(2)})
    (tmp_path / ck.MANIFEST).write_text(line + "\n")
    with pytest.raises(UsageError,
                       match="missing, but manifest.txt names it") as err:
        ck.load_checkpoint(tmp_path)
    assert f"{line}.npy" in str(err.value)


def trained_modules():
    """(label, build) for every module the CLI checkpoints; ``build()``
    makes a fresh one at the same seeds."""
    cfg = ExperimentConfig()
    return ([("detector", lambda: tr.build_models(cfg)[1]),
             ("mllm", lambda: tr.build_models(cfg)[0])]
            + [(f"adapter-{arch}",
                lambda arch=arch: tr.build_adapter(cfg, arch=arch))
               for arch in ARCHS]
            + [("substitution",
                lambda: tr.build_substitution(cfg, tr.build_models(cfg)[0]))])


@pytest.mark.parametrize("label,build", trained_modules(),
                         ids=[label for label, _ in trained_modules()])
def test_module_round_trip(tmp_path, label, build):
    """save → load → restore gives back every parameter bit for bit."""
    source = build()
    rng = np.random.default_rng(3)
    for p in source.parameters():
        p.data = p.data + rng.standard_normal(p.data.shape)
    ck.save_checkpoint(tmp_path, tr.snapshot(source))
    target = build()
    assert tr.module_digest(target) != tr.module_digest(source)
    tr.restore(target, ck.load_checkpoint(tmp_path))
    assert tr.module_digest(target) == tr.module_digest(source)


def test_smaller_adapter_saved_over_a_larger_one(tmp_path):
    """Arch IV written into an Arch II directory leaves II's ``text_fusion.*``
    files behind; the manifest leaves them out, so IV loads cleanly."""
    cfg = ExperimentConfig()
    ck.save_checkpoint(tmp_path, tr.snapshot(tr.build_adapter(cfg, arch="II")))
    arch_iv = tr.build_adapter(cfg, arch="IV")
    ck.save_checkpoint(tmp_path, tr.snapshot(arch_iv))
    assert any(p.name.startswith("text_fusion.") for p in tmp_path.iterdir())
    back = ck.load_checkpoint(tmp_path)
    assert not any(name.startswith("text_fusion.") for name in back)
    fresh = tr.build_adapter(replace(cfg, run_seed=cfg.run_seed + 1), arch="IV")
    assert tr.module_digest(fresh) != tr.module_digest(arch_iv)
    tr.restore(fresh, back)
    assert tr.module_digest(fresh) == tr.module_digest(arch_iv)
