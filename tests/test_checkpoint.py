"""Checkpoint format: byte layout pinned by hand, round trips, manifests."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from fusedet import checkpoint as ck
from fusedet.tensor import Tensor, UsageError


def test_byte_layout_is_pinned(tmp_path):
    path = tmp_path / "w.ledt"
    ck.save_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    raw = path.read_bytes()
    assert raw[:4] == b"LEDT"
    assert struct.unpack_from("<II", raw, 4) == (2, 2)
    assert struct.unpack_from("<QQ", raw, 12) == (2, 2)
    payload = np.frombuffer(raw, dtype="<f8", offset=28)
    np.testing.assert_array_equal(payload, [1.0, 2.0, 3.0, 4.0])
    assert len(raw) == 28 + 32


def test_version_one_rejected(tmp_path):
    """The float32 layout of version 1 has no reader."""
    p = tmp_path / "v1.ledt"
    p.write_bytes(b"LEDT" + struct.pack("<IIQ", 1, 1, 2)
                  + np.ones(2, dtype="<f4").tobytes())
    with pytest.raises(UsageError, match="unsupported version 1"):
        ck.load_tensor(p)


def test_round_trip_exact_for_f32_values(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5)).astype(np.float32).astype(np.float64)
    ck.save_tensor(tmp_path / "a.ledt", arr)
    back = ck.load_tensor(tmp_path / "a.ledt")
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, arr)


def test_round_trip_exact_for_float64(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5))
    ck.save_tensor(tmp_path / "a.ledt", arr)
    back = ck.load_tensor(tmp_path / "a.ledt")
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, arr)


def test_scalar_rank_zero(tmp_path):
    ck.save_tensor(tmp_path / "s.ledt", np.array(2.5))
    back = ck.load_tensor(tmp_path / "s.ledt")
    assert back.shape == () and back == 2.5


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "x.ledt"
    p.write_bytes(b"NOPE" + b"\x00" * 24)
    with pytest.raises(UsageError):
        ck.load_tensor(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "t.ledt"
    ck.save_tensor(p, np.ones((4, 4)))
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(UsageError):
        ck.load_tensor(p)


def test_truncated_header_rejected(tmp_path):
    """A file cut inside its header, before or among the extents, is a
    named error, not a ``struct`` one."""
    p = tmp_path / "h.ledt"
    for raw in (b"LEDT\x02\x00", b"LEDT" + struct.pack("<IIQ", 2, 2, 4)):
        p.write_bytes(raw)
        with pytest.raises(UsageError, match="shorter than the header"):
            ck.load_tensor(p)


def test_checkpoint_directory_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    named = {
        "det.q_embed": rng.standard_normal((4, 8)),
        "adapter.gate": np.zeros(2),
        "mllm.tok": Tensor(rng.standard_normal((16, 8))),
    }
    ck.save_checkpoint(tmp_path, named)
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert [line.split("\t")[0] for line in manifest] == sorted(named)
    back = ck.load_checkpoint(tmp_path)
    assert set(back) == set(named)
    np.testing.assert_array_equal(back["det.q_embed"], named["det.q_embed"])
    np.testing.assert_array_equal(back["adapter.gate"], np.zeros(2))


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


def test_missing_manifest(tmp_path):
    with pytest.raises(UsageError):
        ck.load_checkpoint(tmp_path)


@pytest.mark.parametrize("line", ["gain\tgain.ledt",
                                  "gain\tgain.ledt\t2\textra",
                                  "gain\tgain.ledt\t2,x"])
def test_malformed_manifest_line_is_named(tmp_path, line):
    """A manifest line without exactly three fields, or with a non-integer
    extent, is a named error that quotes the line."""
    ck.save_checkpoint(tmp_path, {"gain": np.ones(2)})
    (tmp_path / "manifest.txt").write_text(line + "\n")
    with pytest.raises(UsageError, match="manifest.txt line 1: ") as err:
        ck.load_checkpoint(tmp_path)
    assert repr(line) in str(err.value)
