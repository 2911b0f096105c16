"""Command-line surface: which commands leave files behind, and what the
long-running ones print."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fusedet import analysis, cli
from fusedet import training as tr
from fusedet.checkpoint import load_checkpoint, save_checkpoint
from fusedet.config import load_file


def test_gradcheck_is_read_only(tmp_path, monkeypatch):
    """``gradcheck`` creates no ``--out`` directory and writes no
    resolved config; the verification itself is stubbed to keep this fast."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_gradcheck", lambda seed: [("stub", 0.0)])
    assert cli.cli(["gradcheck"]) == 0
    assert cli.cli(["gradcheck", "--out", "elsewhere"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_writing_commands_keep_the_resolved_config(tmp_path, monkeypatch):
    """A command that writes still records its config under ``--out`` first,
    even when it then fails for a missing checkpoint."""
    monkeypatch.chdir(tmp_path)
    assert cli.cli(["eval"]) == 1
    assert (tmp_path / "runs" / "resolved-config.txt").is_file()


def test_ablate_layers_prints_one_line_per_point(tmp_path, monkeypatch, capsys):
    """Sweep progress is one readable line per (l_lm, seed) point, not a
    dataclass repr; the sweep itself is stubbed to keep this fast."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text("n_train = 4\nn_val = 4\n")
    monkeypatch.setattr(cli, "_backbones",
                        lambda cfg, out: tr.build_models(cfg))

    def sweep(cfg, mllm, det, snap, train, vals, layers, seeds, progress):
        rows = []
        for seed in seeds:
            for l_lm in layers:
                row = {"l_lm": l_lm, "seed": seed}
                for split in vals:
                    row[f"{split}/acc"] = 0.25 * l_lm + 0.125 * seed
                    row[f"{split}/mean_iou"] = 0.5
                rows.append(row)
                progress(row)
        return rows

    monkeypatch.setattr(analysis, "layer_sweep", sweep)
    assert cli.cli(["ablate-layers", "--config", "tiny.cfg", "--layers", "0,2",
                    "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "l_lm=0 seed=1 val-category acc 0.125 val-spatial acc 0.125",
        "l_lm=2 seed=1 val-category acc 0.625 val-spatial acc 0.625",
    ]
    assert (tmp_path / "runs" / "ablation.csv").is_file()


def test_analyze_attention_prints_one_line_per_row(tmp_path, monkeypatch,
                                                   capsys):
    """One ``layer N <modality>: median ±x.xxxx`` line per profile row; the
    stage-2 checkpoint load is stubbed, so the LM keeps its init weights."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text("n_val = 2\nlm_layers = 2\n")
    monkeypatch.setattr(cli, "_load_into", lambda module, out, name: None)
    assert cli.cli(["analyze-attention", "--config", "tiny.cfg",
                    "--batch", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [(layer, name) for layer in (1, 2) for name in analysis.MODALITIES]
    assert len(lines) == len(rows) + 1
    for line, (layer, name) in zip(lines, rows):
        assert re.fullmatch(rf"layer {layer} {name}: median [+-]\d+\.\d{{4}}",
                            line), line
    assert (tmp_path / "runs" / "attention_profile.csv").is_file()


@pytest.mark.parametrize("batch", ["0", "-1"])
def test_non_positive_attention_batch_is_a_named_error(tmp_path, monkeypatch,
                                                       capsys, batch):
    """``--batch`` below 1 is refused before any scene is sliced: 0 used to
    fail inside the padding code, -1 to profile all scenes but one."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text("n_val = 2\nlm_layers = 1\n")
    monkeypatch.setattr(cli, "_load_into", lambda module, out, name: None)
    assert cli.cli(["analyze-attention", "--config", "tiny.cfg",
                    "--batch", batch]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --batch must be at least 1, got {batch}\n", err


@pytest.mark.parametrize("flag", ["--layers", "--seeds"])
def test_non_integer_sweep_list_is_a_named_error(tmp_path, monkeypatch,
                                                 capsys, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text("n_train = 4\nn_val = 4\n")
    monkeypatch.setattr(cli, "_backbones",
                        lambda cfg, out: tr.build_models(cfg))
    assert cli.cli(["ablate-layers", "--config", "tiny.cfg", flag, "0,a"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {flag} takes comma-separated integers, "
                   f"got '0,a'\n"), err


@pytest.mark.parametrize("flag, text", [("--layers", ""), ("--seeds", ",")])
def test_empty_sweep_list_is_a_named_error(tmp_path, monkeypatch, capsys,
                                           flag, text):
    """A sweep with no point fails before any model is built or loaded."""
    monkeypatch.chdir(tmp_path)
    assert cli.cli(["ablate-layers", flag, text]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {flag} takes comma-separated integers, "
                   f"got {text!r}\n"), err


def test_staged_run_equals_one_process(tmp_path, monkeypatch):
    """``train --stage 1 → 2 → 3`` through checkpoints trains the same
    adapter, bit for bit, as the same run in one process."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text(
        "n_pretrain = 16\nn_train = 16\nn_val = 10\n"
        "pretrain_steps = 10\ns1_steps = 10\ns2_steps = 10\ns3_steps = 10\n"
        "pretrain_batch = 4\ns1_batch = 4\ns2_batch = 4\ns3_batch = 4\n"
        "lm_layers = 2\nl_lm = 1\ndet_depth = 2\nl_d = 2\n")
    for stage in ("1", "2", "3"):
        assert cli.cli(["train", "--stage", stage, "--config", "tiny.cfg"]) == 0
    cfg = load_file("tiny.cfg")
    staged = tr.build_adapter(cfg)
    tr.restore(staged, load_checkpoint(tmp_path / "runs" / "adapter"))

    mllm, det, _ = tr.prepare_backbones(cfg)
    state, _ = tr.run_stage3_experiment(
        cfg, mllm, det, tr.snapshot(mllm.projector),
        tr.load_split(cfg, "train"), {})
    assert tr.module_digest(staged) == tr.module_digest(state)


def test_gradcheck_seed_reaches_the_catalogue(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seeds = []
    monkeypatch.setattr(cli, "run_gradcheck",
                        lambda seed: seeds.append(seed) or [("stub", 0.0)])
    assert cli.cli(["gradcheck", "--seed", "7"]) == 0
    assert seeds == [7]


def test_configuration_error_is_a_named_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("arch = V\n")
    assert cli.cli(["flops-report", "--config", "bad.cfg"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'V'" in err


def test_too_few_queries_is_a_named_error(tmp_path, monkeypatch, capsys):
    """Scenes carry up to four candidates; three detector queries cannot
    pool them, and the error names both counts."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text(
        "n_pretrain = 16\npretrain_batch = 16\nlm_layers = 1\n"
        "det_depth = 1\ndet_queries = 3\n")
    assert cli.cli(["train", "--stage", "1", "--config", "tiny.cfg"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: scene \d+ has 4 candidates, more than "
                        r"max_c=3 \(the detector's query count\)\n", err), err


@pytest.mark.parametrize("key, value", [
    ("canvas", "32"), ("vocab", "64"), ("proj_in", "192"),
    ("rope_base", "10000.0"), ("s3_mlp_lr", "0.0002")])
def test_removed_config_keys_are_named_errors(tmp_path, monkeypatch, capsys,
                                               key, value):
    """The canvas and vocabulary come from the scenes, the RoPE base is a
    constant, and the projector width and stage-3 projector lr are derived,
    so a config file that still sets one is refused by name."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old.cfg").write_text(f"{key} = {value}\n")
    assert cli.cli(["flops-report", "--config", "old.cfg"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: unknown config keys: [{key!r}]\n", err


def test_zero_eval_chunk_is_a_named_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text(
        "eval_chunk = 0\nn_pretrain = 4\npretrain_steps = 1\npretrain_batch = 4\n")
    assert cli.cli(["train", "--stage", "1", "--config", "tiny.cfg"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: eval_chunk must be at least 1, got 0\n",
                        err), err


def test_zero_batch_is_a_named_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text(
        "pretrain_batch = 0\nn_pretrain = 4\npretrain_steps = 1\n")
    assert cli.cli(["train", "--stage", "1", "--config", "tiny.cfg"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: pretrain_batch must be at least 1, got 0\n",
                        err), err


def test_malformed_manifest_is_a_named_error(tmp_path, monkeypatch, capsys):
    """``eval`` on a checkpoint whose manifest line names no parameter file,
    such as an old ``name<TAB>file<TAB>shape`` line, prints the file it
    looked for and exits 1, not a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs" / "detector").mkdir(parents=True)
    (tmp_path / "runs" / "detector" / "manifest.txt").write_text(
        "gain\tgain.ledt\n")
    assert cli.cli(["eval"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: runs/detector/gain\tgain.ledt.npy: missing, "
                        r"but manifest.txt names it\n", err), err


def test_truncated_parameter_file_is_a_named_error(tmp_path, monkeypatch,
                                                   capsys):
    """``eval`` on a checkpoint with a truncated ``.npy`` file names that
    file and exits 1."""
    monkeypatch.chdir(tmp_path)
    save_checkpoint(tmp_path / "runs" / "detector", {"gain": np.ones(4)})
    path = tmp_path / "runs" / "detector" / "gain.npy"
    path.write_bytes(path.read_bytes()[:-8])
    assert cli.cli(["eval"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: runs/detector/gain\.npy: .+\n", err), err


def test_console_entry_point_resolves():
    """``pyproject.toml``'s ``fusedet`` script names a callable, and the
    module runs as ``python -m fusedet.cli``."""
    tomllib = pytest.importorskip("tomllib")      # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fusedet"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "fusedet.cli", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: fusedet"), done.stdout
