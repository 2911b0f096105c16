"""Command-line surface: which commands leave files behind, and what the
long-running ones print."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import tomllib
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
    (tmp_path / "tiny.cfg").write_text("n_val = 2\nmllm.n = 2\n")
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
    (tmp_path / "tiny.cfg").write_text(
        "n_val = 2\nmllm.n = 1\nadapter.l_lm = 1\n")
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


TINY_RUN = (
    "n_pretrain = 16\nn_train = 16\nn_val = 10\n"
    "pretrain_steps = 10\ns1_steps = 10\ns2_steps = 10\ns3_steps = 10\n"
    "sub_steps = 10\n"
    "pretrain_batch = 4\ns1_batch = 4\ns2_batch = 4\ns3_batch = 4\n"
    "sub_batch = 4\n"
    "mllm.n = 2\nadapter.l_lm = 1\ndetector.depth = 2\n")


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """A tiny run staged through ``train --stage 1 → 2 → 3``: its config
    file and its run directory, which tests copy before writing to."""
    root = tmp_path_factory.mktemp("staged")
    config = root / "tiny.cfg"
    config.write_text(TINY_RUN)
    out = root / "runs"
    for stage in ("1", "2", "3"):
        assert cli.cli(["train", "--stage", stage, "--config", str(config),
                        "--out", str(out)]) == 0
    return config, out


def copy_run(staged, tmp_path) -> Path:
    _, out = staged
    return Path(shutil.copytree(out, tmp_path / "runs"))


def assert_scores(out: Path, head: str, metrics: dict) -> None:
    """``eval``'s metrics and per-scene records for ``head`` under ``out``
    equal ``metrics`` (``evaluate``'s, by split) bit for bit."""
    scored = json.loads((out / "eval.json").read_text())["metrics"][head]
    assert list(scored) == list(metrics)
    for split, m in metrics.items():
        m = dict(m)
        per_scene = m.pop("per_scene")
        assert scored[split] == m, (head, split)
        lines = (out / f"per-scene-{head}-{split}.jsonl").read_text()
        assert [json.loads(line) for line in lines.splitlines()] == [
            dict(rec, scene=i) for i, rec in enumerate(per_scene)], split


def reported(out: Path, stage: str) -> dict:
    return json.loads((out / f"report-{stage}.json").read_text())["metrics"]


def test_staged_run_equals_one_process(staged, tmp_path):
    """``train --stage 1 → 2 → 3`` through checkpoints trains the same
    adapter, bit for bit, as the same run in one process.  ``eval`` on its
    checkpoints scores the baseline exactly as that process does on the
    stage-2 backbones, and the adapter and the substitution control exactly
    as their stages reported."""
    config, _ = staged
    out = copy_run(staged, tmp_path)
    cfg = load_file(config)
    staged_state = tr.build_adapter(cfg)
    tr.restore(staged_state, load_checkpoint(out / "adapter"))
    staged_mllm, _ = tr.build_models(cfg)
    tr.restore(staged_mllm.projector,
               load_checkpoint(out / "adapter-projector"))

    mllm, det, _ = tr.prepare_backbones(cfg)
    stage2 = tr.snapshot(mllm.projector)
    baseline = {split: tr.evaluate(cfg, mllm, det, tr.load_split(cfg, split))
                for split in ("val-category", "val-spatial")}
    state, _ = tr.run_stage3_experiment(
        cfg, mllm, det, stage2, tr.load_split(cfg, "train"), {})
    assert tr.module_digest(staged_state) == tr.module_digest(state)
    assert (tr.module_digest(staged_mllm.projector)
            == tr.module_digest(mllm.projector))

    for command in ("substitute-baseline", "eval"):
        assert cli.cli([command, "--config", str(config),
                        "--out", str(out)]) == 0
    assert_scores(out, "baseline", baseline)
    assert_scores(out, "adapter", reported(out, "stage3"))
    assert_scores(out, "substitution", reported(out, "substitution"))


def test_fused_eval_needs_the_stage3_projector(staged, tmp_path, capsys):
    """A run directory without the projector stage 3 trained is refused,
    not scored with the stage-2 projector."""
    config, _ = staged
    out = copy_run(staged, tmp_path)
    shutil.rmtree(out / "adapter-projector")
    assert cli.cli(["eval", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: missing prerequisite checkpoint "
                   f"{out / 'adapter-projector'} -- run the earlier stage "
                   f"first\n"), err


def test_head_without_its_report_is_refused(staged, tmp_path, capsys):
    """A head is rebuilt from the settings its stage recorded, so a head
    whose report is gone is refused by name rather than rebuilt from
    ``--config``."""
    config, _ = staged
    out = copy_run(staged, tmp_path)
    (out / "report-stage3.json").unlink()
    assert cli.cli(["eval", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: missing prerequisite report "
                   f"{out / 'report-stage3.json'} -- run the earlier stage "
                   f"first\n"), err


@pytest.fixture(scope="module")
def arch_ii_run(staged, tmp_path_factory):
    """The staged run with an Arch II adapter trained at stage 3 and the
    substitution control at ``adapter.l_lm = 1``."""
    config, out = staged
    root = tmp_path_factory.mktemp("arch-ii")
    out = Path(shutil.copytree(out, root / "runs"))
    arch_ii = root / "arch-ii.cfg"
    arch_ii.write_text(TINY_RUN + "adapter.arch = II\n")
    for command in (["train", "--stage", "3"], ["substitute-baseline"]):
        assert cli.cli(command + ["--config", str(arch_ii),
                                  "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("setting", [
    "adapter.arch = III\n", "adapter.l_lm = 2\n", "adapter.l_d = 1\n"],
    ids=["arch", "l_lm", "l_d"])
def test_eval_scores_each_head_as_it_trained(arch_ii_run, tmp_path, setting):
    """``eval`` rebuilds each head from the ``adapter`` section its stage
    recorded, whatever ``--config`` says: Arch II and III share every
    parameter shape, so an adapter rebuilt from ``--config`` would restore
    and score as the wrong head, and the substitution control would read
    the wrong LM layer."""
    out = Path(shutil.copytree(arch_ii_run, tmp_path / "runs"))
    key = setting.split(" = ")[0]
    kept = [line for line in TINY_RUN.splitlines(keepends=True)
            if line.split(" = ")[0] != key]
    (tmp_path / "eval.cfg").write_text("".join(kept) + setting)
    assert cli.cli(["eval", "--config", str(tmp_path / "eval.cfg"),
                    "--out", str(out)]) == 0
    assert_scores(out, "adapter", reported(out, "stage3"))
    assert_scores(out, "substitution", reported(out, "substitution"))


def test_eval_json_records_each_heads_config(arch_ii_run, tmp_path):
    """``eval.json``'s ``config`` is keyed by head like its ``metrics``:
    each entry is the config that head was scored under, so a head carries
    the adapter section it trained with, not the one ``--config`` names."""
    out = Path(shutil.copytree(arch_ii_run, tmp_path / "runs"))
    (tmp_path / "eval.cfg").write_text(TINY_RUN + "adapter.arch = III\n")
    assert cli.cli(["eval", "--config", str(tmp_path / "eval.cfg"),
                    "--out", str(out)]) == 0
    configs = json.loads((out / "eval.json").read_text())["config"]
    assert set(configs) == {"baseline", "adapter", "substitution"}
    assert configs["baseline"]["adapter.arch"] == "III"
    assert configs["adapter"]["adapter.arch"] == "II"
    assert configs["adapter"]["adapter.l_d"] == 2
    assert configs["substitution"]["adapter.l_lm"] == 1


def test_head_report_with_a_removed_key_is_refused(staged, tmp_path, capsys):
    """A head is rebuilt from its report's whole config, checked like a
    config file: a report naming a key the config does not have, such as
    ``adapter.conv_k`` in a run directory from an older version, is refused
    by name before anything is scored."""
    config, _ = staged
    out = copy_run(staged, tmp_path)
    path = out / "report-stage3.json"
    report = json.loads(path.read_text())
    report["config"]["adapter.conv_k"] = 3
    path.write_text(json.dumps(report))
    assert cli.cli(["eval", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: unknown config keys: ['adapter.conv_k']\n", err
    assert not list(out.glob("per-scene-*"))


@pytest.mark.parametrize("command", ["eval", "flops-report", "ablate-layers"])
def test_seed_is_refused_where_it_selects_nothing(tmp_path, monkeypatch,
                                                  capsys, command):
    """``eval`` restores every module it scores, ``flops-report`` draws from
    a fixed generator and ``ablate-layers`` takes its run seeds from
    ``--seeds``, so ``--seed`` would change nothing but a line of
    ``resolved-config.txt``; argparse refuses it."""
    monkeypatch.chdir(tmp_path)
    assert cli.cli([command, "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key, checkpoint", [
    (["eval"], "mllm.heads", "mllm-stage2"),
    (["eval"], "detector.heads", "detector"),
    (["train", "--stage", "2"], "mllm.heads", "mllm-stage1"),
    (["train", "--stage", "3"], "detector.heads", "detector"),
    (["substitute-baseline"], "mllm.heads", "mllm-stage2"),
    (["ablate-layers", "--layers", "0", "--seeds", "0"], "detector.heads",
     "detector"),
    (["analyze-attention", "--batch", "2"], "mllm.heads", "mllm-stage2")],
    ids=["eval-mllm", "eval-detector", "stage2", "stage3", "substitution",
         "ablate-layers", "analyze-attention"])
def test_backbone_settings_are_checked_at_restore(staged, tmp_path, capsys,
                                                  command, key, checkpoint):
    """Head counts change no parameter shape, so restoring a backbone under
    another count would succeed and score a different model; every command
    that loads one refuses a section that differs from stage 1's, naming
    the key."""
    config, _ = staged
    out = copy_run(staged, tmp_path)
    (tmp_path / "heads.cfg").write_text(TINY_RUN + f"{key} = 2\n")
    assert cli.cli(command + ["--config", str(tmp_path / "heads.cfg"),
                              "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {key} = 2 differs from 4, the value "
                   f"{out / 'report-stage1.json'} records for "
                   f"{out / checkpoint}\n"), err


@pytest.mark.parametrize("command, written", [
    ("gen-data", ["scenes.jsonl"]),
    ("substitute-baseline",
     ["substitution/manifest.txt", "substitution-projector/manifest.txt",
      "report-substitution.json", "losses-substitution.jsonl",
      "metrics-substitution.jsonl"]),
    ("eval", ["eval.json", "per-scene-baseline-val-category.jsonl",
              "per-scene-baseline-val-spatial.jsonl",
              "per-scene-adapter-val-category.jsonl",
              "per-scene-adapter-val-spatial.jsonl"]),
    ("flops-report", ["compute_report.csv"]),
])
def test_writing_command_runs_on_the_staged_run(staged, tmp_path, command,
                                                written):
    """Each command that writes output succeeds on the tiny staged run and
    leaves its files next to the resolved config."""
    config, _ = staged
    out = copy_run(staged, tmp_path)
    for name in written:
        assert not (out / name).exists(), name
    assert cli.cli([command, "--config", str(config), "--out", str(out)]) == 0
    for name in written + ["resolved-config.txt"]:
        assert (out / name).is_file(), name
    if command == "flops-report":
        cfg = load_file(out / "resolved-config.txt")
        analysis.write_compute_csv(
            analysis.compute_report(cfg.detector, cfg.mllm,
                                    cfg.adapter),
            tmp_path / "want.csv")
        assert ((out / "compute_report.csv").read_text()
                == (tmp_path / "want.csv").read_text())


def test_gradcheck_seed_reaches_the_catalogue(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seeds = []
    monkeypatch.setattr(cli, "run_gradcheck",
                        lambda seed: seeds.append(seed) or [("stub", 0.0)])
    assert cli.cli(["gradcheck", "--seed", "7"]) == 0
    assert seeds == [7]


def test_configuration_error_is_a_named_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("adapter.arch = V\n")
    assert cli.cli(["flops-report", "--config", "bad.cfg"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'V'" in err


@pytest.mark.parametrize("text, message", [
    ("adapter.arch = V\n", "arch 'V' not one of ('I', 'II', 'III', 'IV')"),
    ("mllm.n = 1\n", "l_lm 2 outside [0, 1]"),
    ("detector.depth = 2\nadapter.l_d = 4\n", "l_d 4 outside [1, 2]")],
    ids=["arch", "l_lm", "l_d"])
def test_adapter_that_cannot_attach_fails_before_stage_1(
        tmp_path, monkeypatch, capsys, text, message):
    """The adapter is first built at stage 3, but its config is checked at
    load: ``train --stage 1`` refuses it before training anything."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(
        "n_pretrain = 4\npretrain_steps = 1\npretrain_batch = 4\n"
        "s1_steps = 1\ns1_batch = 4\n" + text)
    assert cli.cli(["train", "--stage", "1", "--config", "bad.cfg"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "runs").exists()


def test_too_few_queries_is_a_named_error(tmp_path, monkeypatch, capsys):
    """Scenes carry up to ``scenes.MAX_CANDIDATES`` = 4 candidates; three
    detector queries cannot pool them, so the config is refused when it
    loads, naming the key, before any stage writes a run directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text(
        "n_pretrain = 16\npretrain_batch = 16\nmllm.n = 1\nadapter.l_lm = 1\n"
        "detector.depth = 1\ndetector.queries = 3\n")
    assert cli.cli(["train", "--stage", "1", "--config", "tiny.cfg"]) == 1
    assert capsys.readouterr().err == (
        "error: detector.queries must be at least 4, the most candidates a "
        "scene has, got 3\n")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, value", [
    ("canvas", "32"), ("vocab", "64"), ("proj_in", "192"),
    ("rope_base", "10000.0"), ("s3_mlp_lr", "0.0002"), ("mllm.canvas", "32"),
    ("det_depth", "2"), ("lm_layers", "2"), ("l_d", "2"), ("arch", "IV"),
    ("detector.box_weight", "5.0"), ("detector.phrase_weight", "1.0"),
    ("detector.background_weight", "0.5"), ("detector.mlp_ratio", "2"),
    ("mllm.mlp_ratio", "2"), ("adapter.conv_k", "3"),
    ("adapter.conv_pad", "1")])
def test_removed_config_keys_are_named_errors(tmp_path, monkeypatch, capsys,
                                               key, value):
    """The canvas and vocabulary come from the scenes, the RoPE base, the
    MLP ratio, the loss weights and the prompt conv's kernel and padding are
    constants, and the projector width and stage-3 projector lr are
    derived, so a config file that still sets one is refused by name.  So
    is a flat key for a model setting, whose key is ``section.field``."""
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


def test_zero_steps_is_a_named_error(tmp_path, monkeypatch, capsys):
    """A stage budget below 1 is refused before any stage runs, instead of
    training nothing and reporting a ``NaN`` final loss."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text(
        "s1_steps = 0\nn_pretrain = 4\npretrain_steps = 1\npretrain_batch = 4\n")
    assert cli.cli(["train", "--stage", "1", "--config", "tiny.cfg"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: s1_steps must be at least 1, got 0\n",
                        err), err


BAD_VALUES = [
    ("mllm.patch = 0", "mllm.patch must be at least 1, got 0"),
    ("mllm.heads = 0", "mllm.heads must be at least 1, got 0"),
    ("adapter.conv_stride = 0",
     "adapter.conv_stride must be at least 1, got 0"),
    ("detector.heads = 0", "detector.heads must be at least 1, got 0"),
    ("detector.queries = 0", "detector.queries must be at least 1, got 0"),
    ("mllm.sys_len = 0", "mllm.sys_len must be at least 1, got 0"),
    ("n_val = 0", "n_val must be at least 1, got 0"),
    ("pretrain_lr = -1", "pretrain_lr must be positive, got -1.0"),
    ("s3_adapter_lr = 0", "s3_adapter_lr must be positive, got 0.0")]


@pytest.mark.parametrize("text, message", BAD_VALUES, ids=[
    text.replace(" = ", "=") for text, _ in BAD_VALUES])
def test_bad_config_value_is_a_named_error(tmp_path, monkeypatch, capsys,
                                           text, message):
    """A size, count or stride below 1 or a learning rate that is not
    positive is refused when the config loads, naming its key: the first
    four used to raise ``ZeroDivisionError`` here, zero queries failed only
    inside a pass, and the rest were accepted (zero ``sys_len`` then failed
    in ``analyze-attention``, with no system keys to score)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(text + "\n")
    assert cli.cli(["flops-report", "--config", "bad.cfg"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_attention_batch_beyond_the_split_is_a_named_error(
        tmp_path, monkeypatch, capsys):
    """``--batch`` above ``n_val`` used to profile only ``n_val`` scenes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text("n_val = 2\n")
    assert cli.cli(["analyze-attention", "--config", "tiny.cfg",
                    "--batch", "3"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: --batch 3 exceeds n_val 2, the scenes there are "
                   "to profile\n"), err


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
