"""Command-line surface: which commands leave files behind, and what the
long-running ones print."""

from fusedet import analysis, cli
from fusedet import training as tr


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
        results = []
        for seed in seeds:
            for l_lm in layers:
                metrics = {split: {"acc": 0.25 * l_lm + 0.125 * seed,
                                   "mean_iou": 0.5} for split in vals}
                results.append(analysis.AblationResult(l_lm, seed, metrics))
                progress(results[-1])
        return results

    monkeypatch.setattr(analysis, "layer_sweep", sweep)
    assert cli.cli(["ablate-layers", "--config", "tiny.cfg", "--layers", "0,2",
                    "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "l_lm=0 seed=1 val-category acc 0.125 val-spatial acc 0.125",
        "l_lm=2 seed=1 val-category acc 0.625 val-spatial acc 0.625",
    ]
    assert (tmp_path / "runs" / "ablation.csv").is_file()
