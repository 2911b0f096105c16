"""Command-line surface of the experiments; ``fusedet --help`` lists the
commands.

Every command takes ``--config FILE`` (``key = value`` lines such as
``detector.depth = 2``, checked as ``config.py`` says).  A command takes
``--seed N`` only where it declares the config fields that seed sets (the
model and data seeds for a backbone stage, the run seed for a head), and
``--out DIR`` only where it writes; there it first writes the resolved config
to ``DIR/resolved-config.txt``.  Checkpoints are directories of numpy
``.npy`` files, one per parameter, listed by a manifest (see
``checkpoint.py``); reports are JSON with the resolved config embedded, plus
JSON-lines for per-step / per-scene records and CSV for tables.

Checkpoint layout under ``--out`` (the default is ``./runs``):

    detector/       grounding detector after synthetic-task pretraining
    mllm-stage1/    LM + projector after captioning pretraining
    mllm-stage2/    projector re-alignment (the fusion baseline)
    adapter/        stage-3 fusion adapter
    substitution/   linear substitution control
    <head>-projector/
                    the projector trained alongside adapter or substitution

``eval`` scores the stage-2 ``baseline`` and each head checkpointed there, on
its own projector and rebuilt from the ``adapter`` section of the config its
stage recorded in ``report-<stage>.json``, never from ``--config``.
``eval.json`` holds, by head, the config the head was scored under
(``config``) and its metrics by split (``metrics``); per-scene records go to
``per-scene-<head>-<split>.jsonl``.  A backbone checkpoint loads only under
the ``mllm`` / ``detector`` section ``report-stage1.json`` recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import analysis, training as tr
from .checkpoint import MANIFEST, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, load_file, save_file
from .scenes import SPLITS, pad_token_rows
from .tensor import (ConfigurationError, DegenerateInputError, DimensionError,
                     NumericsError, UsageError)
from .verify import GRADCHECK_TOL, max_error, report_lines, run_gradcheck


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _save_stage_report(out: Path, name: str, report: dict) -> None:
    tr.save_report(report, out / f"report-{name}.json")
    _write_jsonl(out / f"losses-{name}.jsonl",
                 ({"step": i + 1, "loss": loss}
                  for i, loss in enumerate(report["losses"])))


def _summarize(label: str, metrics: dict) -> dict:
    """``metrics`` by split without their per-scene records; prints one
    ``<label> <split>: acc … mean_iou …`` line per split."""
    summary = {}
    for split, m in metrics.items():
        summary[split] = {k: v for k, v in m.items() if k != "per_scene"}
        print(f"{label} {split}: acc {m['acc']:.3f} "
              f"mean_iou {m['mean_iou']:.3f}")
    return summary


def _missing(kind: str, path: Path) -> UsageError:
    return UsageError(f"missing prerequisite {kind} {path} -- run the "
                      f"earlier stage first")


def _recorded_config(out: Path, stage: str) -> dict:
    """The config ``report-<stage>.json`` recorded, by config key."""
    path = out / f"report-{stage}.json"
    if not path.exists():
        raise _missing("report", path)
    try:
        report = json.loads(path.read_text())
    except ValueError as err:              # also a file that is not UTF-8
        raise UsageError(f"{path}: not JSON: {err}") from None
    config = report.get("config") if isinstance(report, dict) else None
    if not isinstance(config, dict):
        raise UsageError(f"{path}: no config object")
    return config


# backbone checkpoints: the config section each is built from
_BACKBONES = {"detector": "detector", "mllm-stage1": "mllm",
              "mllm-stage2": "mllm"}


def _load_into(module, out: Path, name: str) -> None:
    path = out / name
    if not (path / MANIFEST).exists():
        raise _missing("checkpoint", path)
    snap = load_checkpoint(path)
    section = _BACKBONES.get(name)
    if section is not None:
        recorded = _recorded_config(out, "stage1")
        for f in fields(module.cfg):
            key, value = f"{section}.{f.name}", getattr(module.cfg, f.name)
            # a field that is no config key (mllm.canvas) is never recorded
            if recorded.get(key, value) != value:
                raise ConfigurationError(
                    f"{key} = {value} differs from {recorded[key]}, the value "
                    f"{out / 'report-stage1.json'} records for {path}")
    tr.restore(module, snap)


def _backbones(cfg: ExperimentConfig, out: Path):
    """Frozen models as left by `train --stage 2` (+ detector pretraining)."""
    mllm, det = tr.build_models(cfg)
    _load_into(det, out, "detector")
    _load_into(mllm, out, "mllm-stage2")
    return mllm, det


def _val_splits(cfg: ExperimentConfig) -> dict:
    return {"val-category": tr.load_split(cfg, "val-category"),
            "val-spatial": tr.load_split(cfg, "val-spatial")}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(cfg: ExperimentConfig, out: Path, args) -> int:
    records = []
    for split in SPLITS:
        for i, s in enumerate(tr.load_split(cfg, split)):
            records.append({
                "split": split, "index": i,
                "objects": [{"shape": o.shape, "color": o.color,
                             "box": [round(float(v), 6) for v in o.box]}
                            for o in s.objects],
                "caption": s.caption.tolist(),
                "query": {"ids": s.query.ids.tolist(),
                          "target_box": s.query.target_box.tolist(),
                          "kind": s.query.kind},
                "n_candidates": len(s.candidates),
            })
    _write_jsonl(out / "scenes.jsonl", records)
    print(f"wrote {len(records)} scenes to {out / 'scenes.jsonl'}")
    return 0


def cmd_train(cfg: ExperimentConfig, out: Path, args) -> int:
    if args.stage == 1:
        mllm, det = tr.build_models(cfg)
        pretrain = tr.load_split(cfg, "pretrain")
        rep = tr.pretrain_detector(cfg, mllm, det, pretrain)
        save_checkpoint(out / "detector", tr.snapshot(det))
        _save_stage_report(out, "pretrain-detector", rep)
        rep = tr.train_stage1(cfg, mllm, pretrain)
        save_checkpoint(out / "mllm-stage1", tr.snapshot(mllm))
        _save_stage_report(out, "stage1", rep)
        print(f"stage 1 done: final captioning loss {rep['final_loss']:.4f}")
        return 0

    if args.stage == 2:
        mllm, _ = tr.build_models(cfg)
        _load_into(mllm, out, "mllm-stage1")
        rep = tr.train_stage2(cfg, mllm, tr.load_split(cfg, "pretrain"))
        save_checkpoint(out / "mllm-stage2", tr.snapshot(mllm))
        _save_stage_report(out, "stage2", rep)
        print(f"stage 2 done: final captioning loss {rep['final_loss']:.4f}")
        return 0

    return _train_head(cfg, out, "adapter")


# each head's checkpoint: the stage whose report records the settings it
# trained under, how to build it, the keyword ``evaluate`` takes it by, the
# experiment that trains it and the label its metric lines print
_HEADS = {
    "adapter": ("stage3", lambda cfg, mllm: tr.build_adapter(cfg), "state",
                tr.run_stage3_experiment, "stage 3"),
    "substitution": ("substitution", tr.build_substitution, "sub",
                     tr.run_substitution_experiment, "substitution"),
}


def _train_head(cfg: ExperimentConfig, out: Path, head: str) -> int:
    """Train ``head`` on the frozen backbones, save its checkpoint and that
    of the projector it trained alongside, its report and metrics, and
    print one line per split."""
    name, _, _, experiment, label = _HEADS[head]
    mllm, det = _backbones(cfg, out)
    module, rep = experiment(cfg, mllm, det, tr.snapshot(mllm.projector),
                             tr.load_split(cfg, "train"), _val_splits(cfg))
    save_checkpoint(out / head, tr.snapshot(module))
    save_checkpoint(out / f"{head}-projector", tr.snapshot(mllm.projector))
    _save_stage_report(out, name, rep)
    _write_jsonl(out / f"metrics-{name}.jsonl",
                 (dict(m, split=split) for split, m
                  in _summarize(label, rep["metrics"]).items()))
    return 0


def _int_list(flag: str, text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        values = []
    if not values:
        raise UsageError(
            f"{flag} takes comma-separated integers, got {text!r}")
    return values


def _sweep_point_line(row: dict) -> str:
    accs = " ".join(f"{col.removesuffix('/acc')} acc {v:.3f}"
                    for col, v in row.items() if col.endswith("/acc"))
    return f"l_lm={row['l_lm']} seed={row['seed']} {accs}"


def cmd_ablate_layers(cfg: ExperimentConfig, out: Path, args) -> int:
    layers = _int_list("--layers", args.layers)
    seeds = _int_list("--seeds", args.seeds)
    mllm, det = _backbones(cfg, out)
    rows = analysis.layer_sweep(
        cfg, mllm, det, tr.snapshot(mllm.projector),
        tr.load_split(cfg, "train"), _val_splits(cfg), layers, seeds,
        progress=lambda row: print(_sweep_point_line(row), flush=True))
    analysis.write_ablation_csv(rows, out / "ablation.csv")
    for l_lm, mean in analysis.rank_layers(rows):
        print(f"l_lm={l_lm}: mean val-spatial acc {mean:.3f}")
    print(f"wrote {out / 'ablation.csv'}")
    return 0


def cmd_analyze_attention(cfg: ExperimentConfig, out: Path, args) -> int:
    if args.batch < 1:
        raise UsageError(f"--batch must be at least 1, got {args.batch}")
    if args.batch > cfg.n_val:
        raise UsageError(f"--batch {args.batch} exceeds n_val {cfg.n_val}, "
                         f"the scenes there are to profile")
    mllm, _ = tr.build_models(cfg)
    _load_into(mllm, out, "mllm-stage2")
    scenes = tr.load_split(cfg, "val-category")[:args.batch]
    ids, valid = pad_token_rows([s.caption for s in scenes])
    images = np.stack([s.image for s in scenes])
    rows = analysis.attention_medians(mllm, images, ids, valid)
    analysis.write_attention_csv(rows, out / "attention_profile.csv")
    for r in rows:
        print(f"layer {r['layer']} {r['modality']}: median {r['median']:+.4f}")
    print(f"wrote {out / 'attention_profile.csv'}")
    return 0


def cmd_flops_report(cfg: ExperimentConfig, out: Path, args) -> int:
    rows = analysis.compute_report(cfg.detector, cfg.mllm, cfg.adapter,
                                   measure_latency=args.latency)
    analysis.write_compute_csv(rows, out / "compute_report.csv")
    for row in rows:
        lat = (f"  {row['latency_ms']:.3f} ms" if row["latency_ms"] is not None
               else "")
        print(f"{row['framework']:12s} params {row['params']:>8d}  "
              f"GFLOPs {row['flops_metered'] / 1e9:.6f}{lat}")
    print(f"wrote {out / 'compute_report.csv'}")
    return 0


def cmd_gradcheck(cfg: ExperimentConfig, out: None, args) -> int:
    results = run_gradcheck(cfg.run_seed)
    print("\n".join(report_lines(results)))
    return 0 if max_error(results) < GRADCHECK_TOL else 1


def cmd_eval(cfg: ExperimentConfig, out: Path, args) -> int:
    mllm, det = _backbones(cfg, out)
    heads = [(head, replace(cfg, adapter=ExperimentConfig.from_dict(
                 _recorded_config(out, stage)).adapter), build, keyword)
             for head, (stage, build, keyword, *_) in _HEADS.items()
             if (out / head).is_dir()]
    splits = _val_splits(cfg)
    configs, summary = {}, {}

    def score(head: str, head_cfg: ExperimentConfig, **module) -> None:
        metrics = {split: tr.evaluate(head_cfg, mllm, det, scenes, **module)
                   for split, scenes in splits.items()}
        for split, m in metrics.items():
            _write_jsonl(out / f"per-scene-{head}-{split}.jsonl",
                         (dict(rec, scene=i)
                          for i, rec in enumerate(m["per_scene"])))
        configs[head] = head_cfg.to_dict()
        summary[head] = _summarize(head, metrics)

    score("baseline", cfg)
    for head, head_cfg, build, keyword in heads:
        _load_into(mllm.projector, out, f"{head}-projector")
        module = build(head_cfg, mllm)
        _load_into(module, out, head)
        score(head, head_cfg, **{keyword: module})
    payload = {"config": configs, "metrics": summary}
    tr.save_report(payload, out / "eval.json")
    print(f"wrote {out / 'eval.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusedet",
        description="LM-to-detector fusion experiments on synthetic scenes")
    sub = parser.add_subparsers(dest="command", required=True)
    backbone, run = ("seed", "data_seed"), ("run_seed",)

    def common(p, handler, seed_keys=(), out: bool = True):
        """``p`` runs ``handler``; ``--seed`` sets the config fields
        ``seed_keys`` names (by ``--stage`` for ``train``)."""
        p.set_defaults(handler=handler, seed_keys=seed_keys)
        p.add_argument("--config", help="key = value config file")
        if seed_keys:
            p.add_argument("--seed", type=int, help="override the model/data "
                           "seed (backbone stages) or the run seed (the rest)")
        if out:
            p.add_argument("--out", default="runs",
                           help="checkpoint/report directory (default: runs)")

    common(sub.add_parser("gen-data", help="write every split as JSON-lines"),
           cmd_gen_data, backbone)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--stage", type=int, required=True, choices=(1, 2, 3))
    common(p, cmd_train, {1: backbone, 2: backbone, 3: run})

    # no abbreviations, or a refused --seed would be read as --seeds
    p = sub.add_parser("ablate-layers", allow_abbrev=False,
                       help="sweep the LM tap depth against seeds")
    p.add_argument("--layers", default="0,1,2,4",
                   help="comma-separated LM layer taps (default 0,1,2,4)")
    p.add_argument("--seeds", default="0,1,2",
                   help="comma-separated run seeds (default 0,1,2)")
    common(p, cmd_ablate_layers)

    p = sub.add_parser("analyze-attention",
                       help="per-layer median attention by modality")
    p.add_argument("--batch", type=int, default=32,
                   help="scenes in the probe batch (default 32)")
    common(p, cmd_analyze_attention, backbone)

    p = sub.add_parser("flops-report",
                       help="params / FLOPs / latency accounting table")
    p.add_argument("--latency", action="store_true",
                   help="also measure median wall-clock latency")
    common(p, cmd_flops_report)

    common(sub.add_parser("substitute-baseline",
                          help="train the linear substitution control"),
           lambda cfg, out, args: _train_head(cfg, out, "substitution"), run)
    common(sub.add_parser("gradcheck",
                          help="finite-difference gradient verification"),
           cmd_gradcheck, run, out=False)

    common(sub.add_parser("eval", help="score the baseline and every "
                          "trained head on the val splits"), cmd_eval)
    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_file(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        keys = args.seed_keys
        if isinstance(keys, dict):
            keys = keys[args.stage]
        cfg = replace(cfg, **dict.fromkeys(keys, args.seed))
    return cfg


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = _resolve_config(args)
        out = Path(args.out) if "out" in args else None
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            save_file(cfg, out / "resolved-config.txt")
        return args.handler(cfg, out, args)
    except (ConfigurationError, DegenerateInputError, DimensionError,
            NumericsError, UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
