"""One flat experiment configuration shared by training, analysis, and the
CLI.

Config files are plain ``key = value`` lines (``#`` comments allowed); every
key is a field of ``ExperimentConfig``.  Reports embed the resolved config so
any run can be reproduced from its own output.

Only real choices are fields.  The canvas (``scenes.CANVAS``) and the token
vocabulary (``scenes.VOCAB``) come from the scenes; the RoPE base is
``tensor.ROPE_BASE``.  Sizes that follow from other fields are derived: the
projector's input width is ``MllmConfig.proj_in`` = 3 * patch^2 * shuffle_r^2,
and the stage-3 (and substitution) projector lr is the head's lr over
``training.PROJECTOR_LR_DIVISOR``.  The adapter, the detector's vision input
and the substitution head copy no size: each reads its widths, grids and
depths from the ``MllmConfig`` and ``DetectorConfig`` it attaches to.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, asdict
from pathlib import Path

from .adapter import FIRST_LAYER_ARCHS, AdapterConfig
from .detector import DetectorConfig
from .mllm import MllmConfig
from .tensor import ConfigurationError, UsageError


@dataclass
class ExperimentConfig:
    # seeds
    seed: int = 0                 # backbone weights + pretrain/stage-1/2 batches
    run_seed: int = 0             # adapter / substitution init + stage-3 batches
    data_seed: int = 0            # scene generation

    # toy multimodal LM
    patch: int = 4
    shuffle_r: int = 2
    d_lm: int = 64
    lm_layers: int = 4
    lm_heads: int = 4
    proj_hidden: int = 128
    sys_len: int = 2
    lm_mlp_ratio: int = 2

    # grounding detector
    det_d: int = 64
    det_heads: int = 4
    det_depth: int = 6
    det_queries: int = 4
    det_mlp_ratio: int = 2
    box_weight: float = 5.0
    phrase_weight: float = 1.0
    background_weight: float = 0.5

    # fusion adapter
    arch: str = "IV"
    l_lm: int = 2
    l_d: int = 6                  # Arch II/IV injection layer; I, III pin 1
    adapter_heads: int = 4
    conv_k: int = 3
    conv_stride: int = 2
    conv_pad: int = 1

    # data volumes
    n_pretrain: int = 2000
    n_train: int = 4000
    n_val: int = 500

    # stage budgets (Adam with cosine decay throughout)
    pretrain_steps: int = 5000
    pretrain_batch: int = 16
    pretrain_lr: float = 3e-3
    s1_steps: int = 1200
    s1_batch: int = 16
    s1_lr: float = 3e-3
    s2_steps: int = 300
    s2_batch: int = 16
    s2_lr: float = 1e-3
    s3_steps: int = 2000
    s3_batch: int = 8
    s3_adapter_lr: float = 1e-3   # projector: this / PROJECTOR_LR_DIVISOR
    sub_steps: int = 2000
    sub_batch: int = 8
    sub_lr: float = 1e-3

    # optimizer
    grad_clip: float = 1.0        # global grad-norm ceiling; 0 disables

    # evaluation
    iou_thresh: float = 0.5
    eval_chunk: int = 64

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith(("eval_chunk", "_batch", "_steps")) and value < 1:
                raise ConfigurationError(
                    f"{f.name} must be at least 1, got {value}")

    def mllm_config(self) -> MllmConfig:
        return MllmConfig(
            d_lm=self.d_lm, n=self.lm_layers, heads=self.lm_heads,
            patch=self.patch, shuffle_r=self.shuffle_r,
            proj_hidden=self.proj_hidden, sys_len=self.sys_len,
            mlp_ratio=self.lm_mlp_ratio)

    def detector_config(self) -> DetectorConfig:
        return DetectorConfig(
            d=self.det_d, heads=self.det_heads, depth=self.det_depth,
            queries=self.det_queries, mlp_ratio=self.det_mlp_ratio,
            box_weight=self.box_weight, phrase_weight=self.phrase_weight,
            background_weight=self.background_weight)

    def adapter_config(self, **overrides) -> AdapterConfig:
        # l_d places the Arch II and IV injection; the first-layer presets
        # pin their own (1), so the preset resolves it unless an override
        # names one
        arch = overrides.get("arch", self.arch)
        kw = dict(
            arch=self.arch, l_lm=self.l_lm,
            l_d=None if arch in FIRST_LAYER_ARCHS else self.l_d,
            heads=self.adapter_heads, conv_k=self.conv_k,
            conv_stride=self.conv_stride, conv_pad=self.conv_pad)
        kw.update(overrides)
        return AdapterConfig(**kw)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        known = {f.name: f.type for f in fields(cls)}
        unknown = set(values) - set(known)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        coerced = {}
        for f in fields(cls):
            if f.name not in values:
                continue
            raw = values[f.name]
            kind = type(getattr(cls(), f.name))
            try:
                coerced[f.name] = kind(raw)
            except (TypeError, ValueError) as e:
                raise UsageError(f"config key {f.name}: {e}") from None
        return cls(**coerced)


def loads(text: str) -> ExperimentConfig:
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        values[key.strip()] = value.strip()
    return ExperimentConfig.from_dict(values)


def dumps(cfg: ExperimentConfig) -> str:
    return "\n".join(f"{k} = {v}" for k, v in cfg.to_dict().items()) + "\n"


def load_file(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    return loads(path.read_text())


def save_file(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(dumps(cfg))
