"""One experiment configuration shared by training, analysis, and the CLI.

Config files are plain ``key = value`` lines (``#`` comments allowed).  A key
is a top-level field of ``ExperimentConfig`` or ``section.field`` for a field
of one of its sections, ``mllm`` (``MllmConfig``), ``detector``
(``DetectorConfig``) and ``adapter`` (``AdapterConfig``), such as
``detector.depth = 2``, so each model setting is declared once, in its
module.  Any other key is refused by name.  A config is checked when it is
built, so an adapter that cannot attach fails before any stage runs.  Reports
embed the resolved config so any run can be reproduced from its own output.

Only real choices are keys; a value no run varies is a module constant: the
canvas (``scenes.CANVAS``), the vocabulary (``scenes.VOCAB``), the RoPE base
(``tensor.ROPE_BASE``), the MLP ratio (``layers.MLP_RATIO``), the loss weights
(``detector.BOX_WEIGHT``, ``PHRASE_WEIGHT``, ``BACKGROUND_WEIGHT``), the
grounding hit's IoU threshold (``detector.IOU_THRESH``), the prompt conv's
kernel and padding (``adapter.CONV_K``, ``CONV_PAD``) and the gradient-norm
ceiling (``training.GRAD_CLIP``).  Sizes that follow from other settings are
derived: the projector's input width is ``MllmConfig.proj_in`` = 3 * patch^2
* shuffle_r^2, the adapter's head counts are ``detector.heads`` (its gate)
and ``mllm.heads`` (its text fusion), and the stage-3 (and substitution)
projector lr is the head's lr over ``training.PROJECTOR_LR_DIVISOR``.  The
adapter, the detector's vision input and the substitution head copy no size:
each reads its widths, grids and depths from the ``MllmConfig`` and
``DetectorConfig`` it attaches to.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import reduce
from pathlib import Path
from typing import get_args, get_type_hints

from .adapter import AdapterConfig
from .detector import DetectorConfig
from .mllm import MllmConfig
from .scenes import MAX_CANDIDATES
from .tensor import UsageError, check_fields

CODE_ONLY = {"mllm.canvas"}     # set in code: scenes are drawn on CANVAS


@dataclass
class ExperimentConfig:
    # seeds
    seed: int = 0                 # backbone weights + pretrain/stage-1/2 batches
    run_seed: int = 0             # adapter / substitution init + stage-3 batches
    data_seed: int = 0            # scene generation

    # the sections: the fields with a default factory; each is frozen, so
    # the copies dataclasses.replace makes can share them
    mllm: MllmConfig = field(default_factory=MllmConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    adapter: AdapterConfig = field(default_factory=AdapterConfig)

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

    # evaluation
    eval_chunk: int = 64

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        counts = [n for n in names if n.startswith("n_")
                  or n.endswith(("eval_chunk", "_batch", "_steps"))]
        check_fields(self, "", counts, "at least 1", lambda v: v >= 1)
        check_fields(self, "", [n for n in names if n.endswith("_lr")],
                     "positive", lambda v: v > 0)
        check_fields(self.detector, "detector.", ("queries",),
                     f"at least {MAX_CANDIDATES}, the most candidates a "
                     "scene has", lambda v: v >= MAX_CANDIDATES)
        self.adapter.resolve(self.mllm, self.detector)

    # only perfbench/ calls these three; the program reads the fields
    def mllm_config(self) -> MllmConfig:
        return self.mllm

    def detector_config(self) -> DetectorConfig:
        return self.detector

    def adapter_config(self) -> AdapterConfig:
        return self.adapter

    def to_dict(self) -> dict:
        """Every config-file key with its value, in file order."""
        return {key: reduce(getattr, key.split("."), self)
                for key, _ in _settings(type(self))}

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        keys = dict(_settings(cls))
        unknown = set(values) - set(keys)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        kw: dict[str, dict] = {"": {}}
        for key, raw in values.items():
            try:
                value = _coerce(raw, keys[key])
            except (TypeError, ValueError) as e:
                raise UsageError(f"config key {key}: {e}") from None
            section, _, name = key.rpartition(".")
            kw.setdefault(section, {})[name] = value
        sections = {f.name: f.default_factory for f in fields(cls)}
        return cls(**kw.pop(""), **{s: sections[s](**v) for s, v in kw.items()})


def _settings(cls, prefix: str = ""):
    """(key, annotated type) of every config-file key, in file order; a
    section contributes its own fields as ``section.field``."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.default_factory is not MISSING:
            yield from _settings(f.default_factory, f"{f.name}.")
        elif prefix + f.name not in CODE_ONLY:
            yield prefix + f.name, hints[f.name]


def _coerce(raw, hint):
    """``raw``, a value or its text, as ``hint``; None where it admits it."""
    kinds = get_args(hint) or (hint,)
    if raw in (None, "None") and type(None) in kinds:
        return None
    return kinds[0](raw)


def loads(text: str) -> ExperimentConfig:
    """The config ``text`` sets; a key set on two lines is refused."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}              # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        key = key.strip()
        if key in lines:
            raise UsageError(f"config line {lineno}: {key} already set on "
                             f"line {lines[key]}")
        lines[key] = lineno
        values[key] = value.strip()
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
