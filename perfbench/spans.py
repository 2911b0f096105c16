"""Spans around calls into fusedet's public functions and classes.

The tracer patches the program from outside: every target below is replaced,
for the duration of a ``recording()`` block, by a wrapper that records a span
(name, duration, the time covered by child spans) and restores the original
on exit.  Nothing in ``src/fusedet`` knows about it.  Spans are aggregated in
memory per name: call count, self time (duration minus child spans),
inclusive time and, for the FLOP-metered spans, the forward FLOPs counted by a
``FlopsMeter`` opened around the call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


def _arch_of_prompts(args, kwargs):
    return kwargs["cfg"].arch if "cfg" in kwargs else args[3].arch


def _arch_of_hook(args, kwargs):
    return args[0].state.cfg.arch


def _arch_of_fuse(args, kwargs):
    return (kwargs["state"] if "state" in kwargs else args[2]).cfg.arch


# (module, attribute path, span name, FLOP-metered?).  A name containing
# "{arch}" is resolved per call from the adapter config among the arguments.
TARGETS = [
    ("tensor", "backward", "tensor.backward", False),
    ("layers", "Linear.__call__", "layers.linear", False),
    ("layers", "LayerNorm.__call__", "layers.layernorm", False),
    ("layers", "MultiHeadAttention.__call__", "layers.mha", False),
    ("layers", "MLP.__call__", "layers.mlp", False),
    ("layers", "TransformerBlock.__call__", "layers.transformer_block", False),
    ("layers", "cross_entropy", "layers.cross_entropy", False),
    ("mllm", "MiniMllm.encode_image", "mllm.encode_image", False),
    ("mllm", "Projector.__call__", "mllm.projector", False),
    ("mllm", "MiniMllm.hidden_from_aligned", "mllm.hidden_from_aligned", True),
    ("detector", "GroundingDetector.encode_vision", "detector.encode_vision", False),
    ("detector", "GroundingDetector.encode_text", "detector.encode_text", False),
    ("detector", "GroundingDetector.decode", "detector.decode", True),
    ("detector", "GroundingDetector.boxes", "detector.boxes", False),
    ("detector", "GroundingDetector.phrase_logits", "detector.phrase_logits", False),
    ("detector", "pack_candidates", "detector.pack_candidates", False),
    ("detector", "pool_phrases", "detector.pool_phrases", False),
    ("detector", "detection_loss", "detector.detection_loss", False),
    ("detector", "match_hungarian", "detector.match_hungarian", False),
    ("detector", "eval_grounding", "detector.eval_grounding", False),
    ("adapter", "make_prompts", ("adapter.{arch}.make_prompts", _arch_of_prompts), True),
    ("adapter", "FusionHook.inject", ("adapter.{arch}.inject", _arch_of_hook), True),
    ("adapter", "fuse_vision", ("adapter.{arch}.fuse_vision", _arch_of_fuse), False),
    ("training", "Adam.step", "training.adam_step", False),
    ("training", "Stage3Cache.__init__", "training.stage3_cache_build", False),
    ("training", "cache_vision", "training.cache_vision", False),
    ("training", "grounded_outputs", "training.grounded_outputs", False),
    ("training", "pretrain_detector", "training.pretrain_detector", False),
    ("training", "train_stage1", "training.train_stage1", False),
    ("training", "train_stage2", "training.train_stage2", False),
    ("training", "train_stage3", "training.train_stage3", False),
    ("training", "train_substitution", "training.train_substitution", False),
    ("training", "evaluate", "training.evaluate", False),
    ("scenes", "generate_scenes", "scenes.generate_scenes", False),
    ("analysis", "compute_report", "analysis.compute_report", False),
]


# stage drivers: each call starts a new list of optimizer-step end times
DRIVERS = ("training.pretrain_detector", "training.train_stage1",
           "training.train_stage2", "training.train_stage3",
           "training.train_substitution")

# spans a ``light`` tracer records: enough for step times and set-up costs
LIGHT = DRIVERS + ("training.adam_step", "training.cache_vision",
                   "training.stage3_cache_build")


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    flops: int = 0


def tape_size(loss) -> int:
    """Nodes ``backward`` will visit: everything reachable from ``loss``
    through parents that carry ``requires_grad``."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
    return len(seen)


@dataclass
class Tracer:
    """Aggregated spans plus per-step records.

    ``step_ends`` holds, per stage-driver call, the end time of every
    ``Adam.step`` in it; ``chunk_s`` the duration of every
    ``grounded_outputs`` call (one eval chunk each); ``tape_nodes`` the tape
    size of every loss handed to ``backward``.  A ``light`` tracer records
    only the spans in ``LIGHT``, for windows that need step times alone.
    """

    light: bool = False
    stats: dict[str, SpanStats] = field(default_factory=dict)
    step_ends: list[list[float]] = field(default_factory=list)
    chunk_s: list[float] = field(default_factory=list)
    tape_nodes: list[int] = field(default_factory=list)
    _stack: list[float] = field(default_factory=list)

    def reset(self) -> None:
        self.stats.clear()
        self.step_ends.clear()
        self.chunk_s.clear()
        self.tape_nodes.clear()

    def step_ms(self) -> list[float]:
        """Optimizer-step times in ms, each from the end of the previous step
        of the same driver call (the first step of a call is left out)."""
        return [(b - a) * 1e3 for ends in self.step_ends
                for a, b in zip(ends, ends[1:])]

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def _wrap(self, fn, name, metered: bool):
        from fusedet.tensor import FlopsMeter
        fmt, arch_of = (name, None) if isinstance(name, str) else name
        stats, stack = self.stats, self._stack
        is_step = fmt == "training.adam_step"
        is_backward = fmt == "tensor.backward"
        is_driver = fmt in DRIVERS
        is_chunk = fmt == "training.grounded_outputs"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = fmt.format(arch=arch_of(args, kwargs)) if arch_of else fmt
            if is_backward:
                self.tape_nodes.append(tape_size(args[0]))
            if is_driver:
                self.step_ends.append([])
            stack.append(0.0)
            meter = FlopsMeter() if metered else None
            t0 = perf_counter()
            try:
                if meter is None:
                    return fn(*args, **kwargs)
                with meter:
                    return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                st = stats.get(label)
                if st is None:
                    st = stats[label] = SpanStats()
                st.calls += 1
                st.self_s += dur - child
                st.total_s += dur
                if meter is not None:
                    st.flops += meter.accumulated
                if is_step and self.step_ends:
                    self.step_ends[-1].append(t1)
                if is_chunk:
                    self.chunk_s.append(dur)

        return wrapper

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers for the duration of the block."""
        for mod in {t[0] for t in TARGETS}:
            importlib.import_module(f"fusedet.{mod}")
        mods = {k: v for k, v in sys.modules.items()
                if k == "fusedet" or k.startswith("fusedet.")}
        undo: list[tuple[object, str, object]] = []

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for mod, path, name, metered in TARGETS:
                label = name if isinstance(name, str) else name[0]
                if self.light and label not in LIGHT:
                    continue
                module = mods[f"fusedet.{mod}"]
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(module, cls_name)
                    patch(cls, meth, self._wrap(cls.__dict__[meth], name, metered))
                    continue
                orig = getattr(module, path)
                wrapped = self._wrap(orig, name, metered)
                # rebind every module-level name bound to the original, so
                # calls through ``from .x import f`` imports are traced too
                for m in mods.values():
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            patch(m, attr, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)


# per-step self time in ms, by metric name and span name
SELF_MS = {
    "tensor.backward_ms": "tensor.backward",
    "layers.linear_ms": "layers.linear",
    "layers.layernorm_ms": "layers.layernorm",
    "layers.mha_ms": "layers.mha",
    "layers.mlp_ms": "layers.mlp",
    "detector.decode_ms": "detector.decode",
    "detector.encode_text_ms": "detector.encode_text",
    "detector.encode_vision_ms": "detector.encode_vision",
    "detector.detection_loss_ms": "detector.detection_loss",
    "detector.match_hungarian_ms": "detector.match_hungarian",
    "mllm.encode_image_ms": "mllm.encode_image",
    "mllm.projector_ms": "mllm.projector",
    "mllm.hidden_from_aligned_ms": "mllm.hidden_from_aligned",
    "adapter.I.make_prompts_ms": "adapter.I.make_prompts",
    "adapter.II.make_prompts_ms": "adapter.II.make_prompts",
    "adapter.III.make_prompts_ms": "adapter.III.make_prompts",
    "adapter.IV.make_prompts_ms": "adapter.IV.make_prompts",
    "adapter.II.inject_ms": "adapter.II.inject",
    "adapter.III.inject_ms": "adapter.III.inject",
    "adapter.IV.inject_ms": "adapter.IV.inject",
    "adapter.I.fuse_vision_ms": "adapter.I.fuse_vision",
    "training.adam_step_ms": "training.adam_step",
}

# calls per step
CALLS = {
    "layers.linear_calls": "layers.linear",
    "layers.layernorm_calls": "layers.layernorm",
    "layers.mha_calls": "layers.mha",
    "layers.mlp_calls": "layers.mlp",
    "detector.match_hungarian_calls": "detector.match_hungarian",
}

# forward FLOPs per step and achieved rate over the inclusive span time;
# the adapter entries sum over arch presets
METERED = {
    "detector.decode": ("detector.decode",),
    "mllm.hidden_from_aligned": ("mllm.hidden_from_aligned",),
    "adapter.make_prompts": tuple(f"adapter.{a}.make_prompts"
                                  for a in ("I", "II", "III", "IV")),
    "adapter.inject": tuple(f"adapter.{a}.inject" for a in ("II", "III", "IV")),
}


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(window: Tracer, setup: Tracer, steps: int) -> dict[str, float]:
    """Per-layer metrics from a traced window of ``steps`` steps (optimizer
    steps, or eval chunks) and a traced set-up."""
    out = {k: window.get(s).self_s * 1e3 / steps for k, s in SELF_MS.items()}
    out.update({k: window.get(s).calls / steps for k, s in CALLS.items()})
    for k, names in METERED.items():
        flops = sum(window.get(s).flops for s in names)
        secs = sum(window.get(s).total_s for s in names)
        out[f"{k}.mflop"] = flops / 1e6 / steps
        out[f"{k}.gflop_per_s"] = flops / 1e9 / secs if secs else 0.0
    out["tensor.tape_nodes_per_step"] = (
        float(np.mean(window.tape_nodes)) if window.tape_nodes else 0.0)
    step_ms = window.step_ms() or [s * 1e3 for s in window.chunk_s]
    out["training.step_ms_p50"] = _percentile(step_ms, 50)
    out["training.step_ms_p90"] = _percentile(step_ms, 90)
    out["training.stage3_cache_build_s"] = setup.get(
        "training.stage3_cache_build").total_s
    out["scenes.generate_scenes_s"] = setup.get("scenes.generate_scenes").total_s
    cv = [t.get("training.cache_vision") for t in (setup, window)]
    calls = sum(c.calls for c in cv)
    out["training.cache_vision_s"] = (
        sum(c.total_s for c in cv) / calls if calls else 0.0)
    return out
