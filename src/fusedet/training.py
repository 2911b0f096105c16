"""Training loops for the full fusion protocol.

Order of operations for a complete experiment:

  1. detector pretrain - grounding detector alone, on the pretrain split;
  2. stage 1           - toy LM decoder + vision projector, captioning;
  3. stage 2           - projector only, captioning (re-alignment);
  4. stage 3           - fusion adapter (plus projector at the adapter lr
                         over ``PROJECTOR_LR_DIVISOR``) under the detection
                         loss, LM and detector frozen;
  5. substitution      - negative control: detector vision features replaced
                         by upsampled LM vision states, the substitution head
                         trained with the stage-3 budget.

Every stage trains through ``_run_stage`` with Adam under a cosine-decayed
learning rate; it alone checks a stage's contract (at least one scene, and
a gradient on every group parameter at every step), which the code around
it assumes.  For the length of its stage, that stage's ``Adam`` owns its
groups' parameter storage: each ``p.data`` is a view of one flat buffer the
optimizer allocated, updated in place.  Modules keep no buffer, so a
``p.data`` rebound between stages (``restore``, a test) is simply copied
into the next stage's buffer.

Every detector pass (both detector losses, both stage-3 losses, evaluation,
the gradient check and the cost report) runs through ``_detector_outputs``
over a ``_candidate_text`` tuple; ``fused_outputs`` is that pass from patch
tokens, which only ``patch_tokens`` computes from images.  The cached
stage-3 loss runs against stored activations of the frozen components: the
same pass's own arrays, so it is an exact-value shortcut, and an equivalence
test compares it against the uncached path.  Evaluation, ``patch_tokens``
and the ``Stage3Cache`` build only ever run forward, so they record no tape
even over trainable modules.

Evaluation and the ``Stage3Cache`` build use at most two processes, through
one helper, ``_fill_rows``: given 2 or more chunks and 2 usable CPUs, the
second half of the chunks runs in one forked worker, which writes its rows
straight into the arrays it returns (anonymous shared mappings), bitwise the
serial values.  The worker only saves time: if it does not exit cleanly, or
cannot be forked, the parent fills its half itself, so an error always rises
in the parent.  It stays serial inside a worker, while a ``FlopsMeter`` or
``attention_tap`` is open, and without ``os.fork``.  Training steps, scene
generation and ``cache_vision`` always run in one process.

Reports embed the resolved config (for stage 3, with its head's own adapter
section) and the full loss curve but no wall-clock fields, so a repeated run
produces byte-identical report files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import mmap
import os
import signal
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .adapter import FusionHook, FusionState
from .config import ExperimentConfig
from .detector import (GroundingDetector, SubstitutionHead, detection_loss,
                       eval_grounding, pack_candidates, pool_phrases)
from .mllm import MiniMllm
from .scenes import (PACK_WIDTH, SyntheticScene, generate_scenes,
                     pad_token_rows)
from .tensor import NumericsError, Tensor, UsageError

# rng stream tags, so each stage draws an independent deterministic stream
STAGE_TAGS = {"pretrain": 11, "stage1": 12, "stage2": 13, "stage3": 14,
              "substitution": 15}
MODEL_TAG = 7
ADAPTER_TAG = 21
# the projector co-trains with a stage-3 adapter or substitution head at the
# head's lr over this
PROJECTOR_LR_DIVISOR = 5.0


# ---------------------------------------------------------------------------
# model construction, freezing, snapshots
# ---------------------------------------------------------------------------


def build_models(cfg: ExperimentConfig) -> tuple[MiniMllm, GroundingDetector]:
    rng = np.random.default_rng([cfg.seed, MODEL_TAG])
    mllm = MiniMllm(cfg.mllm, rng)
    det = GroundingDetector(cfg.detector, mllm.cfg, rng)
    return mllm, det


def build_adapter(cfg: ExperimentConfig, arch: str | None = None) -> FusionState:
    """The adapter of ``cfg.adapter``, or of that section under ``arch``."""
    rng = np.random.default_rng([cfg.run_seed, ADAPTER_TAG])
    acfg = cfg.adapter if arch is None else replace(cfg.adapter, arch=arch)
    return FusionState(acfg, cfg.mllm, cfg.detector, rng)


def build_substitution(cfg: ExperimentConfig, mllm: MiniMllm) -> SubstitutionHead:
    rng = np.random.default_rng([cfg.run_seed, ADAPTER_TAG, 1])
    return SubstitutionHead(mllm.cfg, cfg.detector, rng)


def snapshot(module) -> dict[str, np.ndarray]:
    """Copy of every parameter array by dotted name: the one way out of a
    module, for checkpoints and for restoring between runs."""
    return {name: p.data.copy() for name, p in module.named_parameters().items()}


def restore(module, snap: dict[str, np.ndarray]) -> None:
    """Copy in one array per parameter, the one way into a module; the names
    and shapes must match exactly."""
    params = module.named_parameters()
    missing = set(params) - set(snap)
    if missing:
        raise UsageError(f"checkpoint missing parameters: {sorted(missing)[:4]}...")
    unexpected = set(snap) - set(params)
    if unexpected:
        raise UsageError(
            f"checkpoint has parameters the model lacks: "
            f"{sorted(unexpected)[:4]}...")
    for name, p in params.items():
        arr = np.asarray(snap[name], dtype=np.float64)
        if arr.shape != p.data.shape:
            raise UsageError(
                f"{name}: checkpoint shape {arr.shape} != model shape {p.data.shape}")
        p.data = arr.copy()


def module_digest(module) -> str:
    """Order-independent content hash over all parameters; two calls agree
    iff every parameter array is bytewise identical."""
    h = hashlib.sha256()
    for name, arr in sorted(snapshot(module).items()):
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Adam with cosine decay
# ---------------------------------------------------------------------------


@dataclass
class ParamGroup:
    name: str
    params: dict[str, Tensor]
    lr: float


def cosine_lr(base: float, step: int, total: int) -> float:
    if total <= 0:
        raise UsageError(f"total steps must be positive, got {total}")
    frac = min(step, total) / total
    return base * 0.5 * (1.0 + np.cos(np.pi * frac))


def configure_trainable(groups: list[ParamGroup], *frozen_modules) -> None:
    """Freeze the listed modules wholesale, then re-enable group params."""
    for m in frozen_modules:
        m.set_trainable(False)
    for g in groups:
        for p in g.params.values():
            p.requires_grad = True
            p.grad = None


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the global grad-norm ceiling every Adam step clips to
GRAD_CLIP = 1.0
# elements per in-place block of the Adam recurrence: its operands and two
# scratch blocks stay in cache
ADAM_BLOCK = 16384


class Adam:
    """Adam with cosine lr decay and global-norm gradient clipping at
    ``GRAD_CLIP``.  Every parameter holds a gradient at every step
    (``_run_stage``'s contract), which the step consumes; a fresh optimizer
    starts every stage.

    For its stage the optimizer owns its groups' parameter storage: it
    copies every group parameter, in group order, into one float64 buffer
    and rebinds each ``p.data`` to a view of it, beside flat ``m``, ``v`` and
    gradient buffers of the same layout.  Nothing is kept on the modules, so
    a ``p.data`` rebound later (``restore``, a test) is re-homed by the next
    optimizer built over it.  A parameter may appear once across the groups.
    ``step`` updates the buffers in place, block by block, with the same
    ufuncs in the same operand order as a per-tensor update, and sums the
    clip norm per tensor in group order, so every value is bitwise that of
    the per-tensor recurrence.
    """

    def __init__(self, groups: list[ParamGroup], total: int):
        self.groups = groups
        self.total = total
        self.t = 0
        self._named: list[tuple[str, Tensor]] = []
        where: dict[int, str] = {}
        for g in groups:
            for name, p in g.params.items():
                label = f"{g.name}.{name}"
                if id(p) in where:
                    raise UsageError(f"{label} is also {where[id(p)]}: a "
                                     f"parameter belongs to one group, once")
                where[id(p)] = label
                self._named.append((label, p))
        offs = [0, *itertools.accumulate(p.size for _, p in self._named)]
        flat, self._g = np.empty(offs[-1]), np.empty(offs[-1])
        self._m, self._v = np.zeros(offs[-1]), np.zeros(offs[-1])
        # scratch a also holds the squares of the largest tensor
        a = np.empty(max([ADAM_BLOCK, *(p.size for _, p in self._named)]))
        b = np.empty(ADAM_BLOCK)
        self._norm = []                 # per parameter: (its g, its squares)
        for (_, p), lo, hi in zip(self._named, offs, offs[1:]):
            view = flat[lo:hi].reshape(p.shape)
            view[...] = p.data
            p.data = view
            self._norm.append((self._g[lo:hi], a[:hi - lo]))
        self._blocks = []               # per group: [(g, m, v, p, a, b)]
        k = 0
        for group in groups:
            lo, k = offs[k], k + len(group.params)
            blocks = []
            for s in range(lo, offs[k], ADAM_BLOCK):
                e = min(s + ADAM_BLOCK, offs[k])
                blocks.append((self._g[s:e], self._m[s:e], self._v[s:e],
                               flat[s:e], a[:e - s], b[:e - s]))
            self._blocks.append(blocks)

    def step(self) -> None:
        np.concatenate([p.grad.reshape(-1) for _, p in self._named],
                       out=self._g)
        sq = 0.0
        for (_, p), (g, squares) in zip(self._named, self._norm):
            # a gradient not in C order sums in its own memory order
            sq += float(np.multiply(g, g, out=squares).sum()
                        if p.grad.flags.c_contiguous
                        else np.sum(p.grad * p.grad))
        norm = np.sqrt(sq)
        if not np.isfinite(norm):
            bad = next((label for label, p in self._named
                        if not np.all(np.isfinite(p.grad))), None)
            raise NumericsError(f"non-finite gradient of {bad}" if bad else
                                f"gradient norm overflows ({sq})")
        if norm > GRAD_CLIP:
            self._g *= GRAD_CLIP / norm
        for _, p in self._named:
            p.grad = None
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for group, blocks in zip(self.groups, self._blocks):
            lr = cosine_lr(group.lr, self.t - 1, self.total)
            for g, m, v, p, a, b in blocks:
                m *= ADAM_BETA1
                np.multiply(1 - ADAM_BETA1, g, out=a)
                m += a
                np.multiply(1 - ADAM_BETA2, g, out=a)
                a *= g
                v *= ADAM_BETA2
                v += a
                np.divide(m, bc1, out=a)
                a *= lr
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += ADAM_EPS
                a /= b
                p -= a


def _run_stage(cfg: ExperimentConfig, stage: str, groups: list[ParamGroup],
               frozen: tuple, loss_fn, n: int, steps: int, batch: int,
               seed: int) -> dict:
    """Train ``groups`` alone among the ``frozen`` modules for ``steps`` Adam
    steps of ``loss_fn(idx)``, ``idx`` drawn from ``range(n)``; the report.
    It refuses by name a stage that breaks the contract: ``n >= 1``, and a
    gradient on every group parameter after every ``backward``."""
    if n < 1:
        raise UsageError(f"{stage} needs at least one scene")
    configure_trainable(groups, *frozen)
    rng = np.random.default_rng([seed, STAGE_TAGS[stage]])
    opt = Adam(groups, total=steps)
    losses = []
    for step in range(steps):
        idx = rng.integers(0, n, size=batch)
        try:
            loss = loss_fn(idx)
            loss.backward()
            for g in groups:
                for name, p in g.params.items():
                    if p.grad is None:
                        raise UsageError(f"{stage}: no gradient reaches "
                                         f"{g.name}.{name} at step {step}")
            opt.step()
        except NumericsError as e:
            raise NumericsError(
                f"{stage}: non-finite value at step {step}: {e}") from e
        losses.append(float(loss.data))
    return {
        "stage": stage,
        "steps": len(losses),
        "groups": [{"name": g.name, "lr": g.lr,
                    "params": int(sum(p.size for p in g.params.values()))}
                   for g in groups],
        "losses": losses,
        "final_loss": float(np.mean(losses[-25:])),
        "config": cfg.to_dict(),
    }


def save_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# frozen-activation caches
# ---------------------------------------------------------------------------


def _chunks(n: int, size: int):
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


# set in a forked ``_fill_rows`` worker, so a worker never forks again
_IN_WORKER = False


def _fill_rows(run, n: int, chunk: int, rows: tuple[tuple[tuple, type], ...],
               name: str) -> list[np.ndarray]:
    """One ``[n, *shape]`` array of ``dtype`` per ``(shape, dtype)`` in
    ``rows``, filled as ``outs[k][lo:hi] = run(lo, hi)[k]`` for every
    ``_chunks(n, chunk)`` span, the second half of the spans in one forked
    worker.

    Each array lives in an anonymous shared mapping, so the worker, which
    inherits everything ``run`` reads, writes its rows straight into the
    parent's arrays and reports success by exiting with status 0.  (A
    shared page joins a process's resident set only once that process
    touches it, so right after a forked fill the parent's RSS leaves out
    the worker's rows.)  The worker only saves time: every span is a
    deterministic pass, so when it exits with any other status (an
    exception, a kill) the parent fills its half again, serially, and a
    ``fork`` that fails fills every span here.  An exception in a span thus
    always rises in this process with its own type and traceback and the
    prefix ``{name} scenes[lo:hi]: ``; a failure of the parent's half
    kills the worker, and no path leaves it running.  Serial with fewer
    than 2 spans, inside a worker, while a ``FlopsMeter`` or
    ``attention_tap`` is open (the worker's records would be lost), and
    without ``os.fork`` or 2 usable CPUs."""
    global _IN_WORKER
    outs = []
    for shape, dtype in rows:
        nbytes = n * math.prod(shape) * np.dtype(dtype).itemsize
        outs.append(np.ndarray((n, *shape), dtype,
                               buffer=mmap.mmap(-1, max(nbytes, 1))))
    spans = list(_chunks(n, chunk))
    half = len(spans) // 2

    def fill(part):
        for lo, hi in part:
            try:
                got = run(lo, hi)
            except Exception as e:
                e.args = (f"{name} scenes[{lo}:{hi}]: {e}",)
                raise
            for out, src in zip(outs, got):
                out[lo:hi] = src

    if (half == 0 or _IN_WORKER or T.observed() or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        fill(spans)
        return outs
    try:
        pid = os.fork()
    except OSError:                                 # no process to spare
        fill(spans)
        return outs
    if pid == 0:                                    # the worker
        code = 1
        try:
            _IN_WORKER = True
            fill(spans[half:])
            code = 0
        finally:
            os._exit(code)
    try:
        fill(spans[:half])
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if os.waitstatus_to_exitcode(status) != 0:
        fill(spans[half:])
    return outs


def patch_tokens(mllm: MiniMllm, scenes: list[SyntheticScene]) -> np.ndarray:
    """Patch tokens [B, P, d_patch] of the scenes' images, with no tape: the
    one cut of the vision prefix, read by ``encode_vision`` and
    ``align_vision``."""
    with T.no_tape():
        return mllm.encode_image(
            T.constant(np.stack([s.image for s in scenes]))).data


def cache_vision(mllm: MiniMllm, scenes: list[SyntheticScene], chunk: int
                 ) -> np.ndarray:
    """``patch_tokens`` of every scene [N, P, d_patch], in one array
    allocated once and filled chunk by chunk, serially: it is the prelude
    of each detector-pretrain and captioning call, where a fork costs more
    than it saves (2,000 scenes take under 0.1 s either way) and the
    ``_fill_rows`` arrays slowed the 64-step pretrain call they feed from a
    median of 4.52 s to 4.84 s over 6 calls each."""
    mcfg, n = mllm.cfg, len(scenes)
    h, w = mcfg.grid
    patches = np.empty((n, h * w, mcfg.d_patch))
    for lo, hi in _chunks(n, chunk):
        patches[lo:hi] = patch_tokens(mllm, scenes[lo:hi])
    return patches


class Stage3Cache:
    """Per-scene activations of everything frozen during stage 3, stored as
    the arrays of the detector pass that consumes them.

    patches    [N, P, d_patch] ``patch_tokens`` of the scenes; the LM reads
                               them through ``align_vision``, whose
                               projector is trained in stage 3
    evd        [N, P, d]       detector vision features
    text       (e_txt [N, W, d], valid [N, W], pooled [N, Q, d]):
                               ``_candidate_text`` of the scenes, padded
                               positions included
    pre_state  [N, Q, d]       decoder state entering layer l_d with no
                               adapter attached; at l_d = 1 the broadcast
                               query embeddings

    Every array is allocated once, in shared memory, and filled chunk by
    chunk in place by one ``_fill_rows`` pass, with no tape recorded
    (nothing here is differentiated): each chunk runs from its images to its
    decoder state, so with 2 or more chunks and 2 usable CPUs the second
    half of them is built in a forked worker, bitwise the serial values;
    if that worker fails, this process builds its chunks again.  The arrays
    are writable.  An error in a chunk rises here with its own type, and its
    message names the chunk's scenes.  The cached loss always resumes at
    layer ``l_d``, so it needs a hook whose ``l_d`` is not earlier;
    ``decode`` rejects one that is.
    ``full_decode`` selects nothing: it is kept so existing callers still
    construct the cache.
    """

    def __init__(self, mllm: MiniMllm, det: GroundingDetector,
                 scenes: list[SyntheticScene], l_d: int,
                 full_decode: bool = False, *, chunk: int):
        n = len(scenes)
        d, nq = det.cfg.d, det.cfg.queries
        h, w = mllm.cfg.grid
        self.scenes = scenes
        self.l_d = l_d

        def run(lo, hi):
            patches = patch_tokens(mllm, scenes[lo:hi])
            e_vis = det.encode_vision(T.constant(patches))
            e_txt, valid, pooled = _candidate_text(det, scenes[lo:hi])
            state = det.decode(e_vis, e_txt, valid, upto_layer=l_d - 1)
            return (patches, e_vis.data, e_txt.data, valid, pooled.data,
                    state.data)

        rows = (((h * w, mllm.cfg.d_patch), float), ((h * w, d), float),
                ((PACK_WIDTH, d), float), ((PACK_WIDTH,), bool),
                ((nq, d), float), ((nq, d), float))
        with T.no_tape():
            (self.patches, self.evd, e_txt, valid, pooled,
             self.pre_state) = _fill_rows(run, n, chunk, rows, "Stage3Cache")
        self.text = (e_txt, valid, pooled)


# ---------------------------------------------------------------------------
# stage losses
# ---------------------------------------------------------------------------


def _candidate_text(det: GroundingDetector, scenes: list[SyntheticScene]):
    """(e_txt [B,W,d], valid [B,W], pooled [B,Q,d]) for the scenes'
    candidate phrases, packed at ``PACK_WIDTH``."""
    ids, valid, spans = pack_candidates([s.candidates for s in scenes])
    e_txt = det.encode_text(ids, valid)
    return e_txt, valid, pool_phrases(e_txt, spans, det.cfg.queries)


def _detector_outputs(det: GroundingDetector, e_vis: Tensor, text, hook=None,
                      start_state: Tensor | None = None, start_layer: int = 1):
    """The one detector pass: (boxes, logits) for vision features and a
    ``_candidate_text`` tuple.  ``decode`` applies the hook, if any; a
    resumed decode starts from ``start_state``."""
    e_txt, valid, pooled = text
    q = det.decode(e_vis, e_txt, valid, hook=hook, start_state=start_state,
                   start_layer=start_layer)
    return det.boxes(q), det.phrase_logits(q, pooled)


def _lm_states(mllm: MiniMllm, vis: Tensor, acfg, ids: np.ndarray,
               valid: np.ndarray):
    """(e_v_l, e_t, e_t_valid): the LM hidden states an adapter consumes
    over padded query rows ``ids``/``valid``; text only with text fusion."""
    if not acfg.text_fusion:
        ids = valid = None
    e_v_l, e_t = mllm.hidden_from_aligned(vis, acfg.l_lm, ids, valid)
    return e_v_l, e_t, valid


def _fusion_hook(mllm: MiniMllm, state: FusionState, patches: Tensor,
                 scenes: list[SyntheticScene]) -> FusionHook:
    """The adapter's hook for a batch: prompts from the LM states over the
    scenes' patch tokens and padded query phrases."""
    return FusionHook(state, *_lm_states(
        mllm, mllm.align_vision(patches), state.cfg,
        *pad_token_rows([s.query.ids for s in scenes])))


def fused_outputs(cfg: ExperimentConfig, mllm: MiniMllm,
                  det: GroundingDetector, patches: np.ndarray,
                  scenes: list[SyntheticScene],
                  state: FusionState | None = None,
                  sub: SubstitutionHead | None = None):
    """The uncached detector pass from the scenes' patch tokens: (boxes,
    logits) for the plain detector, with a fusion adapter, or with the
    substitution head mapping LM vision states at ``cfg.adapter.l_lm``."""
    if state is not None and sub is not None:
        raise UsageError("pass a fusion state or a substitution head, not both")
    patches = T.constant(patches)
    hook = None
    if sub is not None:
        e_v_l, _ = mllm.hidden_from_aligned(mllm.align_vision(patches),
                                            cfg.adapter.l_lm)
        e_vis = T.add(sub(e_v_l), det.vis_pos)
    else:
        e_vis = det.encode_vision(patches)
        if state is not None:
            hook = _fusion_hook(mllm, state, patches, scenes)
    return _detector_outputs(det, e_vis, _candidate_text(det, scenes), hook)


def _cached_detection_loss(cfg: ExperimentConfig, mllm: MiniMllm,
                           det: GroundingDetector, scenes, sub=None):
    """``loss_fn(idx)``: the detection loss of ``fused_outputs`` on the
    scenes ``idx``, their patch tokens read from one ``cache_vision``."""
    patches = cache_vision(mllm, scenes, cfg.eval_chunk)

    def loss_fn(idx):
        batch = [scenes[i] for i in idx]
        return detection_loss(
            *fused_outputs(cfg, mllm, det, patches[idx], batch, sub=sub),
            batch)
    return loss_fn


def stage3_loss_naive(cfg: ExperimentConfig, mllm: MiniMllm,
                      det: GroundingDetector, state: FusionState,
                      scenes: list[SyntheticScene]) -> Tensor:
    """Reference stage-3 loss with no caching: full frozen forward passes."""
    return detection_loss(*fused_outputs(cfg, mllm, det,
                                         patch_tokens(mllm, scenes), scenes,
                                         state), scenes)


def stage3_loss_cached(cfg: ExperimentConfig, mllm: MiniMllm,
                       det: GroundingDetector, state: FusionState,
                       cache: Stage3Cache, idx: np.ndarray) -> Tensor:
    """The stage-3 loss on cached frozen activations; the decode resumes from
    the cached state entering layer ``cache.l_d``."""
    scenes = [cache.scenes[i] for i in idx]
    hook = _fusion_hook(mllm, state, T.constant(cache.patches[idx]), scenes)
    e_txt, valid, pooled = cache.text
    text = (T.constant(e_txt[idx]), valid[idx], T.constant(pooled[idx]))
    outputs = _detector_outputs(
        det, T.constant(cache.evd[idx]), text, hook,
        start_state=T.constant(cache.pre_state[idx]), start_layer=cache.l_d)
    return detection_loss(*outputs, scenes)


# ---------------------------------------------------------------------------
# stage drivers
# ---------------------------------------------------------------------------


def pretrain_detector(cfg: ExperimentConfig, mllm: MiniMllm,
                      det: GroundingDetector,
                      scenes: list[SyntheticScene]) -> dict:
    return _run_stage(
        cfg, "pretrain",
        [ParamGroup("detector", det.named_parameters(), cfg.pretrain_lr)],
        (mllm, det), _cached_detection_loss(cfg, mllm, det, scenes),
        len(scenes), cfg.pretrain_steps, cfg.pretrain_batch, cfg.seed)


def _train_captioning(cfg: ExperimentConfig, mllm: MiniMllm,
                      scenes: list[SyntheticScene], stage: str,
                      group: ParamGroup, steps: int, batch: int) -> dict:
    """The LM loss on the scenes' captions, training ``group`` alone."""
    patches = cache_vision(mllm, scenes, cfg.eval_chunk)
    ids, valid = pad_token_rows([s.caption for s in scenes])

    def loss_fn(idx):
        vis = mllm.align_vision(T.constant(patches[idx]))
        return mllm.lm_loss_from_aligned(vis, ids[idx], valid[idx])

    return _run_stage(cfg, stage, [group], (mllm,), loss_fn, len(scenes),
                      steps, batch, cfg.seed)


def train_stage1(cfg: ExperimentConfig, mllm: MiniMllm,
                 scenes: list[SyntheticScene]) -> dict:
    named = {k: v for k, v in mllm.named_parameters().items()
             if not k.startswith("vision.")}
    return _train_captioning(cfg, mllm, scenes, "stage1",
                             ParamGroup("lm+projector", named, cfg.s1_lr),
                             cfg.s1_steps, cfg.s1_batch)


def train_stage2(cfg: ExperimentConfig, mllm: MiniMllm,
                 scenes: list[SyntheticScene]) -> dict:
    group = ParamGroup("projector", mllm.projector.named_parameters(),
                       cfg.s2_lr)
    return _train_captioning(cfg, mllm, scenes, "stage2", group,
                             cfg.s2_steps, cfg.s2_batch)


def train_stage3(cfg: ExperimentConfig, mllm: MiniMllm,
                 det: GroundingDetector, state: FusionState,
                 scenes: list[SyntheticScene], cached: bool = True,
                 cache: Stage3Cache | None = None) -> dict:
    acfg = state.cfg
    groups = [
        ParamGroup("adapter", state.named_parameters(), cfg.s3_adapter_lr),
        ParamGroup("projector", mllm.projector.named_parameters(),
                   cfg.s3_adapter_lr / PROJECTOR_LR_DIVISOR),
    ]
    if not cached and cache is not None:
        raise UsageError("a Stage3Cache was passed to a run with "
                         "cached=False, which would never read it")
    if cached:
        if cache is None:
            cache = Stage3Cache(mllm, det, scenes, acfg.l_d,
                                chunk=cfg.eval_chunk)
        elif cache.l_d != acfg.l_d:
            raise UsageError(f"cache built for l_d={cache.l_d}, "
                             f"run needs l_d={acfg.l_d}")
        elif (len(cache.scenes) != len(scenes)
              or any(a is not b for a, b in zip(cache.scenes, scenes))):
            raise UsageError(
                f"cache built over other scenes ({len(cache.scenes)}) than the "
                f"{len(scenes)} this run trains on; build it over these "
                f"scenes, in order")
        loss_fn = lambda idx: stage3_loss_cached(cfg, mllm, det, state, cache, idx)
    else:
        loss_fn = lambda idx: stage3_loss_naive(
            cfg, mllm, det, state, [scenes[i] for i in idx])
    return _run_stage(replace(cfg, adapter=acfg), "stage3", groups,
                      (mllm, det, state), loss_fn, len(scenes), cfg.s3_steps,
                      cfg.s3_batch, cfg.run_seed)


def train_substitution(cfg: ExperimentConfig, mllm: MiniMllm,
                       det: GroundingDetector, sub: SubstitutionHead,
                       scenes: list[SyntheticScene]) -> dict:
    groups = [
        ParamGroup("substitution", sub.named_parameters(), cfg.sub_lr),
        ParamGroup("projector", mllm.projector.named_parameters(),
                   cfg.sub_lr / PROJECTOR_LR_DIVISOR),
    ]
    return _run_stage(
        cfg, "substitution", groups, (mllm, det, sub),
        _cached_detection_loss(cfg, mllm, det, scenes, sub),
        len(scenes), cfg.sub_steps, cfg.sub_batch, cfg.run_seed)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def grounded_outputs(cfg: ExperimentConfig, mllm: MiniMllm,
                     det: GroundingDetector, scenes: list[SyntheticScene],
                     state: FusionState | None = None,
                     sub: SubstitutionHead | None = None):
    """Numpy (boxes [B,Q,4], logits [B,Q,Q+1]) for one batch of scenes; the
    logit columns are the candidates padded to Q, then background.  Runs
    ``fused_outputs`` on fresh ``patch_tokens`` with no tape recorded,
    whatever is trainable."""
    with T.no_tape():
        boxes, logits = fused_outputs(cfg, mllm, det,
                                      patch_tokens(mllm, scenes), scenes,
                                      state, sub)
    return boxes.data, logits.data


def evaluate(cfg: ExperimentConfig, mllm: MiniMllm, det: GroundingDetector,
             scenes: list[SyntheticScene], state: FusionState | None = None,
             sub: SubstitutionHead | None = None) -> dict:
    """Chunked full-split evaluation -> grounding metrics.

    The ``eval_chunk`` chunks are independent forward passes whose boxes and
    logits ``_fill_rows`` writes into the arrays it allocates, on at most
    two processes: serial with one chunk, inside a worker, under an open
    ``FlopsMeter`` or ``attention_tap``, or without ``os.fork`` and a second
    CPU.  A worker that fails has its chunks evaluated again here, so an
    error in a chunk rises in this process with its own type, and its
    message names the chunk's scenes."""
    if not scenes:
        raise UsageError("evaluate needs at least one scene")
    nq = det.cfg.queries
    boxes, logits = _fill_rows(
        lambda lo, hi: grounded_outputs(cfg, mllm, det, scenes[lo:hi],
                                        state=state, sub=sub),
        len(scenes), cfg.eval_chunk, (((nq, 4), float), ((nq, nq + 1), float)),
        "evaluate")
    return eval_grounding(boxes, logits, scenes)


def load_split(cfg: ExperimentConfig, split: str) -> list[SyntheticScene]:
    """The split's scenes, ``cfg``'s count of them (``n_val`` for a val
    split); ``make_scene`` refuses an unknown split."""
    count = {"pretrain": cfg.n_pretrain, "train": cfg.n_train}.get(
        split, cfg.n_val)
    return generate_scenes(cfg.data_seed, count, split)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def prepare_backbones(cfg: ExperimentConfig
                      ) -> tuple[MiniMllm, GroundingDetector, dict]:
    """Pretrain the detector and run captioning stages 1-2: everything the
    adapter experiments share."""
    mllm, det = build_models(cfg)
    pretrain = load_split(cfg, "pretrain")
    reports = {
        "pretrain": pretrain_detector(cfg, mllm, det, pretrain),
        "stage1": train_stage1(cfg, mllm, pretrain),
        "stage2": train_stage2(cfg, mllm, pretrain),
    }
    return mllm, det, reports


def run_stage3_experiment(cfg: ExperimentConfig, mllm: MiniMllm,
                          det: GroundingDetector,
                          projector_snap: dict[str, np.ndarray],
                          train_scenes: list[SyntheticScene],
                          val_splits: dict[str, list[SyntheticScene]],
                          cache: Stage3Cache | None = None
                          ) -> tuple[FusionState, dict]:
    """One adapter run on shared frozen backbones: restore the post-stage-2
    projector, train a fresh adapter, evaluate on every provided split.

    An arm is its config: to run another adapter, pass
    ``replace(cfg, adapter=...)``, and the report records that section.
    Vary ``cfg.run_seed`` (not ``cfg.seed``) between repeats so the frozen
    backbones stay those of the prepared checkpoint.
    """
    restore(mllm.projector, projector_snap)
    state = build_adapter(cfg)
    report = train_stage3(cfg, mllm, det, state, train_scenes, cache=cache)
    report["metrics"] = {name: evaluate(cfg, mllm, det, scenes, state=state)
                         for name, scenes in val_splits.items()}
    return state, report


def run_substitution_experiment(cfg: ExperimentConfig, mllm: MiniMllm,
                                det: GroundingDetector,
                                projector_snap: dict[str, np.ndarray],
                                train_scenes: list[SyntheticScene],
                                val_splits: dict[str, list[SyntheticScene]]
                                ) -> tuple[SubstitutionHead, dict]:
    restore(mllm.projector, projector_snap)
    sub = build_substitution(cfg, mllm)
    report = train_substitution(cfg, mllm, det, sub, train_scenes)
    report["metrics"] = {name: evaluate(cfg, mllm, det, scenes, sub=sub)
                         for name, scenes in val_splits.items()}
    return sub, report
