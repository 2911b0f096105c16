"""Training loops for the full fusion protocol.

Order of operations for a complete experiment:

  1. detector pretrain - grounding detector alone, on the pretrain split;
  2. stage 1           - toy LM decoder + vision projector, captioning;
  3. stage 2           - projector only, captioning (re-alignment);
  4. stage 3           - fusion adapter (plus projector at 1/5 of the adapter
                         lr) under the detection loss, LM and detector frozen;
  5. substitution      - negative control: detector vision features replaced
                         by upsampled LM vision states, the substitution head
                         trained with the stage-3 budget.

Everything trains with Adam under a cosine-decayed learning rate.  Stage 3 runs
against cached activations of the frozen components; the cache is an
exact-value shortcut (same ops on the same values), and an equivalence test
compares it against the uncached path.  Reports embed the resolved config and
the full loss curve but no wall-clock fields, so a repeated run produces
byte-identical report files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .adapter import FusionState, bind
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


# ---------------------------------------------------------------------------
# model construction, freezing, snapshots
# ---------------------------------------------------------------------------


def build_models(cfg: ExperimentConfig) -> tuple[MiniMllm, GroundingDetector]:
    rng = np.random.default_rng([cfg.seed, MODEL_TAG])
    mllm = MiniMllm(cfg.mllm_config(), rng)
    h, w = mllm.cfg.grid
    det = GroundingDetector(cfg.detector_config(), mllm.cfg.d_patch, h * w, rng)
    return mllm, det


def build_adapter(cfg: ExperimentConfig, **overrides) -> FusionState:
    acfg = cfg.adapter_config(**overrides)
    rng = np.random.default_rng([cfg.run_seed, ADAPTER_TAG])
    return FusionState(acfg, rng)


def build_substitution(cfg: ExperimentConfig, mllm: MiniMllm) -> SubstitutionHead:
    rng = np.random.default_rng([cfg.run_seed, ADAPTER_TAG, 1])
    return SubstitutionHead(cfg.d_lm, cfg.det_d, mllm.cfg.grid,
                            mllm.cfg.shuffle_r, rng)


def snapshot(module) -> dict[str, np.ndarray]:
    """Deep copy of a module's parameter arrays (for restore between runs)."""
    return {k: v.copy() for k, v in module.state_arrays().items()}


def restore(module, snap: dict[str, np.ndarray]) -> None:
    module.load_state_arrays(snap)


def module_digest(module) -> str:
    """Order-independent content hash over all parameters; two calls agree
    iff every parameter array is bytewise identical."""
    h = hashlib.sha256()
    for name, arr in sorted(module.state_arrays().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# SGD with cosine decay
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


class Adam:
    """Adam with cosine lr decay and optional global-norm gradient clipping.

    Moment buffers are keyed by parameter identity; a fresh optimizer starts
    every stage.
    """

    def __init__(self, groups: list[ParamGroup], total: int,
                 clip: float = 0.0, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.groups = groups
        self.total = total
        self.clip = clip
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def _clip_grads(self) -> None:
        sq = 0.0
        for g in self.groups:
            for p in g.params.values():
                if p.grad is not None:
                    sq += float(np.sum(p.grad * p.grad))
        norm = np.sqrt(sq)
        if norm > self.clip:
            scale = self.clip / norm
            for g in self.groups:
                for p in g.params.values():
                    if p.grad is not None:
                        p.grad = p.grad * scale

    def step(self) -> None:
        if self.clip > 0:
            self._clip_grads()
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for g in self.groups:
            lr = cosine_lr(g.lr, self.t - 1, self.total)
            for p in g.params.values():
                if p.grad is None:
                    continue
                key = id(p)
                m = self._m.get(key)
                if m is None:
                    m = np.zeros_like(p.data)
                    self._v[key] = np.zeros_like(p.data)
                v = self._v[key]
                m = self.beta1 * m + (1 - self.beta1) * p.grad
                v = self.beta2 * v + (1 - self.beta2) * p.grad * p.grad
                self._m[key], self._v[key] = m, v
                p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        for g in self.groups:
            for p in g.params.values():
                p.grad = None


def _run_loop(stage: str, steps: int, batch: int, n: int,
              groups: list[ParamGroup], loss_fn, seed: int,
              clip: float = 0.0) -> list[float]:
    rng = np.random.default_rng([seed, STAGE_TAGS[stage]])
    opt = Adam(groups, total=steps, clip=clip)
    losses = []
    for step in range(steps):
        idx = rng.integers(0, n, size=batch)
        try:
            loss = loss_fn(idx)
            loss.backward()
        except NumericsError as e:
            raise NumericsError(
                f"{stage}: non-finite value at step {step}: {e}") from e
        opt.step()
        losses.append(float(loss.data))
    return losses


def _report(cfg: ExperimentConfig, stage: str, groups: list[ParamGroup],
            losses: list[float], **extra) -> dict:
    tail = losses[-25:] if losses else [float("nan")]
    rep = {
        "stage": stage,
        "steps": len(losses),
        "groups": [{"name": g.name, "lr": g.lr,
                    "params": int(sum(p.size for p in g.params.values()))}
                   for g in groups],
        "losses": losses,
        "final_loss": float(np.mean(tail)),
        "config": cfg.to_dict(),
    }
    rep.update(extra)
    return rep


def save_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# frozen-activation caches
# ---------------------------------------------------------------------------


def _chunks(n: int, size: int):
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


def cache_vision(mllm: MiniMllm, scenes: list[SyntheticScene], chunk: int = 64
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(patch tokens [N,P,d_patch], regrouped pre-projector groups
    [N,L_v,c_in]) for the frozen vision encoder."""
    images = np.stack([s.image for s in scenes])
    patches, regroup = [], []
    for lo, hi in _chunks(len(scenes), chunk):
        p = mllm.encode_image(T.constant(images[lo:hi]))
        patches.append(p.data)
        regroup.append(mllm.regroup_patches(p).data)
    return np.concatenate(patches), np.concatenate(regroup)


class Stage3Cache:
    """Per-scene activations of everything frozen during stage 3.

    regroup    [N, L_v, c_in]  vision groups, stopping right before the first
                               trainable map (the projector MLP)
    evd        [N, P, d]       detector vision features
    etxt       list [W_i, d]   candidate-text encodings, exact widths
    pooled     list [C_i, d]   per-candidate pooled embeddings
    counts     [N]
    pre_state  [N, Q, d]|None  decoder state entering layer l_d with no
                               adapter attached (None when every decoder layer
                               must re-run per step: l_d == 1 or Arch I)
    """

    def __init__(self, mllm: MiniMllm, det: GroundingDetector,
                 scenes: list[SyntheticScene], l_d: int,
                 full_decode: bool, chunk: int = 64):
        n = len(scenes)
        patches, self.regroup = cache_vision(mllm, scenes, chunk)
        d = det.cfg.d
        self.scenes = scenes
        self.l_d = l_d
        self.full_decode = full_decode
        self.max_c = det.cfg.queries
        self.evd = np.empty((n, patches.shape[1], d))
        self.etxt: list[np.ndarray] = [None] * n
        self.pooled: list[np.ndarray] = [None] * n
        self.counts = np.array([len(s.candidates) for s in scenes])
        need_state = not full_decode and l_d > 1
        self.pre_state = np.empty((n, det.cfg.queries, d)) if need_state else None
        for lo, hi in _chunks(n, chunk):
            batch = scenes[lo:hi]
            e_vis = det.encode_vision(T.constant(patches[lo:hi]))
            ids, valid, spans = pack_candidates(
                [s.candidates for s in batch], width=PACK_WIDTH)
            e_txt = det.encode_text(ids, valid)
            pooled, counts = pool_phrases(e_txt, spans, det.cfg.queries)
            self.evd[lo:hi] = e_vis.data
            for j, scene in enumerate(batch):
                w = int(valid[j].sum())
                self.etxt[lo + j] = e_txt.data[j, :w].copy()
                self.pooled[lo + j] = pooled.data[j, :counts[j]].copy()
            if need_state:
                self.pre_state[lo:hi] = det.decode(e_vis, e_txt, valid,
                                                   upto_layer=l_d - 1).data

    def text_batch(self, idx: np.ndarray, d: int):
        """Pad per-scene text/pooled rows into fixed-width batch arrays."""
        rows = [self.etxt[i] for i in idx]
        etxt = np.zeros((len(idx), PACK_WIDTH, d))
        valid = np.zeros((len(idx), PACK_WIDTH), dtype=bool)
        for j, r in enumerate(rows):
            etxt[j, : r.shape[0]] = r
            valid[j, : r.shape[0]] = True
        counts = self.counts[idx]
        pooled = np.zeros((len(idx), self.max_c, d))
        for j, i in enumerate(idx):
            pooled[j, : self.counts[i]] = self.pooled[i]
        return etxt, valid, pooled, counts


# ---------------------------------------------------------------------------
# stage losses
# ---------------------------------------------------------------------------


def _caption_loss(mllm: MiniMllm, regroup: np.ndarray, ids: np.ndarray,
                  valid: np.ndarray, idx: np.ndarray) -> Tensor:
    vis = mllm.projector(T.constant(regroup[idx]))
    return mllm.lm_loss_from_aligned(vis, ids[idx], valid[idx])


def _detector_outputs(det: GroundingDetector, e_vis: Tensor,
                      scenes: list[SyntheticScene], hook=None):
    ids, valid, spans = pack_candidates(
        [s.candidates for s in scenes], width=PACK_WIDTH)
    e_txt = det.encode_text(ids, valid)
    pooled, counts = pool_phrases(e_txt, spans, det.cfg.queries)
    if hook is not None:
        e_vis = hook.vision(e_vis)
    q = det.decode(e_vis, e_txt, valid, hook=hook)
    return det.boxes(q), det.phrase_logits(q, pooled), counts


def _lm_states(mllm: MiniMllm, vis: Tensor, acfg, scenes):
    """LM hidden states the adapter consumes (text only with text fusion)."""
    if acfg.text_fusion:
        ids, valid = pad_token_rows([s.query.ids for s in scenes])
        e_v_l, e_t = mllm.hidden_from_aligned(vis, acfg.l_lm, ids, valid)
        return e_v_l, e_t, valid
    e_v_l, _ = mllm.hidden_from_aligned(vis, acfg.l_lm)
    return e_v_l, None, None


def stage3_loss_naive(cfg: ExperimentConfig, mllm: MiniMllm,
                      det: GroundingDetector, state: FusionState,
                      scenes: list[SyntheticScene]) -> Tensor:
    """Reference stage-3 loss with no caching: full frozen forward passes."""
    images = T.constant(np.stack([s.image for s in scenes]))
    patches = mllm.encode_image(images)
    vis = mllm.align_vision(patches)
    e_v_l, e_t, valid = _lm_states(mllm, vis, state.cfg, scenes)
    e_vis = det.encode_vision(patches)
    hook = bind(state, e_v_l, e_t, e_v_d=e_vis, e_t_valid=valid)
    boxes, logits, counts = _detector_outputs(det, e_vis, scenes, hook)
    return detection_loss(boxes, logits, counts, scenes, det.cfg)


def stage3_loss_cached(cfg: ExperimentConfig, mllm: MiniMllm,
                       det: GroundingDetector, state: FusionState,
                       cache: Stage3Cache, idx: np.ndarray) -> Tensor:
    acfg = state.cfg
    scenes = [cache.scenes[i] for i in idx]
    vis = mllm.projector(T.constant(cache.regroup[idx]))
    e_v_l, e_t, valid = _lm_states(mllm, vis, acfg, scenes)
    evd = T.constant(cache.evd[idx])
    hook = bind(state, e_v_l, e_t, e_v_d=evd, e_t_valid=valid)
    etxt_np, tvalid, pooled_np, counts = cache.text_batch(idx, det.cfg.d)
    e_txt = T.constant(etxt_np)
    if acfg.fuses_vision or cache.pre_state is None:
        q = det.decode(hook.vision(evd), e_txt, tvalid, hook=hook)
    else:
        q = det.decode(evd, e_txt, tvalid, hook=hook,
                       start_state=T.constant(cache.pre_state[idx]),
                       start_layer=acfg.l_d)
    boxes = det.boxes(q)
    logits = det.phrase_logits(q, T.constant(pooled_np))
    return detection_loss(boxes, logits, counts, scenes, det.cfg)


# ---------------------------------------------------------------------------
# stage drivers
# ---------------------------------------------------------------------------


def pretrain_detector(cfg: ExperimentConfig, mllm: MiniMllm,
                      det: GroundingDetector,
                      scenes: list[SyntheticScene]) -> dict:
    patches, _ = cache_vision(mllm, scenes, cfg.eval_chunk)
    groups = [ParamGroup("detector", det.named_parameters(), cfg.pretrain_lr)]
    configure_trainable(groups, mllm, det)

    def loss_fn(idx):
        e_vis = det.encode_vision(T.constant(patches[idx]))
        batch = [scenes[i] for i in idx]
        boxes, logits, counts = _detector_outputs(det, e_vis, batch)
        return detection_loss(boxes, logits, counts, batch, det.cfg)

    losses = _run_loop("pretrain", cfg.pretrain_steps, cfg.pretrain_batch,
                       len(scenes), groups, loss_fn, cfg.seed, cfg.grad_clip)
    return _report(cfg, "pretrain", groups, losses)


def train_stage1(cfg: ExperimentConfig, mllm: MiniMllm,
                 scenes: list[SyntheticScene]) -> dict:
    _, regroup = cache_vision(mllm, scenes, cfg.eval_chunk)
    ids, valid = pad_token_rows([s.caption for s in scenes])
    named = {k: v for k, v in mllm.named_parameters().items()
             if not k.startswith("vision.")}
    groups = [ParamGroup("lm+projector", named, cfg.s1_lr)]
    configure_trainable(groups, mllm)
    losses = _run_loop(
        "stage1", cfg.s1_steps, cfg.s1_batch, len(scenes), groups,
        lambda idx: _caption_loss(mllm, regroup, ids, valid, idx), cfg.seed,
        cfg.grad_clip)
    return _report(cfg, "stage1", groups, losses)


def train_stage2(cfg: ExperimentConfig, mllm: MiniMllm,
                 scenes: list[SyntheticScene]) -> dict:
    _, regroup = cache_vision(mllm, scenes, cfg.eval_chunk)
    ids, valid = pad_token_rows([s.caption for s in scenes])
    groups = [ParamGroup("projector", mllm.projector.named_parameters(),
                         cfg.s2_lr)]
    configure_trainable(groups, mllm)
    losses = _run_loop(
        "stage2", cfg.s2_steps, cfg.s2_batch, len(scenes), groups,
        lambda idx: _caption_loss(mllm, regroup, ids, valid, idx), cfg.seed,
        cfg.grad_clip)
    return _report(cfg, "stage2", groups, losses)


def train_stage3(cfg: ExperimentConfig, mllm: MiniMllm,
                 det: GroundingDetector, state: FusionState,
                 scenes: list[SyntheticScene], cached: bool = True,
                 cache: Stage3Cache | None = None) -> dict:
    acfg = state.cfg
    groups = [
        ParamGroup("adapter", state.named_parameters(), cfg.s3_adapter_lr),
        ParamGroup("projector", mllm.projector.named_parameters(),
                   cfg.s3_mlp_lr),
    ]
    configure_trainable(groups, mllm, det, state)
    if cached:
        full = acfg.fuses_vision
        if cache is None:
            cache = Stage3Cache(mllm, det, scenes, acfg.l_d,
                                full_decode=full, chunk=cfg.eval_chunk)
        elif cache.l_d != acfg.l_d or cache.full_decode != full:
            raise UsageError(
                f"cache built for l_d={cache.l_d} full_decode={cache.full_decode},"
                f" run needs l_d={acfg.l_d} full_decode={full}")
        loss_fn = lambda idx: stage3_loss_cached(cfg, mllm, det, state, cache, idx)
    else:
        loss_fn = lambda idx: stage3_loss_naive(
            cfg, mllm, det, state, [scenes[i] for i in idx])
    losses = _run_loop("stage3", cfg.s3_steps, cfg.s3_batch, len(scenes),
                       groups, loss_fn, cfg.run_seed, cfg.grad_clip)
    return _report(cfg, "stage3", groups, losses,
                   arch=acfg.arch, l_lm=acfg.l_lm, l_d=acfg.l_d)


def train_substitution(cfg: ExperimentConfig, mllm: MiniMllm,
                       det: GroundingDetector, sub: SubstitutionHead,
                       scenes: list[SyntheticScene]) -> dict:
    _, regroup = cache_vision(mllm, scenes, cfg.eval_chunk)
    groups = [
        ParamGroup("substitution", sub.named_parameters(), cfg.sub_lr),
        ParamGroup("projector", mllm.projector.named_parameters(),
                   cfg.sub_lr / 5.0),
    ]
    configure_trainable(groups, mllm, det, sub)

    def loss_fn(idx):
        batch = [scenes[i] for i in idx]
        vis = mllm.projector(T.constant(regroup[idx]))
        e_v_l, _ = mllm.hidden_from_aligned(vis, cfg.l_lm)
        e_vis = T.add(sub(e_v_l), det.vis_pos)
        boxes, logits, counts = _detector_outputs(det, e_vis, batch)
        return detection_loss(boxes, logits, counts, batch, det.cfg)

    losses = _run_loop("substitution", cfg.sub_steps, cfg.sub_batch,
                       len(scenes), groups, loss_fn, cfg.run_seed,
                       cfg.grad_clip)
    return _report(cfg, "substitution", groups, losses, l_lm=cfg.l_lm)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def grounded_outputs(cfg: ExperimentConfig, mllm: MiniMllm,
                     det: GroundingDetector, scenes: list[SyntheticScene],
                     state: FusionState | None = None,
                     sub: SubstitutionHead | None = None):
    """Numpy (boxes [B,Q,4], logits [B,Q,C+1]) for one batch of scenes."""
    if state is not None and sub is not None:
        raise UsageError("pass a fusion state or a substitution head, not both")
    images = T.constant(np.stack([s.image for s in scenes]))
    patches = mllm.encode_image(images)
    hook = None
    if sub is not None:
        vis = mllm.align_vision(patches)
        e_v_l, _ = mllm.hidden_from_aligned(vis, cfg.l_lm)
        e_vis = T.add(sub(e_v_l), det.vis_pos)
    else:
        e_vis = det.encode_vision(patches)
        if state is not None:
            vis = mllm.align_vision(patches)
            e_v_l, e_t, valid = _lm_states(mllm, vis, state.cfg, scenes)
            hook = bind(state, e_v_l, e_t, e_v_d=e_vis, e_t_valid=valid)
    boxes, logits, _ = _detector_outputs(det, e_vis, scenes, hook)
    return boxes.data, logits.data


def evaluate(cfg: ExperimentConfig, mllm: MiniMllm, det: GroundingDetector,
             scenes: list[SyntheticScene], state: FusionState | None = None,
             sub: SubstitutionHead | None = None) -> dict:
    """Chunked full-split evaluation -> grounding metrics."""
    max_c = max(len(s.candidates) for s in scenes)
    all_boxes, all_logits = [], []
    for lo, hi in _chunks(len(scenes), cfg.eval_chunk):
        boxes, logits = grounded_outputs(cfg, mllm, det, scenes[lo:hi],
                                         state=state, sub=sub)
        padded = np.zeros((logits.shape[0], logits.shape[1], max_c + 1))
        k = min(max_c, logits.shape[2] - 1)
        padded[:, :, :k] = logits[:, :, :k]
        padded[:, :, -1] = logits[:, :, -1]
        all_boxes.append(boxes)
        all_logits.append(padded)
    return eval_grounding(np.concatenate(all_boxes), np.concatenate(all_logits),
                          scenes, cfg.iou_thresh)


def load_split(cfg: ExperimentConfig, split: str) -> list[SyntheticScene]:
    counts = {"pretrain": cfg.n_pretrain, "train": cfg.n_train,
              "val-category": cfg.n_val, "val-spatial": cfg.n_val}
    return generate_scenes(cfg.data_seed, counts[split], split)


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
                          cached: bool = True,
                          cache: Stage3Cache | None = None,
                          **adapter_overrides) -> tuple[FusionState, dict]:
    """One adapter run on shared frozen backbones: restore the post-stage-2
    projector, train a fresh adapter, evaluate on every provided split.

    Vary ``cfg.run_seed`` (not ``cfg.seed``) between repeats so the frozen
    backbones stay those of the prepared checkpoint.
    """
    restore(mllm.projector, projector_snap)
    state = build_adapter(cfg, **adapter_overrides)
    report = train_stage3(cfg, mllm, det, state, train_scenes, cached=cached,
                          cache=cache)
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
