"""Minimal DETR-style grounding detector.

Vision path: the shared frozen patch encoder, a trained projection, and a
learned positional table.  Text path: embedding plus one self-attention layer
over the scene's candidate phrases joined by "." separators.  A stack of
decoder layers (self-attention, vision cross-attention, text cross-attention,
MLP; all pre-LN) refines Q learned queries, read out by a sigmoid box head
and a phrase-alignment head with a learned background embedding.

An optional fusion hook (see the adapter module) is called right before one
decoder layer with the queries and the vision features and returns both, the
one it acts on rewritten; the detector itself knows nothing about how the
hook's content is produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import tensor as T
from .layers import (MLP_RATIO, Linear, MLP, LayerNorm, Module,
                     MultiHeadAttention)
from .mllm import MllmConfig
from .scenes import (PACK_WIDTH, VOCAB, SyntheticScene, box_iou, encode,
                     pad_token_rows)
from .tensor import ConfigurationError, Tensor, UsageError, check_fields

# detection-loss weights: matched box L1, matched phrase CE, background CE
BOX_WEIGHT, PHRASE_WEIGHT, BACKGROUND_WEIGHT = 5.0, 1.0, 0.5


@dataclass(frozen=True)
class DetectorConfig:
    d: int = 64
    heads: int = 4
    depth: int = 6
    queries: int = 4

    def __post_init__(self):
        check_fields(self, "detector.", ("d", "heads", "depth", "queries"),
                     "at least 1", lambda v: v >= 1)
        if self.d % self.heads:
            raise ConfigurationError(
                f"d {self.d} not divisible by heads {self.heads}")


class TextEncoder(Module):
    def __init__(self, cfg: DetectorConfig, rng: np.random.Generator):
        self.embed = Tensor(rng.standard_normal((VOCAB, cfg.d)) * 0.1,
                            requires_grad=True)
        self.attn = MultiHeadAttention(cfg.d, cfg.heads, rng,
                                       rope_base=T.ROPE_BASE)
        self.ln = LayerNorm(cfg.d)

    def __call__(self, ids: np.ndarray, valid: np.ndarray) -> Tensor:
        x = T.index_select(self.embed, 0, ids)
        mask = T.additive_mask(valid)[:, None, None, :]
        x = T.add(x, self.attn(x, x, mask=mask))
        return self.ln(x)


class DecoderLayer(Module):
    def __init__(self, cfg: DetectorConfig, rng: np.random.Generator):
        d, h = cfg.d, cfg.heads
        self.ln_self = LayerNorm(d)
        self.self_attn = MultiHeadAttention(d, h, rng)
        self.ln_vis = LayerNorm(d)
        self.vis_attn = MultiHeadAttention(d, h, rng)
        self.ln_txt = LayerNorm(d)
        self.txt_attn = MultiHeadAttention(d, h, rng)
        self.ln_mlp = LayerNorm(d)
        self.mlp = MLP(d, MLP_RATIO * d, d, rng)

    def __call__(self, q: Tensor, e_vis: Tensor, e_txt: Tensor,
                 txt_mask: np.ndarray) -> Tensor:
        h = self.ln_self(q)
        q = T.add(q, self.self_attn(h, h))
        q = T.add(q, self.vis_attn(self.ln_vis(q), e_vis))
        q = T.add(q, self.txt_attn(self.ln_txt(q), e_txt, mask=txt_mask))
        return T.add(q, self.mlp(self.ln_mlp(q)))


class GroundingDetector(Module):
    def __init__(self, cfg: DetectorConfig, mcfg: MllmConfig,
                 rng: np.random.Generator):
        self.cfg = cfg
        h, w = mcfg.grid
        self.vis_proj = Linear(mcfg.d_patch, cfg.d, rng)
        self.vis_pos = Tensor(rng.standard_normal((h * w, cfg.d)) * 0.1,
                              requires_grad=True)
        self.text = TextEncoder(cfg, rng)
        self.query_embed = Tensor(rng.standard_normal((cfg.queries, cfg.d)) * 0.5,
                                  requires_grad=True)
        self.layers = [DecoderLayer(cfg, rng) for _ in range(cfg.depth)]
        self.ln_out = LayerNorm(cfg.d)
        self.box_head = MLP(cfg.d, cfg.d, 4, rng)
        self.class_proj = Linear(cfg.d, cfg.d, rng)
        self.bg_embed = Tensor(rng.standard_normal(cfg.d) * 0.1,
                               requires_grad=True)

    # -- encoders -----------------------------------------------------------

    def encode_vision(self, patch_tokens: Tensor) -> Tensor:
        """Frozen patch tokens [B, P, d_patch] -> detector features [B, P, d]."""
        return T.add(self.vis_proj(patch_tokens), self.vis_pos)

    def encode_text(self, ids: np.ndarray, valid: np.ndarray) -> Tensor:
        return self.text(ids, valid)

    # -- decoder ------------------------------------------------------------

    def decode(self, e_vis: Tensor, e_txt: Tensor, txt_valid: np.ndarray,
               hook=None, start_state: Tensor | None = None,
               start_layer: int = 1, upto_layer: int | None = None) -> Tensor:
        """Run decoder layers ``start_layer .. depth`` over the query set and
        apply the output norm.

        ``start_state`` resumes from a cached mid-stack state (the default
        starts from the learned query embeddings).  With ``upto_layer`` the
        run stops after that layer and returns its raw state, the one layer
        ``upto_layer + 1`` consumes.  A hook runs as
        ``q, e_vis = hook(q, e_vis)`` right before its layer ``hook.l_d``,
        which must not precede ``start_layer`` (a resumed decode cannot apply
        it) and must be one of this detector's layers: a hook past the last
        one raises ``UsageError`` rather than never running.
        """
        b = e_vis.shape[0]
        if start_state is None:
            if start_layer != 1:
                raise UsageError("start_layer > 1 requires start_state")
            q = T.concat(
                [T.reshape(self.query_embed, 1, self.cfg.queries, self.cfg.d)] * b,
                axis=0)
        else:
            q = start_state
        if hook is not None and hook.l_d < start_layer:
            raise UsageError(
                f"hook targets layer {hook.l_d} before start layer {start_layer}")
        if hook is not None and hook.l_d > self.cfg.depth:
            raise UsageError(f"hook targets layer {hook.l_d} past the "
                             f"detector's last layer {self.cfg.depth}")
        stop = self.cfg.depth if upto_layer is None else upto_layer
        if not start_layer - 1 <= stop <= self.cfg.depth:
            raise UsageError(
                f"upto_layer {stop} outside [{start_layer - 1}, {self.cfg.depth}]")
        txt_mask = T.additive_mask(txt_valid)[:, None, None, :]
        for i, layer in enumerate(self.layers[start_layer - 1:stop],
                                  start=start_layer):
            if hook is not None and hook.l_d == i:
                q, e_vis = hook(q, e_vis)
            q = layer(q, e_vis, e_txt, txt_mask)
        return q if upto_layer is not None else self.ln_out(q)

    # -- heads --------------------------------------------------------------

    def boxes(self, q: Tensor) -> Tensor:
        return T.sigmoid(self.box_head(q))

    def phrase_logits(self, q: Tensor, pooled: Tensor) -> Tensor:
        """[B,Q,d] x [B,C,d] -> [B,Q,C+1] alignment logits; last column is the
        learned background class."""
        b, _, d = q.shape
        proj = self.class_proj(q)
        cand = T.transpose(pooled, (0, 2, 1))
        logits = T.mul(T.matmul(proj, cand), 1.0 / np.sqrt(d))
        bg = T.mul(T.matmul(proj, T.reshape(self.bg_embed, 1, d, 1)),
                   1.0 / np.sqrt(d))
        return T.concat([logits, bg], axis=2)


# ---------------------------------------------------------------------------
# candidate-phrase packing
# ---------------------------------------------------------------------------


def pack_candidates(scene_candidates: list[list[np.ndarray]]
                    ) -> tuple[np.ndarray, np.ndarray, list[list[tuple[int, int]]]]:
    """Join each scene's candidate phrases with "." separators into one text
    row per scene.  Returns (ids, valid, per-scene token spans per candidate).

    Every batch is padded to ``PACK_WIDTH`` regardless of content, so
    differently composed batches keep the same shapes (and so the same
    summation order) everywhere downstream.
    """
    sep = encode(["."])
    rows, spans = [], []
    for cands in scene_candidates:
        toks: list[np.ndarray] = []
        sp = []
        pos = 0
        for j, c in enumerate(cands):
            if j:
                toks.append(sep)
                pos += 1
            sp.append((pos, pos + len(c)))
            toks.append(c)
            pos += len(c)
        rows.append(np.concatenate(toks))
        spans.append(sp)
    needed = max(len(r) for r in rows)
    if needed > PACK_WIDTH:
        raise UsageError(
            f"pack width {PACK_WIDTH} too small for {needed}-token candidates")
    return (*pad_token_rows(rows, PACK_WIDTH), spans)


def pool_phrases(e_txt: Tensor, spans: list[list[tuple[int, int]]],
                 max_c: int) -> Tensor:
    """Per-candidate masked means of text features, padded to ``max_c``
    candidates: [B, max_c, d]."""
    b, w, _ = e_txt.shape
    weights = np.zeros((b, max_c, w))
    for i, sp in enumerate(spans):
        if len(sp) > max_c:
            raise ConfigurationError(
                f"scene {i} has {len(sp)} candidates, more than max_c={max_c} "
                f"(the detector's query count)")
        for c, (lo, hi) in enumerate(sp):
            weights[i, c, lo:hi] = 1.0 / (hi - lo)
    return T.matmul(T.constant(weights), e_txt)


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def match_hungarian(costs: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost injective assignment ground truth -> query for a [Q, G]
    cost matrix.  Returns (query, gt) pairs sorted by gt."""
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise UsageError(f"cost matrix must be 2-d, got shape {costs.shape}")
    q, g = costs.shape
    if g > q:
        raise UsageError(f"more ground truths ({g}) than queries ({q})")
    if not np.all(np.isfinite(costs)):
        raise UsageError("cost matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(costs)
    pairs = sorted(zip(rows.tolist(), cols.tolist()), key=lambda p: p[1])
    return [(int(r), int(c)) for r, c in pairs]


# ---------------------------------------------------------------------------
# loss / eval
# ---------------------------------------------------------------------------


def _candidate_probs(logits: np.ndarray, n_cand: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """One scene's phrase distribution per query slot over its real
    candidate columns plus the background column (the last); returns the
    kept column indices and the probabilities."""
    keep = np.r_[np.arange(n_cand), logits.shape[-1] - 1]
    raw = logits[:, keep]
    shifted = np.exp(raw - raw.max(-1, keepdims=True))
    return keep, shifted / shifted.sum(-1, keepdims=True)


def detection_loss(boxes: Tensor, logits: Tensor,
                   scenes: list[SyntheticScene]) -> Tensor:
    """Hungarian-matched loss, summed per scene and averaged over the batch.

    Per scene: ``BOX_WEIGHT`` * L1 on matched boxes, ``PHRASE_WEIGHT`` * CE
    on matched queries' candidate labels, ``BACKGROUND_WEIGHT`` * CE pushing
    unmatched queries to the background class.  Each CE runs over the
    scene's real candidates plus background; padded candidate columns are
    masked out.

    Matching runs per scene on numpy; the loss is then one weighted L1 term
    and one masked cross-entropy over the whole batch, built from target and
    weight arrays.
    """
    b, nq, _ = boxes.shape
    n_col = logits.shape[2]
    bg = n_col - 1
    gt_boxes = np.zeros((b, nq, 4))
    box_w = np.zeros((b, nq, 1))
    labels = np.full((b, nq), bg)
    row_w = np.full((b, nq), BACKGROUND_WEIGHT)
    col_ok = np.zeros((b, 1, n_col), dtype=bool)
    for i, scene in enumerate(scenes):
        keep, probs = _candidate_probs(logits.data[i], len(scene.candidates))
        col_ok[i, 0, keep] = True
        g = len(scene.gt_boxes)
        cost = np.zeros((nq, g))
        for j in range(g):
            l1 = np.abs(boxes.data[i] - scene.gt_boxes[j]).sum(-1)
            cost[:, j] = BOX_WEIGHT * l1 + PHRASE_WEIGHT * (
                1.0 - probs[:, scene.gt_labels[j]])
        for qi, gj in match_hungarian(cost):
            gt_boxes[i, qi] = scene.gt_boxes[gj]
            box_w[i, qi] = BOX_WEIGHT
            labels[i, qi] = scene.gt_labels[gj]
            row_w[i, qi] = PHRASE_WEIGHT
    scale = 1.0 / len(scenes)
    l1 = T.tsum(T.mul(T.absval(T.sub(boxes, T.constant(gt_boxes))),
                      T.constant(box_w * scale)))
    ce = T.weighted_cross_entropy(logits, labels, row_w * scale,
                                  mask=T.additive_mask(col_ok))
    return T.add(l1, ce)


def query_column(scene: SyntheticScene) -> int:
    """Index of the query phrase within the scene's candidate list."""
    for j, cand in enumerate(scene.candidates):
        if len(cand) == len(scene.query.ids) and np.array_equal(cand, scene.query.ids):
            return j
    raise UsageError("query phrase is not among the scene candidates")


# a grounding pick is a hit when its IoU with the target reaches this
IOU_THRESH = 0.5


def eval_grounding(boxes: np.ndarray, logits: np.ndarray,
                   scenes: list[SyntheticScene]) -> dict:
    """Single-phrase grounding accuracy at IoU ``IOU_THRESH``, split by query
    kind.  The answer box comes from the query slot whose phrase distribution
    (over the scene's real candidates plus background) puts the most mass on
    the query phrase; padded candidate columns are excluded."""
    per_scene = []
    for i, scene in enumerate(scenes):
        _, probs = _candidate_probs(logits[i], len(scene.candidates))
        pick = int(np.argmax(probs[:, query_column(scene)]))
        iou = box_iou(boxes[i, pick], scene.query.target_box)
        per_scene.append({
            "kind": scene.query.kind,
            "iou": iou,
            "hit": bool(iou >= IOU_THRESH),
            "picked_query": pick,
        })
    out = {"n": len(scenes), "iou_thresh": IOU_THRESH}
    for kind in ("category", "spatial"):
        sub = [r for r in per_scene if r["kind"] == kind]
        if sub:
            out[f"acc_{kind}"] = float(np.mean([r["hit"] for r in sub]))
            out[f"n_{kind}"] = len(sub)
    out["acc"] = float(np.mean([r["hit"] for r in per_scene]))
    out["mean_iou"] = float(np.mean([r["iou"] for r in per_scene]))
    out["per_scene"] = per_scene
    return out


def substitution_index(grid: tuple[int, int], r: int) -> np.ndarray:
    """Patch-position -> aligned-token index map for nearest-neighbor
    upsampling of LM vision states onto the detector's patch grid."""
    h, w = grid
    rows = np.repeat(np.arange(h // r), r)
    cols = np.repeat(np.arange(w // r), r)
    return (rows[:, None] * (w // r) + cols[None, :]).reshape(-1)


class SubstitutionHead(Module):
    """Negative control: a single linear map from LM width onto the detector
    vision slots, replacing the detector's own vision features entirely."""

    def __init__(self, mcfg: MllmConfig, dcfg: DetectorConfig,
                 rng: np.random.Generator):
        self.proj = Linear(mcfg.d_lm, dcfg.d, rng)
        self._index = substitution_index(mcfg.grid, mcfg.shuffle_r)

    def __call__(self, e_v_l: Tensor) -> Tensor:
        mapped = self.proj(e_v_l)
        return T.index_select(mapped, 1, self._index)
