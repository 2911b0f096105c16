"""Finite-difference verification of every differentiable path.

``CASES`` is the one catalogue of gradient checks: an ordered list of
``(name, build)`` pairs where ``build(rng)`` draws a case's tensors and its
structure (masks, strides, positions) and returns ``(loss_fn, params)``.
The ``gradcheck`` command walks it at one seed and the tier-1 tests walk
every ``op/`` and ``layer/`` case over twenty seeds.  Each check compares
analytic gradients against central differences (``finite_diff_check``) and
reports the worst relative error, which must stay below ``GRADCHECK_TOL``.

Composed cases run on micro models (width ~12, two layers) so the whole
catalogue finishes in seconds while still walking the exact production code
paths: the caption loss, the grounding loss, the fused stage-3 loss for each
adapter placement, and the substitution control.  They perturb the small
parameter leaves (gates, biases) of every component; a wiring bug that
detaches any sub-graph shows up as an analytic gradient of zero against a
non-zero numeric one.  The fusion gate starts at zero by design, and so does
the output projection on the injection path (Arch II-IV); that parks the
adapter at a stationary point, so the fused cases run from a randomized
adapter state in which gradients flow through every projection.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import tensor as T
from .adapter import (ARCHS, AdapterConfig, FusionState, make_prompts,
                      zero_init_cross_attn)
from .config import ExperimentConfig
from .detector import (DetectorConfig, GroundingDetector, SubstitutionHead,
                       detection_loss)
from .layers import (MLP, LayerNorm, Linear, MultiHeadAttention,
                     TransformerBlock)
from .mllm import MiniMllm, MllmConfig
from .scenes import Query, SyntheticScene, encode, generate_scenes
from .tensor import Tensor, finite_diff_check
from . import training as tr

GRADCHECK_TOL = 1e-4


def _weighted_sum(t: Tensor) -> Tensor:
    # weights come from a fixed stream so re-evaluations during finite
    # differencing see the identical scalarization
    w = T.constant(np.random.default_rng(99).standard_normal(t.shape))
    return T.tsum(T.mul(t, w))


def _param(rng, *shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def _positive(rng):
    return Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)


def _on(op, *draws):
    """``op`` on fresh tensors, scalarized by a fixed weighted sum.  Each
    draw is a shape (standard normal) or a ``draw(rng)``."""
    def build(rng):
        xs = [d(rng) if callable(d) else _param(rng, *d) for d in draws]
        return (lambda: _weighted_sum(op(*xs))), xs
    return build


def _key_mask(rng, b, tk):
    """Additive attention mask over random keys, key 0 always kept."""
    valid = rng.uniform(size=(b, tk)) > 0.4
    valid[:, 0] = True
    return T.additive_mask(valid)[:, None, None, :]


# ---------------------------------------------------------------------------
# ops that draw their own structure
# ---------------------------------------------------------------------------


def _masked_softmax(rng):
    x = _param(rng, 2, 6)
    valid = rng.uniform(size=6) > 0.3
    valid[0] = True
    mask = T.additive_mask(valid)
    return (lambda: _weighted_sum(T.softmax(x, axis=-1, mask=mask))), [x]


def _softmax_matmul(q, k, v):
    """Attention written out op by op: a scaled softmax between matmuls."""
    s = T.matmul(q, T.transpose(k, (1, 0)))
    return T.matmul(T.softmax(T.mul(s, 1.0 / np.sqrt(4.0)), axis=-1), v)


def _conv2d(rng):
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 2))
    x, k = _param(rng, 2, 2, 5, 5), _param(rng, 3, 2, 3, 3)
    return (lambda: _weighted_sum(T.conv2d(x, k, stride=stride, padding=pad))
            ), [x, k]


def _rope(rng):
    x = _param(rng, 1, 3, 2, 8)            # [B, T, heads, d_head]
    pos = rng.integers(0, 16, size=3)
    base = float(rng.choice([100.0, 10000.0]))
    return (lambda: _weighted_sum(T.rope_apply(x, pos, base=base))), [x]


def _index_select(rng):
    """A token lookup: rows of a table gathered by a 2-d id array."""
    table = _param(rng, 5, 3)
    ids = rng.integers(0, 5, size=(2, 4))
    return (lambda: _weighted_sum(T.index_select(table, 0, ids))), [table]


def _qkv(rng):
    return [_param(rng, 2, t, 4, scale=0.7) for t in (3, 4, 4)]


def _attention_masked(rng):
    q, k, v = _qkv(rng)
    mask = _key_mask(rng, 2, 4)
    return (lambda: _weighted_sum(T.attention(q, k, v, 2, mask=mask))
            ), [q, k, v]


def _attention_rope_offsets(rng):
    """RoPE at the adapter's offsets: queries after a prompt of length 2."""
    q, k, v = _qkv(rng)
    return (lambda: _weighted_sum(T.attention(
        q, k, v, 2, rope_base=100.0, pos_q=np.arange(2, 5),
        pos_k=np.arange(4)))), [q, k, v]


def _attention_gated(gated_keys):
    """A tanh-gated prompt segment of ``gated_keys`` keys before a plain
    segment (none when every key is gated), one prompt key masked."""
    def build(rng):
        q, k, v = _qkv(rng)
        gate = _param(rng, 2, scale=0.5)
        valid = np.ones((2, 4), dtype=bool)
        valid[1, 1] = False
        mask = T.additive_mask(valid)[:, None, None, :]
        return (lambda: _weighted_sum(T.attention(
            q, k, v, 2, mask=mask, rope_base=100.0,
            pos_q=np.arange(gated_keys, gated_keys + 3), pos_k=np.arange(4),
            gate=T.tanh(gate), gated_keys=gated_keys))), [q, k, v, gate]
    return build


def _memory_attention_masked(rng):
    """Three queries over five raw memory rows, random keys masked, with
    drawn biases (``bk``'s gradient is zero up to rounding: a per-row
    constant moves no softmax weight)."""
    q, mem = _param(rng, 2, 3, 4, scale=0.7), _param(rng, 2, 5, 4, scale=0.7)
    wk, wv = _param(rng, 4, 4, scale=0.7), _param(rng, 4, 4, scale=0.7)
    bk, bv = _param(rng, 4, scale=0.5), _param(rng, 4, scale=0.5)
    mask = _key_mask(rng, 2, 5)
    return (lambda: _weighted_sum(T.memory_attention(
        q, mem, wk, bk, wv, bv, 2, mask=mask))), [q, mem, wk, bk, wv, bv]


def _cross_entropy_masked(rng):
    """The detection loss's CE: random candidate columns (background kept),
    labels on kept columns or background, random row weights."""
    x = _param(rng, 2, 3, 5)
    cols = rng.uniform(size=(2, 1, 5)) > 0.4
    cols[..., -1] = True
    labels = np.where(rng.uniform(size=(2, 3)) > 0.5, 4,
                      np.argmax(cols, axis=-1))
    weights = rng.uniform(0.2, 2.0, size=(2, 3))
    mask = T.additive_mask(cols)
    return (lambda: T.weighted_cross_entropy(x, labels, weights, mask=mask)
            ), [x]


# ---------------------------------------------------------------------------
# shared layers
# ---------------------------------------------------------------------------


def _module(make, x_shape, pick, scale=0.7):
    """Module ``make(rng)`` on a fresh input; ``pick(module)`` lists the
    module parameters checked beside the input."""
    def build(rng):
        m = make(rng)
        x = _param(rng, *x_shape, scale=scale)
        return (lambda: _weighted_sum(m(x))), [x, *pick(m)]
    return build


def _random_layernorm(rng):
    ln = LayerNorm(6)
    ln.gamma.data[:] = rng.uniform(0.5, 1.5, 6)
    ln.beta.data[:] = rng.standard_normal(6) * 0.3
    return ln


def _attention_layer(rng):
    mha = MultiHeadAttention(8, 2, rng, rope_base=50.0)
    x = _param(rng, 2, 5, 8, scale=0.5)
    mask = _key_mask(rng, 2, 5)
    return (lambda: _weighted_sum(mha(x, x, mask=mask))
            ), [x, mha.wq.bias, mha.wk.bias, mha.wv.bias, mha.wo.bias]


# ---------------------------------------------------------------------------
# micro models -- production code paths at toy width
# ---------------------------------------------------------------------------

_CANVAS = 8
_CFG = ExperimentConfig(adapter=AdapterConfig(l_lm=1))  # substitution LM tap
_MICRO_LM = MllmConfig(d_lm=12, n=2, heads=2, patch=4, canvas=_CANVAS,
                       shuffle_r=1, proj_hidden=10, sys_len=1)
_MICRO_DET = DetectorConfig(d=12, heads=2, depth=2, queries=3)


def _micro_scene(rng):
    img = rng.standard_normal((3, _CANVAS, _CANVAS)) * 0.4
    cands = [encode(["the", "red", "circle"]),
             encode(["the", "blue", "square"])]
    gt = np.array([[0.35, 0.42, 0.24, 0.2], [0.63, 0.57, 0.2, 0.26]])
    gt = gt + rng.uniform(-0.02, 0.02, gt.shape)
    return SyntheticScene(
        image=img, objects=[],
        caption=encode(["<bos>", "the", "red", "circle", "<eos>"]),
        query=Query(ids=cands[0], target_box=gt[0], kind="category"),
        candidates=cands, gt_boxes=gt,
        gt_labels=np.array([0, 1], dtype=np.intp))


def _micro_grounding(rng):
    """A micro LM, detector and two scenes."""
    mllm = MiniMllm(_MICRO_LM, rng)
    det = GroundingDetector(_MICRO_DET, _MICRO_LM, rng)
    return mllm, det, [_micro_scene(rng) for _ in range(2)]


def _caption_loss(rng):
    mllm = MiniMllm(_MICRO_LM, rng)
    ids = np.stack([encode(["<bos>", "the", "red", "circle", "<eos>"]),
                    encode(["<bos>", "the", "blue", "square", "<eos>"])])
    valid = np.ones(ids.shape, dtype=bool)
    valid[1, 4] = False
    images = rng.standard_normal((2, 3, _CANVAS, _CANVAS)) * 0.4
    scene = _micro_scene(rng)
    patches = T.constant(tr.patch_tokens(
        mllm, [replace(scene, image=img) for img in images]))
    return (lambda: mllm.lm_loss_from_aligned(
        mllm.align_vision(patches), ids, valid)), [
        mllm.projector.mlp.fc1.bias, mllm.projector.mlp.fc2.bias,
        mllm.blocks[0].attn.wq.bias, mllm.blocks[1].mlp.fc2.bias,
        mllm.ln_f.beta, mllm.sys_embed]


def _grounding_loss(rng):
    mllm, det, scenes = _micro_grounding(rng)
    patches = tr.patch_tokens(mllm, scenes)
    return (lambda: detection_loss(*tr.fused_outputs(
        _CFG, mllm, det, patches, scenes), scenes)), [
        det.vis_proj.bias, det.layers[0].mlp.fc2.bias,
        det.layers[1].txt_attn.wo.bias, det.box_head.fc2.bias,
        det.class_proj.bias, det.bg_embed]


def _fused_loss(arch):
    def build(rng):
        mllm, det, scenes = _micro_grounding(rng)
        acfg = AdapterConfig(arch=arch, l_lm=1, conv_stride=1)
        state = FusionState(acfg, _MICRO_LM, _MICRO_DET, rng)
        # off the zero-init stationary point (see the module docstring)
        state.gate.data[:] = rng.standard_normal(state.gate.shape) * 0.3
        state.out_proj.weight.data[:] = \
            rng.standard_normal(state.out_proj.weight.shape) * 0.2
        params = [state.gate, state.wq.bias, state.wk.bias, state.wv.bias,
                  state.out_proj.bias, mllm.projector.mlp.fc2.bias,
                  state.proj_lm.bias if acfg.fuses_vision else state.conv_bias]
        if acfg.text_fusion:
            params.append(state.text_fusion.wo.bias)
        return (lambda: tr.stage3_loss_naive(_CFG, mllm, det, state, scenes)
                ), params
    return build


def _adapter_step(arch):
    """One adapter step at width 8 from weights drawn away from zero-init:
    Arch IV injects its prompts into three queries, Arch I gates its
    text-fused prompts into three vision features."""
    def build(rng):
        state = FusionState(AdapterConfig(arch=arch),
                            replace(_MICRO_LM, d_lm=8),
                            replace(_MICRO_DET, d=8), rng)
        for p in state.parameters():
            p.data = rng.standard_normal(p.shape) * 0.3
        cfg = state.cfg
        e_v_l = T.constant(rng.standard_normal((1, 4, 8)))
        e_t = T.constant(rng.standard_normal((1, 6, 8))) \
            if cfg.text_fusion else None
        x = T.constant(rng.standard_normal((1, 3, 8)))
        own = ([state.proj_lm.weight, state.text_fusion.wo.weight]
               if cfg.fuses_vision else
               [state.wq.weight, state.conv_kernel, state.conv_bias])
        return (lambda: _weighted_sum(zero_init_cross_attn(
            x, make_prompts(e_v_l, e_t, cfg=cfg, state=state), state))
        ), [state.gate, state.out_proj.weight, *own]
    return build


def _detection_loss(rng):
    """The detection loss on raw box and logit tensors for one generated
    scene."""
    scene = generate_scenes(int(rng.integers(1 << 16)), 1, "val-category")[0]
    cfg = DetectorConfig()
    c = len(scene.candidates)
    boxes_raw = _param(rng, 1, cfg.queries, 4)
    logits = _param(rng, 1, cfg.queries, c + 1)
    return (lambda: detection_loss(T.sigmoid(boxes_raw), logits, [scene])
            ), [boxes_raw, logits]


def _substitution_loss(rng):
    mllm, det, scenes = _micro_grounding(rng)
    sub = SubstitutionHead(_MICRO_LM, _MICRO_DET, rng)
    patches = tr.patch_tokens(mllm, scenes)
    return (lambda: detection_loss(
        *tr.fused_outputs(_CFG, mllm, det, patches, scenes, sub=sub),
        scenes)), [sub.proj.bias, mllm.projector.mlp.fc1.bias, det.bg_embed]


# ---------------------------------------------------------------------------
# the catalogue
# ---------------------------------------------------------------------------

CASES = [
    ("op/tanh", _on(T.tanh, (3, 4))),
    ("op/sigmoid", _on(T.sigmoid, (3, 4))),
    ("op/gelu", _on(T.gelu, (3, 4))),
    ("op/power", _on(lambda x: T.power(x, 1.7), _positive)),
    ("op/power-2", _on(lambda x: T.power(x, 2.0), (3, 4))),
    ("op/softmax", _on(T.softmax, (3, 4))),
    ("op/softmax-masked", _masked_softmax),
    ("op/reshape", _on(lambda x: T.reshape(x, 6, 2), (3, 4))),
    ("op/transpose", _on(lambda x: T.transpose(x, (1, 0)), (3, 4))),
    ("op/slice", _on(lambda x: T.slice_axis(x, 1, 1, 3), (3, 4))),
    ("op/sum-axis", _on(lambda x: T.tsum(x, axis=0, keepdims=True), (3, 4))),
    ("op/mean-axis",
     _on(lambda x: T.tmean(x, axis=1, keepdims=True), (3, 4))),
    ("op/concat", _on(lambda a, b: T.concat([a, b], axis=1), (2, 3), (2, 2))),
    ("op/add", _on(T.add, (3, 4), (3, 4))),
    ("op/add-broadcast", _on(T.add, (3, 4), (4,))),
    ("op/sub", _on(T.sub, (3, 4), (3, 4))),
    ("op/mul", _on(T.mul, (3, 4), (3, 4))),
    ("op/mul-broadcast", _on(T.mul, (3, 4), (3, 1))),
    ("op/matmul", _on(T.matmul, (3, 4), (4, 2))),
    ("op/matmul-batched", _on(T.matmul, (2, 3, 4), (4, 2))),
    ("op/matmul-batched-both", _on(T.matmul, (2, 3, 4), (2, 4, 2))),
    ("op/softmax-matmul", _on(_softmax_matmul, (3, 4), (5, 4), (5, 2))),
    ("op/linear-2d-bias", _on(T.linear, (3, 4), (4, 5), (5,))),
    ("op/linear-3d-bias", _on(T.linear, (2, 3, 4), (4, 5), (5,))),
    ("op/layer_norm", _on(T.layer_norm, (2, 3, 4), (4,), (4,))),
    ("op/attention-masked", _attention_masked),
    ("op/attention-rope-offsets", _attention_rope_offsets),
    ("op/attention-gated-segments", _attention_gated(2)),
    ("op/attention-gated-only", _attention_gated(4)),
    ("op/memory-attention-masked", _memory_attention_masked),
    ("op/cross-entropy-masked", _cross_entropy_masked),
    ("op/conv2d", _conv2d),
    ("op/pixel_unshuffle",
     _on(lambda x: T.pixel_unshuffle(x, 2), (1, 2, 4, 4))),
    ("op/rope", _rope),
    ("op/index-select", _index_select),
    ("layer/linear", _module(lambda rng: Linear(5, 4, rng), (3, 5),
                             lambda m: [m.weight, m.bias])),
    ("layer/layernorm", _module(_random_layernorm, (2, 4, 6),
                                lambda m: [m.gamma, m.beta])),
    ("layer/mlp", _module(lambda rng: MLP(5, 7, 4, rng), (3, 5),
                          lambda m: [m.fc1.bias, m.fc2.bias])),
    ("layer/attention-masked-rope", _attention_layer),
    ("layer/transformer-block",
     _module(lambda rng: TransformerBlock(4, 2, rng, mlp_ratio=1), (1, 3, 4),
             lambda m: [m.attn.wq.weight, m.mlp.fc1.bias], scale=1.0)),
    ("composed/caption-loss", _caption_loss),
    ("composed/grounding-loss", _grounding_loss),
    *((f"composed/fused-loss-arch-{arch}", _fused_loss(arch))
      for arch in ARCHS),
    ("composed/substitution-loss", _substitution_loss),
    ("composed/adapter-injection", _adapter_step("IV")),
    ("composed/adapter-vision", _adapter_step("I")),
    ("composed/detection-loss", _detection_loss),
]


def check_case(build, seed: int) -> float:
    """Max relative error of one catalogue case drawn at ``seed``."""
    fn, params = build(np.random.default_rng(seed))
    return finite_diff_check(fn, params)


def run_gradcheck(seed: int) -> list[tuple[str, float]]:
    """Check every catalogue case at ``seed``; (name, max relative error)."""
    return [(name, check_case(build, seed)) for name, build in CASES]


def max_error(results: list[tuple[str, float]]) -> float:
    return max(err for _, err in results)


def report_lines(results: list[tuple[str, float]]) -> list[str]:
    """What ``fusedet gradcheck`` prints: one line per case, then the
    verdict against ``GRADCHECK_TOL``."""
    worst = max_error(results)
    ok = worst < GRADCHECK_TOL
    return [*(f"{name:35s} {err:.3e}" for name, err in results),
            f"max relative error {worst:.3e} ({'<' if ok else '>='} "
            f"{GRADCHECK_TOL:g}) -> {'PASS' if ok else 'FAIL'}"]
