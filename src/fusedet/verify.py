"""Finite-difference verification of every differentiable path.

Each case compares analytic gradients against central differences at step
1e-5 and reports the worst relative error.  Cases run on micro models (width
~12, two layers) so the whole suite finishes in seconds while still walking
the exact production code paths: primitive and fused tape ops, the shared
layers, the caption loss, the grounding loss, the fused stage-3 loss for each
adapter placement, and the substitution control.

Composed checks perturb the small parameter leaves (gates, biases) of every
component; a wiring bug that detaches any sub-graph shows up as an analytic
gradient of zero against a non-zero numeric one.  The fusion gate and output
projection start at zero by design, which parks them at a stationary point
of the prompt path; the fused cases therefore run from a randomized adapter
state so that gradients flow through every projection.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .adapter import ARCHS, AdapterConfig, FusionState
from .config import ExperimentConfig
from .detector import (DetectorConfig, GroundingDetector, SubstitutionHead,
                       detection_loss)
from .layers import MLP, LayerNorm, Linear, MultiHeadAttention
from .mllm import MiniMllm, MllmConfig
from .scenes import Query, SyntheticScene, encode
from .tensor import Tensor, finite_diff_check
from . import training as tr

GRADCHECK_TOL = 1e-4
EPS = 1e-5


def _weighted_sum(rng: np.random.Generator, t: Tensor) -> Tensor:
    # weights come from a fixed stream so re-evaluations during finite
    # differencing see the identical scalarization
    w = T.constant(np.random.default_rng(99).standard_normal(t.shape))
    return T.tsum(T.mul(t, w))


def _param(rng, *shape, scale=1.0, shift=0.0):
    return Tensor(rng.standard_normal(shape) * scale + shift,
                  requires_grad=True)


def _primitive_cases(rng):
    x = _param(rng, 3, 4, scale=0.8)
    y = _param(rng, 3, 4, scale=0.8, shift=2.5)   # positive / away from zero
    a = _param(rng, 2, 3, 4)
    b = _param(rng, 2, 4, 5)
    unary = [
        ("op/exp", lambda: T.exp(x), [x]),
        ("op/log", lambda: T.log(y), [y]),
        ("op/tanh", lambda: T.tanh(x), [x]),
        ("op/sigmoid", lambda: T.sigmoid(x), [x]),
        ("op/gelu", lambda: T.gelu(x), [x]),
        ("op/power", lambda: T.power(y, 1.7), [y]),
        ("op/softmax", lambda: T.softmax(x), [x]),
        ("op/log_softmax", lambda: T.log_softmax(x), [x]),
        ("op/add", lambda: T.add(x, y), [x, y]),
        ("op/mul", lambda: T.mul(x, y), [x, y]),
        ("op/div", lambda: T.div(x, y), [x, y]),
        ("op/matmul", lambda: T.matmul(a, b), [a, b]),
    ]
    w = _param(rng, 4, 3, scale=0.5)
    bias = _param(rng, 3, scale=0.3)
    gamma = _param(rng, 4, scale=0.3, shift=1.0)
    beta = _param(rng, 4, scale=0.3)
    unary += [
        ("op/linear-2d", lambda: T.linear(x, w, bias), [x, w, bias]),
        ("op/linear-3d-nobias", lambda: T.linear(a, w), [a, w]),
        ("op/layer_norm", lambda: T.layer_norm(a, gamma, beta), [a, gamma, beta]),
    ]
    unary += _attention_cases(rng)
    cases = []
    for name, fn, params in unary:
        cases.append((name, (lambda f=fn: _weighted_sum(rng, f())), params))

    img = _param(rng, 2, 2, 6, 6, scale=0.5)
    ker = _param(rng, 3, 2, 3, 3, scale=0.3)
    cases.append(("op/conv2d",
                  lambda: _weighted_sum(rng, T.conv2d(img, ker, stride=1,
                                                      padding=1)),
                  [img, ker]))
    seq = _param(rng, 2, 5, 2, 8, scale=0.5)   # [B, T, heads, d_head]
    cases.append(("op/rope",
                  lambda: _weighted_sum(rng, T.rope_apply(seq, np.arange(5),
                                                          base=100.0)),
                  [seq]))
    table = _param(rng, 7, 4, scale=0.5)
    ids = rng.integers(0, 7, (2, 3))
    cases.append(("op/embedding",
                  lambda: _weighted_sum(rng, T.embedding(table, ids)),
                  [table]))
    return cases


def _attention_cases(rng):
    """The fused attention core (an additive key mask, RoPE at the adapter's
    position offsets, a gated prompt segment before a plain segment) and the
    masked cross-entropy of the detection loss."""
    q = _param(rng, 2, 3, 8, scale=0.6)
    k = _param(rng, 2, 5, 8, scale=0.6)
    v = _param(rng, 2, 5, 8, scale=0.6)
    gate = _param(rng, 2, scale=0.5)
    valid = np.ones((2, 5), dtype=bool)
    valid[1, 3:] = False
    mask = T.additive_mask(valid)[:, None, None, :]
    offsets = dict(rope_base=50.0, pos_q=np.arange(2, 5), pos_k=np.arange(5))
    logits = _param(rng, 2, 3, 5)
    labels = np.array([[0, 4, 1], [0, 4, 4]])
    weights = np.array([[1.0, 0.5, 2.0], [1.0, 0.5, 0.5]])
    cols = np.ones((2, 1, 5), dtype=bool)
    cols[1, 0, 1:4] = False
    return [
        ("op/attention-masked", lambda: T.attention(q, k, v, 2, mask=mask),
         [q, k, v]),
        ("op/attention-rope-offsets", lambda: T.attention(q, k, v, 2, **offsets),
         [q, k, v]),
        ("op/attention-gated-segments",
         lambda: T.attention(q, k, v, 2, gate=gate, gated_keys=2, **offsets),
         [q, k, v, gate]),
        ("op/cross-entropy-masked",
         lambda: T.weighted_cross_entropy(logits, labels, weights,
                                          mask=T.additive_mask(cols)),
         [logits]),
    ]


def _layer_cases(rng):
    lin = Linear(5, 4, rng)
    lin_nb = Linear(5, 4, rng, bias=False)
    ln = LayerNorm(6)
    ln.gamma.data[:] = rng.uniform(0.5, 1.5, 6)
    ln.beta.data[:] = rng.standard_normal(6) * 0.3
    mlp = MLP(5, 7, 4, rng)
    mha = MultiHeadAttention(8, 2, rng, rope_base=50.0)
    xl = _param(rng, 3, 5, scale=0.7)
    xs = _param(rng, 2, 3, 5, scale=0.7)
    xn = _param(rng, 2, 4, 6, scale=0.7)
    xa = _param(rng, 2, 5, 8, scale=0.5)
    valid = np.ones((2, 5), dtype=bool)
    valid[1, 3:] = False
    mask = T.additive_mask(valid)[:, None, None, :]
    return [
        ("layer/linear", lambda: _weighted_sum(rng, lin(xl)),
         [xl, lin.weight, lin.bias]),
        ("layer/linear-3d-nobias", lambda: _weighted_sum(rng, lin_nb(xs)),
         [xs, lin_nb.weight]),
        ("layer/layernorm", lambda: _weighted_sum(rng, ln(xn)),
         [xn, ln.gamma, ln.beta]),
        ("layer/mlp", lambda: _weighted_sum(rng, mlp(xl)),
         [xl, mlp.fc1.bias, mlp.fc2.bias]),
        ("layer/attention-masked-rope",
         lambda: _weighted_sum(rng, mha(xa, xa, mask=mask)),
         [xa, mha.wq.bias, mha.wk.bias, mha.wv.bias, mha.wo.bias]),
    ]


# ---------------------------------------------------------------------------
# micro models -- production code paths at toy width
# ---------------------------------------------------------------------------

_CANVAS = 8


def _micro_mllm(rng):
    cfg = MllmConfig(d_lm=12, n=2, heads=2, patch=4, canvas=_CANVAS,
                     shuffle_r=1, proj_in=48, proj_hidden=10, sys_len=1)
    return MiniMllm(cfg, rng)


def _micro_detector(rng):
    cfg = DetectorConfig(d=12, heads=2, depth=2, queries=3)
    return GroundingDetector(cfg, d_patch=48, n_patches=4, rng=rng)


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


def _randomize_adapter(state: FusionState, rng) -> None:
    state.gate.data[:] = rng.standard_normal(state.gate.shape) * 0.3
    state.out_proj.weight.data[:] = \
        rng.standard_normal(state.out_proj.weight.shape) * 0.2


def _composed_cases(rng):
    cases = []

    mllm = _micro_mllm(rng)
    ids = np.stack([encode(["<bos>", "the", "red", "circle", "<eos>"]),
                    encode(["<bos>", "the", "blue", "square", "<eos>"])])
    valid = np.ones(ids.shape, dtype=bool)
    valid[1, 4] = False
    images = T.constant(rng.standard_normal((2, 3, _CANVAS, _CANVAS)) * 0.4)
    cases.append((
        "composed/caption-loss",
        lambda: mllm.lm_loss(images, ids, valid),
        [mllm.projector.mlp.fc1.bias, mllm.projector.mlp.fc2.bias,
         mllm.blocks[0].attn.wq.bias, mllm.blocks[1].mlp.fc2.bias,
         mllm.ln_f.beta, mllm.sys_embed]))

    det = _micro_detector(rng)
    scenes = [_micro_scene(rng) for _ in range(2)]
    cfg = ExperimentConfig(l_lm=1)          # the substitution head's LM tap

    def fused_loss(**kw):
        return lambda: detection_loss(
            *tr.fused_outputs(cfg, mllm, det, scenes, **kw), scenes, det.cfg)

    cases.append((
        "composed/grounding-loss", fused_loss(),
        [det.vis_proj.bias, det.layers[0].mlp.fc2.bias,
         det.layers[1].txt_attn.wo.bias, det.box_head.fc2.bias,
         det.class_proj.bias, det.bg_embed]))

    for arch in ARCHS:
        acfg = AdapterConfig(arch=arch, d=12, d_lm=12, heads=2, grid=(2, 2),
                             l_lm=1, conv_stride=1, n_lm=2, depth=2)
        state = FusionState(acfg, np.random.default_rng(rng.integers(1 << 30)))
        _randomize_adapter(state, rng)
        params = [state.gate, state.wq.bias, state.wk.bias, state.wv.bias,
                  state.out_proj.bias, mllm.projector.mlp.fc2.bias]
        if acfg.fuses_vision:
            params.append(state.proj_lm.bias)
        else:
            params.append(state.conv_bias)
        if acfg.text_fusion:
            params.append(state.text_fusion.wo.bias)
        cases.append((
            f"composed/fused-loss-arch-{arch}",
            lambda st=state: tr.stage3_loss_naive(cfg, mllm, det, st, scenes),
            params))

    sub = SubstitutionHead(12, 12, mllm.cfg.grid, mllm.cfg.shuffle_r,
                           np.random.default_rng(3))
    cases.append(("composed/substitution-loss", fused_loss(sub=sub),
                  [sub.proj.bias, mllm.projector.mlp.fc1.bias, det.bg_embed]))
    return cases


def run_gradcheck(seed: int = 0) -> list[tuple[str, float]]:
    """Run every case; returns (name, max relative error) pairs."""
    rng = np.random.default_rng(seed)
    results = []
    for name, fn, params in (_primitive_cases(rng) + _layer_cases(rng)
                             + _composed_cases(rng)):
        results.append((name, finite_diff_check(fn, params, eps=EPS)))
    return results


def max_error(results: list[tuple[str, float]]) -> float:
    return max(err for _, err in results)
