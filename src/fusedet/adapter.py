"""Gated, zero-initialized cross-attention adapter in four presets.

The adapter turns LM hidden states into "adaptation prompts" and splices them
into the frozen detector with one gated cross-attention kernel.  ``arch`` is
the only setting that picks a variant; every decision it makes is read from
two derived properties of ``AdapterConfig``:

* ``text_fusion``  - LM vision states first cross-attend over LM text states
                     (a residual multi-head attention);
* ``fuses_vision`` - prompts are the full LM grid mapped to detector width and
                     gated into the detector's vision features before
                     decoding; otherwise a strided conv shrinks the grid to
                     prompts that are injected into the decoder queries right
                     before decoder layer ``l_d``.

The adapter has no sizes of its own: its widths, grid and head counts come
from the two models it connects.  The gate (one entry per head) and the gated
kernel split detector width into ``detector.heads``, and text fusion splits
LM width into ``mllm.heads``.  ``AdapterConfig.resolve`` checks no widths,
only the depths that bound ``l_lm`` and ``l_d``, and resolves an unset
``l_d``: to 1 for Arch I and III, else to the detector's last layer.
``FusionState`` holds the resolved config, so ``state.cfg.l_d`` is always the
layer the hook runs before.

The prompt conv's kernel and padding are the constants ``CONV_K`` = 3 and
``CONV_PAD`` = 1, so over an aligned grid side h it keeps (h - 1) // stride
+ 1 >= 1 rows, and the prompt sequence is never empty.

========  ===========  ============  =================================
preset    text_fusion  fuses_vision  placement
========  ===========  ============  =================================
Arch I    yes          yes           detector vision features, before
                                     decoder layer 1 (``l_d`` is pinned
                                     to 1)
Arch II   yes          no            before decoder layer ``l_d``
                                     (default: the last layer)
Arch III  yes          no            before decoder layer 1 (``l_d``
                                     is pinned to 1)
Arch IV   no           no            before decoder layer ``l_d``
========  ===========  ============  =================================

The kernel, ``zero_init_cross_attn``: queries attend over the prompts and,
when injecting, also over themselves as a second key segment.  The preset
picks that self segment (none with ``fuses_vision``), never the caller, and
``fuse_vision`` is the same kernel under its own name.  Each segment is
softmax-normalized on its own; prompt-segment weights are scaled by tanh(g)
(one gate per head) and self-segment weights are a plain softmax.  Every gate
starts at exactly 0, so the prompt segment contributes exactly nothing at
construction:

* with ``fuses_vision`` the prompt segment is the whole attention core, so
  the core is exactly 0 and the output projection keeps its random weight
  (with a zero bias); the gate then gets a gradient from the first step;
* when injecting, the self segment keeps the core non-zero, so the output
  projection (weight and bias) starts at exactly 0 as well; its weight gets a
  gradient from the first step and opens the gate after it.

Either way a fresh adapter is an exact identity from either entry, so a
freshly attached adapter cannot disturb the host detector, and no weight sits
at a saddle where both the gate and the map behind it are zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .detector import DetectorConfig
from .layers import Linear, Module, MultiHeadAttention
from .mllm import MllmConfig
from .tensor import ConfigurationError, DimensionError, Tensor, check_fields

ARCHS = ("I", "II", "III", "IV")
# presets that act before decoder layer 1, so their l_d is pinned to 1
FIRST_LAYER_ARCHS = ("I", "III")
CONV_K, CONV_PAD = 3, 1         # the prompt conv's kernel side and padding


@dataclass(frozen=True)
class AdapterConfig:
    arch: str = "IV"
    l_lm: int = 2
    l_d: int | None = None        # None: the preset's layer (I, III: 1, else depth)
    conv_stride: int = 2

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ConfigurationError(f"arch {self.arch!r} not one of {ARCHS}")
        check_fields(self, "adapter.", ("conv_stride",),
                     "at least 1", lambda v: v >= 1)
        if self.arch in FIRST_LAYER_ARCHS and self.l_d not in (None, 1):
            raise ConfigurationError(
                f"arch {self.arch} acts before decoder layer 1, "
                f"got l_d={self.l_d}")

    def resolve(self, mcfg: MllmConfig, dcfg: DetectorConfig) -> AdapterConfig:
        """This config attached to an LM and a detector, with ``l_d``
        resolved; raises ``ConfigurationError`` if it cannot attach."""
        l_d = self.l_d
        if l_d is None:
            l_d = 1 if self.arch in FIRST_LAYER_ARCHS else dcfg.depth
        if not 0 <= self.l_lm <= mcfg.n:
            raise ConfigurationError(f"l_lm {self.l_lm} outside [0, {mcfg.n}]")
        if not 1 <= l_d <= dcfg.depth:
            raise ConfigurationError(f"l_d {l_d} outside [1, {dcfg.depth}]")
        return replace(self, l_d=l_d)

    def prompt_grid(self, mcfg: MllmConfig) -> tuple[int, int]:
        """The LM's aligned grid with ``fuses_vision``, else the conv's
        output over it."""
        grid = mcfg.aligned_grid
        return grid if self.fuses_vision else T.conv2d_output_hw(
            *grid, CONV_K, CONV_K, self.conv_stride, CONV_PAD)

    @property
    def text_fusion(self) -> bool:
        """Prompts see the LM text states (Arch I, II, III)."""
        return self.arch != "IV"

    @property
    def fuses_vision(self) -> bool:
        """Prompts gate into detector vision features, not decoder queries
        (Arch I)."""
        return self.arch == "I"


class FusionState(Module):
    """All adapter weights, sized by the LM and detector configs the adapter
    attaches to, with ``cfg.l_d`` resolved.  Invariants at construction:
    every gate is exactly zero and the output projection's bias is exactly
    zero; its weight is exactly zero too when injecting (the self segment
    needs it) and stays random with ``fuses_vision`` (a zero gate already
    zeroes the core)."""

    def __init__(self, cfg: AdapterConfig, mcfg: MllmConfig,
                 dcfg: DetectorConfig, rng: np.random.Generator):
        self.cfg = cfg = cfg.resolve(mcfg, dcfg)
        d, d_lm = dcfg.d, mcfg.d_lm
        self.grid = mcfg.aligned_grid           # the LM states' grid
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.gate = Tensor(np.zeros(dcfg.heads), requires_grad=True)
        self.out_proj = Linear(d, d, rng)
        if not cfg.fuses_vision:
            self.out_proj.zero_()
        if cfg.text_fusion:
            self.text_fusion = MultiHeadAttention(d_lm, mcfg.heads, rng)
        if cfg.fuses_vision:
            self.proj_lm = Linear(d_lm, d, rng)
        else:
            self.conv_kernel = Tensor(
                rng.standard_normal((d, d_lm, CONV_K, CONV_K))
                / np.sqrt(d_lm * CONV_K * CONV_K), requires_grad=True)
            self.conv_bias = Tensor(np.zeros(d), requires_grad=True)


def make_prompts(e_v_l: Tensor, e_t: Tensor | None, cfg: AdapterConfig,
                 state: FusionState,
                 e_t_valid: np.ndarray | None = None) -> Tensor:
    """LM states -> adaptation prompts A_P of shape [B, L, d].

    With ``text_fusion`` the vision states first attend over ``e_t``; with
    ``fuses_vision`` every grid token is mapped to detector width (no conv)
    for the vision gating path.
    """
    b, l_v, d_lm = e_v_l.shape
    h, w = state.grid
    if l_v != h * w:
        raise DimensionError(f"{l_v} vision tokens do not tile grid {h}x{w}")
    if cfg.text_fusion:
        if e_t is None:
            raise ConfigurationError(f"arch {cfg.arch} requires LM text states")
        mask = None
        if e_t_valid is not None:
            mask = T.additive_mask(e_t_valid)[:, None, None, :]
        e_v_l = T.add(e_v_l, state.text_fusion(e_v_l, e_t, mask=mask))
    if cfg.fuses_vision:
        return state.proj_lm(e_v_l)
    x = T.transpose(e_v_l, (0, 2, 1))
    x = T.reshape(x, b, d_lm, h, w)
    x = T.conv2d(x, state.conv_kernel, stride=cfg.conv_stride,
                 padding=CONV_PAD, bias=state.conv_bias)
    _, d, ho, wo = x.shape
    x = T.reshape(x, b, d, ho * wo)
    return T.transpose(x, (0, 2, 1))


def zero_init_cross_attn(x: Tensor, a_p: Tensor, state: FusionState) -> Tensor:
    """The adapter's one kernel: ``x + out_proj(attention)`` where the rows of
    ``x`` attend over the L prompts and, unless the preset ``fuses_vision``,
    over the T rows of ``x`` as a second key segment.  The attention core is
    ``T.attention``, the same op ``MultiHeadAttention`` runs, with the
    prompts as its gated key segment and one head per gate.

    RoPE positions run 0..L-1 over the prompts and L..L+T-1 over ``x`` (as
    queries and as self keys).  Per row and head the prompt segment sums to
    tanh(g) and the self segment to 1; a ``T.attention_tap`` reads both.
    """
    b, t, d = x.shape
    l = a_p.shape[1]
    if a_p.shape[2] != d:
        raise DimensionError(
            f"prompt width {a_p.shape[2]} != detector width {d}")
    injects = not state.cfg.fuses_vision    # the preset's self segment

    def keys(proj):
        seg = proj(a_p)
        return T.concat([seg, proj(x)], axis=1) if injects else seg

    q = state.wq(x)
    k, v = keys(state.wk), keys(state.wv)
    core = T.attention(q, k, v, state.gate.shape[0], rope_base=T.ROPE_BASE,
                       pos_q=np.arange(l, l + t), pos_k=np.arange(k.shape[1]),
                       gate=T.tanh(state.gate), gated_keys=l)
    return T.add(x, state.out_proj(core))


def fuse_vision(e_v_d: Tensor, a_p: Tensor, state: FusionState) -> Tensor:
    """The vision step (``fuses_vision``): detector vision features attend
    over the prompts alone; the benchmark times it under its own span."""
    return zero_init_cross_attn(e_v_d, a_p, state)


class FusionHook:
    """The one way an adapter enters a detector pass: prompts computed from
    one batch of LM states, applied by ``GroundingDetector.decode`` as
    ``q, e_vis = hook(q, e_vis)`` right before decoder layer ``l_d`` (always
    ``state.cfg.l_d``).  With ``fuses_vision`` the call gates the prompts
    into the vision features (Arch I, ``l_d`` = 1); otherwise ``inject``
    transforms the decoder queries."""

    def __init__(self, state: FusionState, e_v_l: Tensor,
                 e_t: Tensor | None = None,
                 e_t_valid: np.ndarray | None = None):
        self.state = state
        self.a_p = make_prompts(e_v_l, e_t, cfg=state.cfg, state=state,
                                e_t_valid=e_t_valid)
        self.l_d = state.cfg.l_d

    def __call__(self, q: Tensor, e_vis: Tensor) -> tuple[Tensor, Tensor]:
        if self.state.cfg.fuses_vision:
            return q, fuse_vision(e_vis, self.a_p, self.state)
        return self.inject(q), e_vis

    def inject(self, q: Tensor) -> Tensor:
        return zero_init_cross_attn(q, self.a_p, self.state)

