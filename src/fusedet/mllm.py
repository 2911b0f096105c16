"""Toy multimodal LM: frozen patch encoder, pixel-shuffle alignment with a
trainable projector, and a small causal decoder with per-layer hidden taps.

The sequence is always [system prefix | vision tokens | text tokens] under a
causal mask, so vision-position states never depend on the text that follows
them.  The spans are plain offsets: ``sys_len`` system positions, then one
position per aligned vision token, then the text to the end of the sequence.
Hidden state 0 is the embedded sequence before any decoder layer (the
"vision encoder only" arm); state l is the output of decoder layer l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import Linear, MLP, LayerNorm, Module, TransformerBlock, cross_entropy
from .scenes import CANVAS, PAD, VOCAB
from .tensor import (ConfigurationError, DimensionError, Tensor, UsageError,
                     check_fields)


@dataclass(frozen=True)
class MllmConfig:
    d_lm: int = 64
    n: int = 4
    heads: int = 4
    patch: int = 4
    shuffle_r: int = 2
    canvas: int = CANVAS
    proj_hidden: int = 128
    sys_len: int = 2

    def __post_init__(self):
        check_fields(self, "mllm.", ("d_lm", "n", "heads", "patch", "shuffle_r",
                                     "canvas", "proj_hidden", "sys_len"),
                     "at least 1", lambda v: v >= 1)
        if self.d_lm % self.heads:
            raise ConfigurationError(
                f"d_lm {self.d_lm} not divisible by heads {self.heads}")
        if self.d_lm // self.heads % 2:
            raise ConfigurationError(
                "mllm.d_lm / mllm.heads must be even (RoPE rotates channel "
                f"pairs), got {self.d_lm} / {self.heads}")
        if self.canvas % self.patch:
            raise ConfigurationError(
                f"canvas {self.canvas} not divisible by patch {self.patch}")
        if (self.canvas // self.patch) % self.shuffle_r:
            raise ConfigurationError(
                f"vision grid {self.canvas // self.patch} not divisible by "
                f"shuffle factor {self.shuffle_r}")

    @property
    def d_patch(self) -> int:
        return 3 * self.patch * self.patch

    @property
    def proj_in(self) -> int:
        """Width of one aligned vision token: r^2 regrouped patch tokens."""
        return self.d_patch * self.shuffle_r * self.shuffle_r

    @property
    def grid(self) -> tuple[int, int]:
        g = self.canvas // self.patch
        return (g, g)

    @property
    def aligned_grid(self) -> tuple[int, int]:
        g = self.canvas // self.patch // self.shuffle_r
        return (g, g)

    @property
    def l_v(self) -> int:
        h, w = self.aligned_grid
        return h * w


class VisionEncoder(Module):
    """Frozen orthogonal patch embedding (lossless up to the bias)."""

    def __init__(self, cfg: MllmConfig, rng: np.random.Generator):
        q, _ = np.linalg.qr(rng.standard_normal((cfg.d_patch, cfg.d_patch)))
        self.weight = Tensor(q, requires_grad=False)
        self.bias = Tensor(np.zeros(cfg.d_patch), requires_grad=False)
        self._patch = cfg.patch

    def __call__(self, images: Tensor) -> Tensor:
        b = images.shape[0]
        patches = T.pixel_unshuffle(images, self._patch)      # [B, 3p^2, h, w]
        _, c, h, w = patches.shape
        tokens = T.reshape(patches, b, c, h * w)
        tokens = T.transpose(tokens, (0, 2, 1))               # row-major grid
        return T.linear(tokens, self.weight, self.bias)


class Projector(Module):
    """2-layer MLP from regrouped patch tokens to the LM width."""

    def __init__(self, cfg: MllmConfig, rng: np.random.Generator):
        self.mlp = MLP(cfg.proj_in, cfg.proj_hidden, cfg.d_lm, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.mlp(x)


class MiniMllm(Module):
    def __init__(self, cfg: MllmConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.vision = VisionEncoder(cfg, rng)
        self.projector = Projector(cfg, rng)
        self.tok_embed = Tensor(rng.standard_normal((VOCAB, cfg.d_lm)) * 0.1,
                                requires_grad=True)
        self.sys_embed = Tensor(rng.standard_normal((cfg.sys_len, cfg.d_lm)) * 0.1,
                                requires_grad=True)
        self.blocks = [TransformerBlock(cfg.d_lm, cfg.heads, rng)
                       for _ in range(cfg.n)]
        self.ln_f = LayerNorm(cfg.d_lm)
        self.lm_head = Linear(cfg.d_lm, VOCAB, rng)

    # -- vision pipeline ----------------------------------------------------

    def encode_image(self, images: Tensor) -> Tensor:
        """[B, 3, H, W] -> [B, h_v*w_v, d_patch] patch tokens (frozen)."""
        return self.vision(images)

    def regroup_patches(self, tokens: Tensor) -> Tensor:
        """Patch tokens [B, h*w, d_patch] -> [B, L_v, d_patch*r^2] groups.

        Pure index shuffling (no arithmetic); ``align_vision`` runs it on
        every call, so caches hold the patch tokens, not these groups.
        """
        b, g, c = tokens.shape
        h, w = self.cfg.grid
        if g != h * w:
            raise DimensionError(f"got {g} patch tokens for grid {h}x{w}")
        x = T.transpose(tokens, (0, 2, 1))
        x = T.reshape(x, b, c, h, w)
        x = T.pixel_unshuffle(x, self.cfg.shuffle_r)
        _, c2, h2, w2 = x.shape
        x = T.reshape(x, b, c2, h2 * w2)
        return T.transpose(x, (0, 2, 1))                       # [B, L_v, c*r^2]

    def align_vision(self, tokens: Tensor) -> Tensor:
        """Patch tokens -> [B, L_v, d_lm] LM-width vision tokens."""
        return self.projector(self.regroup_patches(tokens))

    # -- sequence assembly --------------------------------------------------

    def embed_from_aligned(self, vis: Tensor,
                           text_ids: np.ndarray | None = None) -> Tensor:
        """Assemble [system | vision | text] given aligned vision tokens;
        ``None`` is no text."""
        b = vis.shape[0]
        s = self.cfg.sys_len
        parts = [T.concat([T.reshape(self.sys_embed, 1, s, self.cfg.d_lm)] * b,
                          axis=0), vis]
        if text_ids is not None:
            parts.append(T.index_select(self.tok_embed, 0, text_ids))
        return T.concat(parts, axis=1)

    def sequence_mask(self, n: int,
                      text_valid: np.ndarray | None = None) -> np.ndarray:
        """Causal mask over ``n`` positions; with ``text_valid`` the last
        ``text_valid.shape[1]`` positions are text and its padding is
        masked out as keys."""
        mask = T.causal_mask(n)[None, None]
        if text_valid is not None:
            b, t = text_valid.shape
            key_ok = np.ones((b, n), dtype=bool)
            key_ok[:, n - t:] = text_valid
            mask = mask + T.additive_mask(key_ok)[:, None, None, :]
        return mask

    def forward(self, x: Tensor, text_valid: np.ndarray | None = None,
                upto_layer: int | None = None) -> Tensor:
        """Run decoder layers 1 .. ``upto_layer`` (default all n) over an
        ``embed_from_aligned`` sequence and return the state after the last
        one; ``upto_layer=0`` returns ``x``.  ``text_valid`` marks the valid
        positions of the trailing text span."""
        n = x.shape[1]
        mask = self.sequence_mask(n, text_valid)
        depth = self.cfg.n if upto_layer is None else upto_layer
        for block in self.blocks[:depth]:
            x = block(x, mask=mask)
        return x

    # -- training objective -------------------------------------------------

    def lm_loss_from_aligned(self, vis: Tensor, text_ids: np.ndarray,
                             text_valid: np.ndarray) -> Tensor:
        """Mean next-token cross-entropy over the valid text positions."""
        if text_ids.size == 0 or text_ids.shape[1] == 0:
            raise ConfigurationError(
                "lm_loss_from_aligned needs a non-empty text span")
        b, t = text_ids.shape
        x = self.embed_from_aligned(vis, text_ids)
        logits = self.lm_head(self.ln_f(self.forward(x, text_valid)))
        t0 = self.cfg.sys_len + vis.shape[1]
        # position t0 + j is predicted from the state at t0 + j - 1
        pred = T.slice_axis(logits, 1, t0 - 1, t0 + t - 1)
        flat = T.reshape(pred, b * t, VOCAB)
        keep = np.flatnonzero(text_valid.reshape(-1))
        picked = T.index_select(flat, 0, keep)
        return cross_entropy(picked, text_ids.reshape(-1)[keep])

    def hidden_from_aligned(self, vis: Tensor, l_lm: int,
                            text_ids: np.ndarray | None = None,
                            text_valid: np.ndarray | None = None):
        """Vision-span (and text-span) states from layer ``l_lm``, running the
        shortest sufficient forward from aligned vision tokens, so the frozen
        encoder prefix can come from a cache.  Text defaults to none
        (Arch IV); ``text_valid`` needs ``text_ids``."""
        if not 0 <= l_lm <= self.cfg.n:
            raise ConfigurationError(f"l_lm {l_lm} outside [0, {self.cfg.n}]")
        if text_ids is None and text_valid is not None:
            raise UsageError("text_valid without text_ids")
        h = self.forward(self.embed_from_aligned(vis, text_ids), text_valid,
                         upto_layer=l_lm)
        v0 = self.cfg.sys_len
        v1 = v0 + vis.shape[1]
        e_v = T.slice_axis(h, 1, v0, v1)
        if text_ids is None:
            return e_v, None
        return e_v, T.slice_axis(h, 1, v1, h.shape[1])
