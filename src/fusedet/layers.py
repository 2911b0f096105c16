"""Neural-net building blocks on top of the tensor core.

``Module`` gives dotted-name parameter discovery (enough for freezing and
SGD) without any of the usual framework machinery; ``training.snapshot`` and
``training.restore`` are the one way out of and into a module's parameters,
for checkpoints and between runs.  Blocks here are shared by the toy
multimodal LM, the grounding detector, and the fusion adapter.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import DimensionError, Tensor

# hidden width of every transformer MLP over its model width
MLP_RATIO = 2


class Module:
    """Base class: parameters are Tensor attributes, submodules are Module
    attributes (or lists of them), discovered by walking ``__dict__``."""

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor):
                out[key] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(f"{key}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.named_parameters(f"{key}.{i}."))
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def set_trainable(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = flag
            if not flag:
                p.grad = None

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


class Linear(Module):
    """y = x @ W + b with W of shape [d_in, d_out]."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = Tensor(rng.standard_normal((d_in, d_out))
                             * (1.0 / np.sqrt(d_in)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)

    def zero_(self) -> None:
        """Hard-set weight and bias to exact zeros, keeping trainability."""
        self.weight.data = np.zeros_like(self.weight.data)
        self.bias.data = np.zeros_like(self.bias.data)


class MLP(Module):
    """Two-layer GELU MLP."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int, rng: np.random.Generator):
        self.fc1 = Linear(d_in, d_hidden, rng)
        self.fc2 = Linear(d_hidden, d_out, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(x)))


class LayerNorm(Module):
    def __init__(self, d: int):
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


class MultiHeadAttention(Module):
    """Standard multi-head attention; optional RoPE on queries and keys at
    positions 0..T-1.
    Projections are ``Linear`` layers around the fused ``T.attention`` core.

    ``mask`` is an additive ndarray broadcastable to [B, h, Tq, Tk].
    """

    def __init__(self, d: int, heads: int, rng: np.random.Generator,
                 rope_base: float | None = None):
        if d % heads:
            raise DimensionError(f"width {d} not divisible by {heads} heads")
        self.heads = heads
        self.rope_base = rope_base
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)

    def __call__(self, x_q: Tensor, x_kv: Tensor,
                 mask: np.ndarray | None = None) -> Tensor:
        return self.wo(T.attention(self.wq(x_q), self.wk(x_kv), self.wv(x_kv),
                                   self.heads, mask=mask,
                                   rope_base=self.rope_base))


class MemoryAttention(MultiHeadAttention):
    """Attention of a few queries over a long memory that no rotation
    touches: the same ``wq``/``wk``/``wv``/``wo`` parameters as
    ``MultiHeadAttention``, so parameter names and checkpoints are shared,
    but ``wk`` and ``wv`` are absorbed into the queries by
    ``T.memory_attention`` instead of projecting every memory token.  That
    does less work while heads x queries stays below the memory length (16
    rows against 64 vision and 20 text tokens in the default detector);
    values equal ``MultiHeadAttention``'s up to rounding."""

    def __call__(self, x_q: Tensor, mem: Tensor,
                 mask: np.ndarray | None = None) -> Tensor:
        return self.wo(T.memory_attention(
            self.wq(x_q), mem, self.wk.weight, self.wk.bias, self.wv.weight,
            self.wv.bias, self.heads, mask=mask))


class TransformerBlock(Module):
    """Pre-LN decoder block: self-attention with RoPE at positions 0..T-1,
    then MLP, both residual."""

    def __init__(self, d: int, heads: int, rng: np.random.Generator,
                 mlp_ratio: int = MLP_RATIO):
        self.ln1 = LayerNorm(d)
        self.attn = MultiHeadAttention(d, heads, rng, rope_base=T.ROPE_BASE)
        self.ln2 = LayerNorm(d)
        self.mlp = MLP(d, mlp_ratio * d, d, rng)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        h = self.ln1(x)
        x = T.add(x, self.attn(h, h, mask=mask))
        return T.add(x, self.mlp(self.ln2(x)))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of [N, C] logits against integer targets [N]."""
    n, _ = logits.shape
    targets = np.asarray(targets, dtype=np.intp)
    if targets.shape != (n,):
        raise DimensionError(f"targets shape {targets.shape} != ({n},)")
    return T.weighted_cross_entropy(logits, targets, np.full(n, 1.0 / n))
