"""Dense float64 tensors with reverse-mode autodiff and FLOP metering.

Every other module in this package is written against the ops defined here.
Design points:

* float64 only, row-major, numpy-backed.
* every op checks its output for NaN/Inf and raises ``NumericsError`` instead
  of letting bad values propagate silently.
* the gradient tape is rebuilt on every forward pass; ``backward`` populates
  the ``grad`` buffer of each ``requires_grad`` leaf and then frees the tape.
* a tensor participates in the tape iff ``requires_grad`` is set on it or on
  one of its ancestors and no ``no_tape`` scope is open, so graphs over
  frozen weights cost nothing extra, and neither do forward-only passes over
  trainable ones (they open a ``no_tape`` scope).
* an op may write in place only into an array it allocated itself and that
  no backward closure has captured yet, never into an input's ``data`` or a
  view of it; the ufuncs and their operand order stay those of the
  out-of-place form, so values do not change.

Three scopes act on every op inside their ``with`` block, and each nests:

* ``no_tape()``       - no gradient tape is recorded;
* ``FlopsMeter()``    - FLOPs are counted, by ``FLOP_CONVENTIONS``;
* ``attention_tap()`` - each ``attention`` and ``memory_attention`` call's
  scaled scores and weights are collected as detached copies.

Both attention cores are plain: one softmax over all of a call's keys, and
no gate.  A gated or segmented attention (the adapter's) is a sum of calls.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy import special as _sp_special

FLOP_CONVENTIONS = """\
matmul                   2*m*k*n per leading batch element (one MAC = 2 FLOPs)
conv2d                   2 * B*Cout*Hout*Wout * Cin*kh*kw
softmax                  3 per output element (exp + sum + divide)
rope_apply               3 per output element (each 2d rotation = 6 FLOPs)
reductions (sum, mean)   1 per input element
element-wise ops         1 per output element
data movement            0 (reshape, transpose, concat, slice, gather,
                            pixel unshuffle)
weighted_cross_entropy   3 per logit (log-softmax) + 2 per row (weight, sum)

Fused ops count exactly what their unfused op sequence counted:
linear                   matmul + bias add: 2*rows*d_in*d_out + rows*d_out
layer_norm               mean, center, mean square, +eps, **-0.5, scale,
                         shift: 7 per element + 4 per row
attention                rope on q and k (when on), scores matmul, 1/sqrt(d_h)
                         scale, softmax over all keys, weights @ values; the
                         adapter's gated sum of two calls rotates its queries
                         in each and pays its gate multiply and its add as
                         element-wise ops

memory_attention         its own sequence (no unfused form; equal to attention
                         over linear keys and values only up to rounding):
                         absorbed queries 2*Tq*d*d, q.b_k 2*Tq*d, scores
                         2*h*Tq*d*Tk, b_k add + scale + softmax 5*h*Tq*Tk,
                         weights @ memory 2*h*Tq*Tk*d, value map 2*Tq*d*d,
                         b_v add Tq*d (per batch element)
"""


class DimensionError(ValueError):
    """Shapes or extents that cannot be combined."""


class ConfigurationError(ValueError):
    """A structurally invalid configuration (widths, spans, arch choices)."""


def check_fields(cfg, prefix: str, names, rule: str, ok) -> None:
    """Raise ``ConfigurationError`` for the first of ``cfg``'s fields
    ``names`` whose value fails ``ok``, named as the config key
    ``prefix + name``."""
    for name in names:
        value = getattr(cfg, name)
        if not ok(value):
            raise ConfigurationError(
                f"{prefix}{name} must be {rule}, got {value}")


class UsageError(ValueError):
    """An API called outside its contract (bad arguments, missing inputs)."""


class DegenerateInputError(ValueError):
    """Inputs that make the requested computation meaningless."""


class NumericsError(FloatingPointError):
    """A NaN or Inf appeared where only finite values are allowed."""


# ---------------------------------------------------------------------------
# FLOP metering
# ---------------------------------------------------------------------------

_METER_STACK: list["FlopsMeter"] = []


class FlopsMeter:
    """Accumulates FLOPs for every op executed inside a ``with`` scope.

    Counts follow ``FLOP_CONVENTIONS``.  Meters nest: an op inside two open
    scopes increments both, which is how per-component counts and a pipeline
    total can be captured in one pass.
    """

    def __init__(self) -> None:
        self.accumulated = 0

    def __enter__(self) -> "FlopsMeter":
        _METER_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _METER_STACK.remove(self)


def _count_flops(n: int) -> None:
    if _METER_STACK:
        for meter in _METER_STACK:
            meter.accumulated += int(n)


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """A dense float64 array, optionally taped for reverse-mode gradients.

    ``requires_grad`` on a leaf marks it as trainable; on an interior node it
    records that some ancestor is trainable.  ``grad`` is allocated lazily by
    ``backward`` and only ever on leaves.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _bad_item(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def backward(self) -> None:
        backward(self)


def _bad_item(t: Tensor):
    raise UsageError(f"item() needs a single-element tensor, got shape {t.shape}")


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values produced by '{op}'")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


# one entry per open ``no_tape`` scope
_NO_TAPE: list[bool] = []


@contextmanager
def no_tape():
    """Ops inside the ``with`` block record no tape: their outputs never
    require gradients, so every intermediate is freed as soon as it is
    unused.  For forward passes whose values are kept, never differentiated:
    ``training.grounded_outputs`` (hence ``evaluate``),
    ``training.patch_tokens`` (hence ``cache_vision``), the ``Stage3Cache``
    build, ``analysis.attention_medians`` and the metered and timed passes
    of ``analysis.compute_report``.  A process forked inside the block (a
    ``training._fill_rows`` worker) inherits it."""
    _NO_TAPE.append(True)
    try:
        yield
    finally:
        _NO_TAPE.pop()


_TAPS: list[list] = []          # one record list per open ``attention_tap``


@contextmanager
def attention_tap():
    """Every ``attention`` or ``memory_attention`` call inside the ``with``
    block appends one ``(scaled scores, weights)`` pair of detached
    [B, h, Tq, Tk] copies to the yielded list, in call order; nested taps
    each record every call.  Every record's weights sum to 1 along the keys.
    For read-only diagnostics: ``analysis.attention_medians`` and the
    adapter's two attentions (prompts, then self)."""
    _TAPS.append([])
    try:
        yield _TAPS[-1]
    finally:
        _TAPS.pop()                 # LIFO: this tap, never an equal list


def observed() -> bool:
    """True while a ``FlopsMeter`` or ``attention_tap`` is open.  Their
    records live in this process, so work they should see must not be handed
    to another one (``training._fill_rows`` stays serial)."""
    return bool(_METER_STACK or _TAPS)


def _make(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, op: str) -> Tensor:
    """Wrap an op result, attaching the tape entry only when it matters."""
    _check_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    if not _NO_TAPE and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# element-wise ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data
    _count_flops(out_data.size)

    def bw(g, acc):
        acc(a, _unbroadcast(g, a.shape))
        acc(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data
    _count_flops(out_data.size)

    def bw(g, acc):
        acc(a, _unbroadcast(g, a.shape))
        acc(b, _unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data
    _count_flops(out_data.size)

    def bw(g, acc):
        acc(a, _unbroadcast(g * b.data, a.shape))
        acc(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), bw, "mul")


def power(a, p: float) -> Tensor:
    """Element-wise ``a ** p`` for a fixed float exponent."""
    a = as_tensor(a)
    out_data = a.data ** p
    _count_flops(out_data.size)

    def bw(g, acc):
        acc(a, g * p * a.data ** (p - 1.0))

    return _make(out_data, (a,), bw, f"power({p})")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    _count_flops(out_data.size)

    def bw(g, acc):
        acc(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bw, "tanh")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))
    _count_flops(out_data.size)

    def bw(g, acc):
        acc(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bw, "sigmoid")


def gelu(a) -> Tensor:
    """Exact GELU, x * Phi(x) with the Gaussian CDF."""
    a = as_tensor(a)
    cdf = a.data / np.sqrt(2.0)
    _sp_special.erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out_data = a.data * cdf
    _count_flops(out_data.size)

    def bw(g, acc):
        pdf = np.exp(-0.5 * a.data * a.data) / np.sqrt(2.0 * np.pi)
        acc(a, g * (cdf + a.data * pdf))

    return _make(out_data, (a,), bw, "gelu")


def absval(a) -> Tensor:
    """Element-wise |a|; subgradient 0 at exactly 0."""
    a = as_tensor(a)
    out_data = np.abs(a.data)
    _count_flops(out_data.size)

    def bw(g, acc):
        acc(a, g * np.sign(a.data))

    return _make(out_data, (a,), bw, "abs")


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def additive_mask(valid: np.ndarray) -> np.ndarray:
    """Boolean validity -> additive mask (0 where valid, -inf where not)."""
    return np.where(np.asarray(valid, dtype=bool), 0.0, -np.inf)


def causal_mask(t: int) -> np.ndarray:
    """[t, t] additive mask blocking attention to later positions."""
    m = np.zeros((t, t))
    m[np.triu_indices(t, k=1)] = -np.inf
    return m


def softmax(x: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Max-shifted softmax along ``axis``.

    ``mask`` is an optional plain ndarray of additive biases (0 / -inf),
    broadcastable to ``x``; -inf entries get exactly zero weight.  A slice with
    no finite entry left is rejected rather than silently renormalized.
    """
    x = as_tensor(x)
    axis = _norm_axis(axis, x.ndim)
    z = x.data if mask is None else x.data + np.asarray(mask, dtype=np.float64)
    if mask is not None and not np.all(np.isfinite(z).any(axis=axis)):
        raise DegenerateInputError("softmax slice fully masked out")
    m = np.max(z, axis=axis, keepdims=True)
    e = np.exp(z - m)
    s = np.sum(e, axis=axis, keepdims=True)
    y = e / s
    _count_flops(3 * y.size)

    def bw(g, acc):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        acc(x, y * (g - inner))

    return _make(y, (x,), bw, "softmax")


def weighted_cross_entropy(logits, targets, weights,
                           mask: np.ndarray | None = None) -> Tensor:
    """Scalar sum over rows of ``weights * -log softmax(logits + mask)[target]``
    along the last axis: one tape node.

    ``targets`` (integers) and ``weights`` have the shape of ``logits``
    without its last axis; ``mask`` is an optional additive ndarray (0 / -inf)
    broadcastable to ``logits``.  Masked columns get exactly zero
    probability; a row with no unmasked column, or whose target column is
    masked, is rejected.
    """
    x = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    if targets.shape != x.shape[:-1] or weights.shape != targets.shape:
        raise DimensionError(
            f"targets {targets.shape} and weights {weights.shape} must both be "
            f"{x.shape[:-1]} for logits {x.shape}")
    z = x.data
    if mask is not None:
        z = z + np.asarray(mask, dtype=np.float64)
        if not np.all(np.isfinite(z).any(axis=-1)):
            raise DegenerateInputError("cross-entropy row fully masked out")
    z = z - np.max(z, axis=-1, keepdims=True)
    logp = z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    if not np.all(np.isfinite(picked)):
        raise DegenerateInputError("cross-entropy target column masked out")
    out_data = np.asarray(-np.sum(weights * picked))
    _count_flops(3 * x.size + 2 * targets.size)

    def bw(g, acc):
        p = np.exp(logp)
        np.put_along_axis(p, targets[..., None],
                          np.take_along_axis(p, targets[..., None], axis=-1) - 1.0,
                          axis=-1)
        acc(x, (g * weights)[..., None] * p)

    return _make(out_data, (x,), bw, "weighted_cross_entropy")


def _norm_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise DimensionError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product; leading dims broadcast, trailing two contract."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents differ: {a.shape} vs {b.shape}")
    out_data = np.matmul(a.data, b.data)
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    batch = int(np.prod(out_data.shape[:-2], dtype=np.int64)) if out_data.ndim > 2 else 1
    _count_flops(2 * m * k * n * batch)

    def bw(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _make(out_data, (a, b), bw, "matmul")


# ---------------------------------------------------------------------------
# fused layer ops (one tape node each, closed-form backward)
# ---------------------------------------------------------------------------


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` over the last axis of ``x`` with ``w`` of shape
    [d_in, d_out]: one tape node.  The forward is matmul then bias add, so
    values equal the two-op sequence; the weight gradient is one GEMM over
    the flattened rows."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim < 2 or w.ndim != 2:
        raise DimensionError(
            f"linear needs >=2-d input and a 2-d weight, got {x.shape} and {w.shape}")
    k, n = w.shape
    if x.shape[-1] != k:
        raise DimensionError(f"linear inner extents differ: {x.shape} vs {w.shape}")
    if b.shape != (n,):
        raise DimensionError(f"linear bias shape {b.shape} != ({n},)")
    out_data = np.matmul(x.data, w.data)
    _count_flops(2 * out_data.size * k)
    out_data += b.data
    _count_flops(out_data.size)

    def bw(g, acc):
        g2 = g.reshape(-1, n)
        if x.requires_grad:
            # a C-ordered w^T runs the stacked products faster than a view
            acc(x, np.matmul(g, np.ascontiguousarray(w.data.T)))
        if w.requires_grad:
            acc(w, np.matmul(x.data.reshape(-1, k).T, g2))
        if b.requires_grad:
            acc(b, g2.sum(axis=0))

    return _make(out_data, (x, w, b), bw, "linear")


LAYER_NORM_EPS = 1e-5


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale by
    ``gamma`` and shift by ``beta``.  The forward repeats the unfused op
    sequence (mean, center, mean square, +``LAYER_NORM_EPS``, **-0.5, scale,
    shift) in the same order, so values and FLOPs equal it."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}, {beta.shape} != ({d},)")
    inv_n = 1.0 / d
    mu = np.sum(x.data, axis=-1, keepdims=True) * inv_n
    xc = x.data - mu
    buf = xc * xc
    var = np.sum(buf, axis=-1, keepdims=True) * inv_n
    rstd = (var + LAYER_NORM_EPS) ** -0.5
    xhat = np.multiply(xc, rstd, out=xc)
    out_data = np.multiply(xhat, gamma.data, out=buf)
    out_data += beta.data
    _count_flops(7 * x.size + 4 * (x.size // d))

    def bw(g, acc):
        g2 = g.reshape(-1, d)
        if gamma.requires_grad:
            acc(gamma, np.sum(g2 * xhat.reshape(-1, d), axis=0))
        if beta.requires_grad:
            acc(beta, g2.sum(axis=0))
        if x.requires_grad:
            gh = g * gamma.data
            acc(x, rstd * (gh - np.mean(gh, axis=-1, keepdims=True)
                           - xhat * np.mean(gh * xhat, axis=-1, keepdims=True)))

    return _make(out_data, (x, gamma, beta), bw, "layer_norm")


def _masked_softmax(z: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Softmax of ``z + mask`` along the last axis, in a new array; a row
    with no finite entry left is rejected.  The forward of both attention
    cores, over every key of the call (callers reject an empty key axis)."""
    if mask is not None:
        z = z + mask
        if not np.all(np.isfinite(z).any(axis=-1)):
            raise DegenerateInputError("softmax slice fully masked out")
    e = z - np.max(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def _softmax_bw(y: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Gradient of the pre-softmax scores from softmax ``y``'s gradient
    ``gy``, along the last axis."""
    return y * (gy - np.sum(gy * y, axis=-1, keepdims=True))


def _check_attention_shape(d: int, heads: int, tk: int) -> None:
    """Reject a width that ``heads`` does not split, and an empty key
    sequence before a softmax reduces over it.  Shared by both attention
    cores."""
    if d % heads:
        raise DimensionError(f"width {d} not divisible by {heads} heads")
    if tk < 1:
        raise DimensionError(f"attention over {tk} keys")


def _record_tap(scores: np.ndarray, weights: np.ndarray) -> None:
    if _TAPS:
        record = (scores.copy(), weights.copy())
        for tap in _TAPS:
            tap.append(record)


def attention(q, k, v, heads: int, mask: np.ndarray | None = None,
              rope_base: float | None = None, pos_q=None, pos_k=None):
    """Multi-head attention core on projected inputs: one tape node.

    ``q`` is [B, Tq, d]; ``k`` and ``v`` are [B, Tk, d] with Tk >= 1.  Each
    is split into ``heads`` heads; with ``rope_base`` set, q and k are
    rotated by RoPE at ``pos_q`` / ``pos_k`` (default 0..T-1).  Scores
    q.k / sqrt(d_h) are softmax-normalized along the keys and weight the
    values; heads merge back to [B, Tq, d].  ``mask`` is an additive ndarray
    broadcastable to [B, heads, Tq, Tk]; a row with no unmasked key is
    rejected.

    The forward repeats the unfused op sequence (split, rope, transpose,
    matmul, scale, softmax, matmul, merge) on the same arrays, so values and
    FLOPs equal it.  Each open ``attention_tap`` records the scaled scores
    and the weights.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 3 or k.ndim != 3 or v.shape != k.shape \
            or q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]:
        raise DimensionError(
            f"attention wants q [B,Tq,d], k and v [B,Tk,d]; got {q.shape}, "
            f"{k.shape}, {v.shape}")
    b, tq, d = q.shape
    tk = k.shape[1]
    _check_attention_shape(d, heads, tk)
    dh = d // heads
    qh = q.data.reshape(b, tq, heads, dh)
    kh = k.data.reshape(b, tk, heads, dh)
    flops = 0
    rope_q = rope_k = None
    if rope_base is not None:
        rope_q = _rope_tables(np.arange(tq) if pos_q is None else pos_q, tq, dh,
                              rope_base)
        rope_k = _rope_tables(np.arange(tk) if pos_k is None else pos_k, tk, dh,
                              rope_base)
        qh, kh = _rope_rotate(qh, *rope_q), _rope_rotate(kh, *rope_k)
        flops += 3 * (q.size + k.size)
    qt = qh.transpose(0, 2, 1, 3)                             # [B, h, Tq, dh]
    kt = kh.transpose(0, 2, 3, 1)                             # [B, h, dh, Tk]
    vt = v.data.reshape(b, tk, heads, dh).transpose(0, 2, 1, 3)
    scale = 1.0 / np.sqrt(dh)
    scores = np.matmul(qt, kt)                                # [B, h, Tq, Tk]
    scores *= scale
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=np.float64), scores.shape)
    weights = _masked_softmax(scores, mask)
    out_data = np.matmul(weights, vt).transpose(0, 2, 1, 3).reshape(b, tq, d)
    # scores and weighted values (2 * dh each), scale (1), softmax (3)
    _count_flops(flops + 4 * scores.size * dh + 4 * scores.size)

    def merge(gh, rope, n):
        """[B, h, T, dh] head gradient -> [B, T, d] input gradient."""
        gh = gh.transpose(0, 2, 1, 3)
        if rope is not None:
            gh = _rope_rotate(gh, *rope, -1.0)
        return gh.reshape(b, n, d)

    def bw(g, acc):
        go = g.reshape(b, tq, heads, dh).transpose(0, 2, 1, 3)   # [B, h, Tq, dh]
        if v.requires_grad:
            gv = np.matmul(np.swapaxes(weights, -1, -2), go)
            acc(v, gv.transpose(0, 2, 1, 3).reshape(b, tk, d))
        if not (q.requires_grad or k.requires_grad):
            return
        gs = _softmax_bw(weights, np.matmul(go, np.swapaxes(vt, -1, -2)))
        gs *= scale
        if q.requires_grad:
            acc(q, merge(np.matmul(gs, np.swapaxes(kt, -1, -2)), rope_q, tq))
        if k.requires_grad:
            acc(k, merge(np.matmul(np.swapaxes(gs, -1, -2), qt), rope_k, tk))

    out = _make(out_data, (q, k, v), bw, "attention")
    _record_tap(scores, weights)
    return out


def memory_attention(q, mem, wk, bk, wv, bv, heads: int,
                     mask: np.ndarray | None = None) -> Tensor:
    """Multi-head attention of projected queries over an unprojected
    memory, with the key and value maps absorbed into the queries: one tape
    node.

    ``q`` is [B, Tq, d] (already through the query map), ``mem`` is
    [B, Tk, d], ``wk``/``wv`` are [d, d] and ``bk``/``bv`` are [d], as in
    ``linear``.  Per head h, with ``W_k,h`` the head's d_h columns of
    ``wk``, the output is

        softmax(((q_h W_k,h^T) mem^T + q_h . b_k,h) / sqrt(d_h) + mask)
            mem W_v,h + b_v,h

    which in exact arithmetic is ``attention(q, linear(mem, wk, bk),
    linear(mem, wv, bv), heads, mask)``: the value bias is added once after
    the weights, which sum to one.  Each GEMM runs per batch element over
    heads x Tq rows, so the memory is never projected; that costs less than
    projecting it while heads x Tq stays below Tk.  Values equal
    ``attention``'s up to rounding.  ``mask`` is an additive ndarray
    broadcastable to [B, heads, Tq, Tk]; a row with no unmasked key is
    rejected.  Each open ``attention_tap`` records the scaled scores and the
    weights.
    """
    q, mem = as_tensor(q), as_tensor(mem)
    wk, bk, wv, bv = as_tensor(wk), as_tensor(bk), as_tensor(wv), as_tensor(bv)
    if q.ndim != 3 or mem.ndim != 3 or q.shape[0] != mem.shape[0] \
            or q.shape[2] != mem.shape[2]:
        raise DimensionError(
            f"memory_attention wants q [B,Tq,d] and mem [B,Tk,d]; got "
            f"{q.shape}, {mem.shape}")
    b, tq, d = q.shape
    tk = mem.shape[1]
    if wk.shape != (d, d) or wv.shape != (d, d) or bk.shape != (d,) \
            or bv.shape != (d,):
        raise DimensionError(
            f"memory_attention maps must be ({d}, {d}) with ({d},) biases; "
            f"got {wk.shape}, {bk.shape}, {wv.shape}, {bv.shape}")
    _check_attention_shape(d, heads, tk)
    dh = d // heads
    rows = heads * tq
    wkh = wk.data.reshape(d, heads, dh).transpose(1, 0, 2)   # [h, d, dh]
    wvh = wv.data.reshape(d, heads, dh).transpose(1, 0, 2)
    qt = q.data.reshape(b, tq, heads, dh).transpose(0, 2, 1, 3)  # [B,h,Tq,dh]
    # a C-ordered W_k,h^T runs the stacked products faster than a view
    qa = np.matmul(qt, np.ascontiguousarray(wkh.transpose(0, 2, 1))).reshape(
        b, rows, d)
    qb = np.matmul(qt, bk.data.reshape(heads, dh, 1))        # [B, h, Tq, 1]
    scale = 1.0 / np.sqrt(dh)
    scores = np.matmul(qa, mem.data.transpose(0, 2, 1)).reshape(
        b, heads, tq, tk)
    scores += qb
    scores *= scale
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=np.float64), scores.shape)
    weights = _masked_softmax(scores, mask)
    ctx = np.matmul(weights.reshape(b, rows, tk), mem.data)  # [B, h*Tq, d]
    out_data = np.matmul(ctx.reshape(b, heads, tq, d), wvh)  # [B,h,Tq,dh]
    out_data = out_data.transpose(0, 2, 1, 3).reshape(b, tq, d)
    out_data += bv.data
    # absorbed queries, q.b_k, scores, weighted memory, value map (2 per
    # multiply-add each); b_k add, scale, softmax (5 per score); b_v add
    _count_flops(4 * b * tq * d * d + 2 * b * tq * d + 4 * scores.size * d
                 + 5 * scores.size + b * tq * d)

    def head_cols(gh):
        """[h, d, dh] per-head map gradient -> [d, d] columns, C order."""
        return np.ascontiguousarray(gh.transpose(1, 0, 2)).reshape(d, d)

    def bw(g, acc):
        go = g.reshape(b, tq, heads, dh).transpose(0, 2, 1, 3)  # [B,h,Tq,dh]
        if bv.requires_grad:
            acc(bv, g.reshape(-1, d).sum(axis=0))
        if wv.requires_grad:
            acc(wv, head_cols(np.matmul(
                ctx.reshape(b, heads, tq, d).transpose(1, 3, 0, 2).reshape(
                    heads, d, b * tq),
                go.transpose(1, 0, 2, 3).reshape(heads, b * tq, dh))))
        if not (q.requires_grad or mem.requires_grad or wk.requires_grad
                or bk.requires_grad):
            return
        gctx = np.matmul(go, np.ascontiguousarray(wvh.transpose(0, 2, 1))
                         ).reshape(b, rows, d)
        gw = np.matmul(gctx, mem.data.transpose(0, 2, 1))     # [B, h*Tq, Tk]
        gs = _softmax_bw(weights, gw.reshape(b, heads, tq, tk))
        gs *= scale
        gs2 = gs.reshape(b, rows, tk)
        if mem.requires_grad:
            gmem = np.matmul(weights.reshape(b, rows, tk).transpose(0, 2, 1),
                             gctx)
            gmem += np.matmul(gs2.transpose(0, 2, 1), qa)
            acc(mem, gmem)
        gqb = gs.sum(axis=-1, keepdims=True)                 # [B, h, Tq, 1]
        gqa = np.matmul(gs2, mem.data).reshape(b, heads, tq, d)
        if q.requires_grad:
            gqt = np.matmul(gqa, wkh)                        # [B, h, Tq, dh]
            gqt += gqb * bk.data.reshape(heads, 1, dh)
            acc(q, gqt.transpose(0, 2, 1, 3).reshape(b, tq, d))
        if wk.requires_grad:
            acc(wk, head_cols(np.matmul(
                gqa.transpose(1, 3, 0, 2).reshape(heads, d, b * tq),
                qt.transpose(1, 0, 2, 3).reshape(heads, b * tq, dh))))
        if bk.requires_grad:
            acc(bk, np.sum(gqb * qt, axis=(0, 2)).reshape(d))

    out = _make(out_data, (q, mem, wk, bk, wv, bv), bw, "memory_attention")
    _record_tap(scores, weights)
    return out


# ---------------------------------------------------------------------------
# movement ops (zero FLOPs)
# ---------------------------------------------------------------------------


def reshape(a: Tensor, *shape: int) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def bw(g, acc):
        acc(a, g.reshape(a.shape))

    return _make(out_data, (a,), bw, "reshape")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    inv = np.argsort(axes)

    def bw(g, acc):
        acc(a, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), bw, "transpose")


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise UsageError("concat of an empty list")
    axis = _norm_axis(axis, parts[0].ndim)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g, acc):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            acc(p, g[tuple(idx)])

    return _make(out_data, tuple(parts), bw, "concat")


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice ``a[..., start:stop, ...]`` along one axis."""
    a = as_tensor(a)
    axis = _norm_axis(axis, a.ndim)
    if not 0 <= start < stop <= a.shape[axis]:
        raise DimensionError(
            f"slice [{start}:{stop}] invalid for extent {a.shape[axis]}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def bw(g, acc):
        buf = np.zeros_like(a.data)
        buf[idx] = g
        acc(a, buf)

    return _make(a.data[idx], (a,), bw, "slice")


def index_select(a: Tensor, axis: int, indices) -> Tensor:
    """Gather rows along ``axis`` by an integer index array."""
    a = as_tensor(a)
    axis = _norm_axis(axis, a.ndim)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = np.take(a.data, idx, axis=axis)

    def bw(g, acc):
        buf = np.zeros_like(a.data)
        np.add.at(buf, _axis_index(axis, idx, a.ndim), g)
        acc(a, buf)

    return _make(out_data, (a,), bw, "index_select")


def _axis_index(axis, idx, ndim):
    sel = [slice(None)] * ndim
    sel[axis] = idx
    return tuple(sel)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = np.sum(a.data, axis=axis, keepdims=keepdims)
    _count_flops(a.size)

    def bw(g, acc):
        if axis is None:
            acc(a, np.broadcast_to(g, a.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            acc(a, np.broadcast_to(gg, a.shape).copy())

    return _make(np.asarray(out_data), (a,), bw, "sum")


def tmean(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.shape[_norm_axis(axis, a.ndim)]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def conv2d_output_hw(h: int, w: int, kh: int, kw: int, stride: int,
                     padding: int) -> tuple[int, int]:
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    return ho, wo


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None) -> Tensor:
    """Cross-correlation of [B,C,H,W] with [Cout,C,kh,kw].

    The forward is one GEMM per sample over its im2col windows, so a
    sample's output does not depend on the batch it shares; the kernel
    gradient is one C-ordered GEMM over every sample's windows."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise DimensionError(
            f"conv2d wants 4-d input and kernel, got {x.shape} and {kernel.shape}")
    bsz, cin, h, w = x.shape
    cout, cin_k, kh, kw = kernel.shape
    if cin != cin_k:
        raise DimensionError(
            f"conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    ho, wo = conv2d_output_hw(h, w, kh, kw, stride, padding)
    if ho < 1 or wo < 1:
        raise DimensionError(
            f"conv2d output extent {ho}x{wo} non-positive for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]          # [B, C, Ho, Wo, kh, kw]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(bsz, ho * wo, -1)
    kmat = kernel.data.reshape(cout, -1)         # [Cout, C*kh*kw]
    out_data = np.matmul(kmat, cols.transpose(0, 2, 1)).reshape(
        bsz, cout, ho, wo)
    _count_flops(2 * bsz * cout * ho * wo * cin * kh * kw)
    if bias is not None and bias.shape != (cout,):
        raise DimensionError(f"conv2d bias shape {bias.shape} != ({cout},)")

    def bw(g, acc):
        gk = np.matmul(g.reshape(bsz, cout, -1).transpose(1, 0, 2)
                       .reshape(cout, -1), cols.reshape(-1, kmat.shape[1]))
        acc(kernel, gk.reshape(kernel.shape))
        # every tap's input gradient in one einsum, bitwise the per-tap
        # "bdhw,dc->bchw" products, added in (i, j) order
        taps = np.einsum("bdhw,dckl->bchwkl", g, kernel.data)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + stride * ho:stride,
                    j:j + stride * wo:stride] += taps[..., i, j]
        if padding:
            gxp = gxp[:, :, padding:h + padding, padding:w + padding]
        acc(x, gxp)

    out = _make(out_data, (x, kernel), bw, "conv2d")
    if bias is not None:
        out = add(out, reshape(bias, 1, cout, 1, 1))
    return out


# ---------------------------------------------------------------------------
# pixel shuffle
# ---------------------------------------------------------------------------


def pixel_unshuffle(x: Tensor, r: int) -> Tensor:
    """Space-to-depth: [B,C,H,W] -> [B, C*r*r, H/r, W/r].

    Output channel c*r*r + i*r + j holds the (i, j) offset within each r x r
    spatial block of input channel c.  Pure permutation, zero FLOPs.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"pixel_unshuffle wants 4-d input, got {x.shape}")
    bsz, c, h, w = x.shape
    if r < 1 or h % r or w % r:
        raise DimensionError(
            f"spatial extents {h}x{w} not divisible by factor {r}")
    out_data = (x.data.reshape(bsz, c, h // r, r, w // r, r)
                .transpose(0, 1, 3, 5, 2, 4)
                .reshape(bsz, c * r * r, h // r, w // r))

    def bw(g, acc):
        acc(x, (g.reshape(bsz, c, r, r, h // r, w // r)
                .transpose(0, 1, 4, 2, 5, 3)
                .reshape(bsz, c, h, w)))

    return _make(out_data, (x,), bw, "pixel_unshuffle")


# ---------------------------------------------------------------------------
# rotary position embedding
# ---------------------------------------------------------------------------

ROPE_BASE = 10000.0           # the RoPE base of every rotating layer


def rope_angles(positions, d_head: int, base: float = ROPE_BASE) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) tables of shape [T, d_head/2] for the given positions."""
    if d_head % 2:
        raise DimensionError(f"rope needs an even head dim, got {d_head}")
    pos = np.asarray(positions, dtype=np.float64)
    inv = base ** (-np.arange(0, d_head, 2, dtype=np.float64) / d_head)
    ang = pos[:, None] * inv[None, :]
    return np.cos(ang), np.sin(ang)


def _rope_tables(positions, t: int, d_head: int, base: float):
    """[1, T, 1, d_h/2] (cos, sin) tables for [B, T, h, d_h] operands."""
    pos = np.asarray(positions)
    if pos.shape != (t,):
        raise DimensionError(
            f"positions length {pos.shape} does not match T={t}")
    cos, sin = rope_angles(pos, d_head, base)      # [T, dh/2]
    return cos[None, :, None, :], sin[None, :, None, :]


def _rope_rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                 sign: float = 1.0) -> np.ndarray:
    """Rotate (even, odd) channel pairs by +angle (``sign`` 1) or by -angle
    (``sign`` -1, the transpose used by the backward pass)."""
    xe, xo = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    if sign > 0:
        out[..., 0::2] = xe * cos - xo * sin
        out[..., 1::2] = xe * sin + xo * cos
    else:
        out[..., 0::2] = xe * cos + xo * sin
        out[..., 1::2] = -xe * sin + xo * cos
    return out


def rope_apply(x: Tensor, positions, base: float = ROPE_BASE) -> Tensor:
    """Rotate consecutive (even, odd) channel pairs of [B,T,h,d_h] by
    position * base**(-2i/d_h).  Norm-preserving per pair."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"rope_apply wants [B,T,h,d_h], got {x.shape}")
    cos, sin = _rope_tables(positions, x.shape[1], x.shape[3], base)
    out_data = _rope_rotate(x.data, cos, sin)
    _count_flops(3 * x.size)

    def bw(g, acc):
        acc(x, _rope_rotate(g, cos, sin, -1.0))

    return _make(out_data, (x,), bw, "rope_apply")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every ``requires_grad`` leaf reachable from
    ``loss``, accumulating into existing buffers, then free the tape."""
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}

    def acc(node: Tensor, g: np.ndarray) -> None:
        if not node.requires_grad:
            return
        key = id(node)
        if key in grads:
            grads[key] = grads[key] + g
        else:
            grads[key] = g

    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is not None:
            node._backward_fn(g, acc)
            node._parents = ()
            node._backward_fn = None
        elif node.grad is None:
            node.grad = np.array(g, dtype=np.float64)
        else:
            node.grad += g


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


FINITE_DIFF_STEP = 1e-5


def finite_diff_check(f, params) -> float:
    """Compare analytic gradients of scalar ``f()`` against central
    differences at step ``FINITE_DIFF_STEP`` over every coordinate of
    ``params``.

    ``f`` must rebuild its graph from the current contents of ``params`` on
    each call.  Returns max over coordinates of
    ``|analytic - numeric| / max(1, |analytic|)``.
    """
    plist = list(params.values()) if isinstance(params, dict) else list(params)
    if not plist:
        raise UsageError("finite_diff_check needs at least one parameter")
    for p in plist:
        p.grad = None
    loss = f()
    backward(loss)
    worst = 0.0
    for p in plist:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + FINITE_DIFF_STEP
            hi = f().item()
            flat[i] = keep - FINITE_DIFF_STEP
            lo = f().item()
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * FINITE_DIFF_STEP)
            a = analytic.reshape(-1)[i]
            err = abs(a - numeric) / max(1.0, abs(a))
            if err > worst:
                worst = err
    return worst
