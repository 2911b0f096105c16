"""Finite-difference verification of every differentiable primitive.

The oracle is central differences at step 1e-5 in float64; analytic gradients
must agree to relative error < 1e-4 (normalized by max(1, |analytic|)).  Each
op family is exercised on >= 20 random instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from fusedet import tensor as T
from fusedet.tensor import Tensor, UsageError, finite_diff_check

TOL = 1e-4
EPS = 1e-5


def _params(rng, *shapes, scale=1.0):
    return [Tensor(rng.standard_normal(s) * scale, requires_grad=True) for s in shapes]


def _weighted_sum(rng, t):
    # fixed random weights turn any output into a scalar without symmetry
    w = T.constant(np.asarray(np.random.default_rng(99).standard_normal(t.shape)))
    return T.tsum(T.mul(t, w))


UNARY_OPS = [
    ("exp", T.exp, 0.5),
    ("tanh", T.tanh, 1.0),
    ("sigmoid", T.sigmoid, 1.0),
    ("gelu", T.gelu, 1.0),
    ("softmax", lambda x: T.softmax(x, axis=-1), 1.0),
    ("log_softmax", lambda x: T.log_softmax(x, axis=-1), 1.0),
    ("reshape", lambda x: T.reshape(x, 6, 2), 1.0),
    ("transpose", lambda x: T.transpose(x, (1, 0)), 1.0),
    ("slice", lambda x: T.slice_axis(x, 1, 1, 3), 1.0),
    ("sum_axis", lambda x: T.tsum(x, axis=0, keepdims=True), 1.0),
    ("mean_axis", lambda x: T.tmean(x, axis=1, keepdims=True), 1.0),
    ("square", lambda x: T.power(x, 2.0), 1.0),
]


@pytest.mark.parametrize("name,op,scale", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_ops(name, op, scale):
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        (x,) = _params(rng, (3, 4), scale=scale)
        err = finite_diff_check(lambda: _weighted_sum(rng, op(x)), [x], eps=EPS)
        assert err < TOL, f"{name} seed {seed}: {err}"


def test_log_positive_domain():
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        err = finite_diff_check(lambda: _weighted_sum(rng, T.log(x)), [x], eps=EPS)
        assert err < TOL


BINARY_OPS = [
    ("add", T.add, (3, 4), (3, 4)),
    ("add_broadcast", T.add, (3, 4), (4,)),
    ("sub", T.sub, (3, 4), (3, 4)),
    ("mul", T.mul, (3, 4), (3, 4)),
    ("mul_broadcast", T.mul, (3, 4), (3, 1)),
    ("matmul", T.matmul, (3, 4), (4, 2)),
    ("matmul_batched", T.matmul, (2, 3, 4), (4, 2)),
]


@pytest.mark.parametrize("name,op,sa,sb", BINARY_OPS, ids=[b[0] for b in BINARY_OPS])
def test_binary_ops(name, op, sa, sb):
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        a, b = _params(rng, sa, sb)
        err = finite_diff_check(lambda: _weighted_sum(rng, op(a, b)), [a, b], eps=EPS)
        assert err < TOL, f"{name} seed {seed}: {err}"


def test_div_away_from_zero():
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)) * rng.choice([-1.0, 1.0], (3, 4)),
                   requires_grad=True)
        err = finite_diff_check(lambda: _weighted_sum(rng, T.div(a, b)), [a, b], eps=EPS)
        assert err < TOL


def test_conv2d_grads():
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        x, k = _params(rng, (2, 2, 5, 5), (3, 2, 3, 3))
        err = finite_diff_check(
            lambda: _weighted_sum(rng, T.conv2d(x, k, stride=stride, padding=pad)),
            [x, k], eps=EPS)
        assert err < TOL, f"seed {seed}: {err}"


def test_rope_grads():
    for seed in range(20):
        rng = np.random.default_rng(6000 + seed)
        (x,) = _params(rng, (1, 3, 2, 8))
        pos = rng.integers(0, 16, size=3)
        err = finite_diff_check(
            lambda: _weighted_sum(rng, T.rope_apply(x, pos)), [x], eps=EPS)
        assert err < TOL


def test_pixel_unshuffle_grads():
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        (x,) = _params(rng, (1, 2, 4, 4))
        err = finite_diff_check(
            lambda: _weighted_sum(rng, T.pixel_unshuffle(x, 2)), [x], eps=EPS)
        assert err < TOL


def test_concat_grads():
    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        a, b = _params(rng, (2, 3), (2, 2))
        err = finite_diff_check(
            lambda: _weighted_sum(rng, T.concat([a, b], axis=1)), [a, b], eps=EPS)
        assert err < TOL


def test_embedding_grads():
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        (tab,) = _params(rng, (5, 3))
        ids = rng.integers(0, 5, size=(2, 4))
        err = finite_diff_check(
            lambda: _weighted_sum(rng, T.embedding(tab, ids)), [tab], eps=EPS)
        assert err < TOL


def test_masked_softmax_grads():
    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        (x,) = _params(rng, (2, 6))
        valid = rng.uniform(size=6) > 0.3
        valid[0] = True
        mask = T.additive_mask(valid)
        err = finite_diff_check(
            lambda: _weighted_sum(rng, T.softmax(x, axis=-1, mask=mask)), [x], eps=EPS)
        assert err < TOL


def test_composed_softmax_matmul():
    # the spec-level composition: attention-like graph through two matmuls
    for seed in range(10):
        rng = np.random.default_rng(11_000 + seed)
        q, k, v = _params(rng, (3, 4), (5, 4), (5, 2))
        def f():
            s = T.matmul(q, T.transpose(k, (1, 0)))
            w = T.softmax(T.mul(s, 1.0 / np.sqrt(4.0)), axis=-1)
            return _weighted_sum(rng, T.matmul(w, v))
        err = finite_diff_check(f, [q, k, v], eps=EPS)
        assert err < TOL


# -- fused ops ----------------------------------------------------------------


@pytest.mark.parametrize("x_shape,bias", [((3, 4), True), ((3, 4), False),
                                          ((2, 3, 4), True), ((2, 3, 4), False)],
                         ids=["2d-bias", "2d", "3d-bias", "3d"])
def test_linear_grads(x_shape, bias):
    for seed in range(20):
        rng = np.random.default_rng(13_000 + seed)
        x, w, b = _params(rng, x_shape, (4, 5), (5,))
        params = [x, w, b] if bias else [x, w]
        err = finite_diff_check(
            lambda: _weighted_sum(rng, T.linear(x, w, b if bias else None)),
            params, eps=EPS)
        assert err < TOL, f"seed {seed}: {err}"


def test_layer_norm_grads():
    for seed in range(20):
        rng = np.random.default_rng(14_000 + seed)
        x, gamma, beta = _params(rng, (2, 3, 6), (6,), (6,))
        err = finite_diff_check(
            lambda: _weighted_sum(rng, T.layer_norm(x, gamma, beta)),
            [x, gamma, beta], eps=EPS)
        assert err < TOL, f"seed {seed}: {err}"


def _attention_inputs(rng, tq=3, tk=4, d=4):
    return _params(rng, (2, tq, d), (2, tk, d), (2, tk, d), scale=0.7)


def test_attention_masked_grads():
    for seed in range(20):
        rng = np.random.default_rng(15_000 + seed)
        q, k, v = _attention_inputs(rng)
        valid = rng.uniform(size=(2, 4)) > 0.4
        valid[:, 0] = True
        mask = T.additive_mask(valid)[:, None, None, :]
        err = finite_diff_check(
            lambda: _weighted_sum(rng, T.attention(q, k, v, 2, mask=mask)),
            [q, k, v], eps=EPS)
        assert err < TOL, f"seed {seed}: {err}"


def test_attention_rope_offset_grads():
    """RoPE with the adapter's positions: queries at L..L+T-1, keys 0..L+T-1."""
    for seed in range(20):
        rng = np.random.default_rng(16_000 + seed)
        q, k, v = _attention_inputs(rng)
        err = finite_diff_check(
            lambda: _weighted_sum(rng, T.attention(
                q, k, v, 2, rope_base=100.0, pos_q=np.arange(2, 5),
                pos_k=np.arange(4))),
            [q, k, v], eps=EPS)
        assert err < TOL, f"seed {seed}: {err}"


@pytest.mark.parametrize("gated_keys", [2, 4], ids=["two-segments", "gated-only"])
def test_attention_gated_segment_grads(gated_keys):
    for seed in range(20):
        rng = np.random.default_rng(17_000 + seed)
        q, k, v = _attention_inputs(rng)
        (gate,) = _params(rng, (2,), scale=0.5)
        valid = np.ones((2, 4), dtype=bool)
        valid[1, 1] = False                    # one masked prompt key
        mask = T.additive_mask(valid)[:, None, None, :]
        err = finite_diff_check(
            lambda: _weighted_sum(rng, T.attention(
                q, k, v, 2, mask=mask, rope_base=100.0,
                pos_q=np.arange(gated_keys, gated_keys + 3), pos_k=np.arange(4),
                gate=T.tanh(gate), gated_keys=gated_keys)),
            [q, k, v, gate], eps=EPS)
        assert err < TOL, f"seed {seed}: {err}"


def test_masked_cross_entropy_grads():
    for seed in range(20):
        rng = np.random.default_rng(18_000 + seed)
        (x,) = _params(rng, (2, 3, 5))
        cols = rng.uniform(size=(2, 1, 5)) > 0.4
        cols[..., -1] = True
        labels = np.where(rng.uniform(size=(2, 3)) > 0.5, 4,
                          np.argmax(cols, axis=-1))
        weights = rng.uniform(0.2, 2.0, size=(2, 3))
        err = finite_diff_check(
            lambda: T.weighted_cross_entropy(x, labels, weights,
                                             mask=T.additive_mask(cols)),
            [x], eps=EPS)
        assert err < TOL, f"seed {seed}: {err}"


def test_quadratic_is_nearly_exact():
    rng = np.random.default_rng(12)
    (x,) = _params(rng, (4,))
    err = finite_diff_check(lambda: T.tsum(T.mul(x, x)), [x], eps=EPS)
    assert err < 1e-8


def test_eps_zero_rejected():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(UsageError):
        finite_diff_check(lambda: T.tsum(x), [x], eps=0.0)


def test_empty_param_set_rejected():
    with pytest.raises(UsageError):
        finite_diff_check(lambda: T.tsum(T.ones(1)), [])
