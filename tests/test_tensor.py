"""Forward semantics, FLOP accounting, and error taxonomy of the tensor core.

Every nontrivial op is checked against an independent oracle written the dumb
way (explicit loops, sorting, index maps) rather than against numpy calls that
mirror the implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from fusedet import tensor as T
from fusedet.tensor import (
    DegenerateInputError,
    DimensionError,
    FlopsMeter,
    NumericsError,
    Tensor,
    UsageError,
)


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv_loops(x: np.ndarray, k: np.ndarray, stride: int, pad: int) -> np.ndarray:
    b, c, h, w = x.shape
    d, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((b, d, ho, wo))
    for bi in range(b):
        for di in range(d):
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += xp[bi, ci, oi * stride + ki, oj * stride + kj] \
                                    * k[di, ci, ki, kj]
                    out[bi, di, oi, oj] = acc
    return out


def unshuffle_index_map(x: np.ndarray, r: int) -> np.ndarray:
    b, c, h, w = x.shape
    out = np.zeros((b, c * r * r, h // r, w // r))
    for bi in range(b):
        for ci in range(c):
            for i in range(r):
                for j in range(r):
                    for y in range(h // r):
                        for xx in range(w // r):
                            out[bi, ci * r * r + i * r + j, y, xx] = \
                                x[bi, ci, y * r + i, xx * r + j]
    return out


class TestMatmul:
    def test_all_ones(self):
        out = T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = T.constant(rng.standard_normal((3, 7)))
        out = T.matmul(a, T.constant(np.eye(7)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 2))
        out = T.matmul(T.constant(a), T.constant(b))
        assert np.abs(out.data - matmul_loops(a, b)).max() <= 1e-12

    def test_batched_broadcast(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((4, 5))
        out = T.matmul(T.constant(a), T.constant(b))
        for i in range(3):
            assert np.abs(out.data[i] - matmul_loops(a[i], b)).max() <= 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as e:
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(T.constant([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-15)

    def test_max_shift_stability(self):
        out = T.softmax(T.constant([1000.0, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = T.constant(rng.standard_normal(7) * 5)
            assert abs(T.softmax(x).data.sum() - 1.0) <= 1e-12

    def test_mask_zeroes_and_renormalizes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 5))
        mask = np.array([0.0, -np.inf, 0.0, 0.0, -np.inf])
        out = T.softmax(T.constant(x), axis=-1, mask=mask)
        assert np.all(out.data[:, [1, 4]] == 0.0)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        keep = x[:, [0, 2, 3]]
        ref = np.exp(keep - keep.max(axis=-1, keepdims=True))
        ref /= ref.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out.data[:, [0, 2, 3]], ref, atol=1e-12)

    def test_fully_masked_slice_rejected(self):
        with pytest.raises(DegenerateInputError):
            T.softmax(T.constant(np.zeros((2, 3))), axis=-1,
                      mask=np.full(3, -np.inf))


class TestTanhGate:
    def test_zero(self):
        assert T.tanh(T.constant(0.0)).item() == 0.0

    def test_saturation(self):
        assert abs(T.tanh(T.constant(20.0)).item() - 1.0) <= 1e-8

    def test_reference_value(self):
        assert abs(T.tanh(T.constant(0.5)).item() - np.tanh(0.5)) <= 1e-12


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 5, 5))
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = T.conv2d(T.constant(x), T.constant(k), stride=1, padding=0)
        np.testing.assert_array_equal(out.data, x)

    def test_3x3_stride2_pad1_spatial(self):
        x = T.constant(np.zeros((1, 2, 8, 8)))
        k = T.constant(np.zeros((4, 2, 3, 3)))
        assert T.conv2d(x, k, stride=2, padding=1).shape == (1, 4, 4, 4)

    def test_six_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 6, 7))
        k = rng.standard_normal((4, 3, 3, 3))
        out = T.conv2d(T.constant(x), T.constant(k), stride=2, padding=1)
        assert np.abs(out.data - conv_loops(x, k, 2, 1)).max() <= 1e-12

    def test_bias(self):
        rng = np.random.default_rng(8)
        x = T.constant(rng.standard_normal((1, 2, 4, 4)))
        k = T.constant(np.zeros((3, 2, 1, 1)))
        b = T.constant(np.array([1.0, 2.0, 3.0]))
        out = T.conv2d(x, k, stride=1, padding=0, bias=b)
        for c in range(3):
            np.testing.assert_array_equal(out.data[:, c], np.full((1, 4, 4), c + 1.0))

    def test_non_positive_output_extent(self):
        with pytest.raises(DimensionError):
            T.conv2d(Tensor(np.zeros((1, 1, 2, 2))),
                     Tensor(np.zeros((1, 1, 5, 5))), stride=1, padding=0)

    @pytest.mark.parametrize("x_shape,k_shape,stride,padding", [
        ((8, 64, 4, 4), (64, 64, 3, 3), 2, 1),      # stage 3's adapter conv
        ((2, 3, 6, 7), (4, 3, 3, 3), 2, 1),
        ((2, 3, 9, 8), (5, 3, 3, 3), 3, 0),
        ((1, 4, 5, 5), (2, 4, 1, 1), 1, 0),
        ((3, 2, 6, 6), (3, 2, 2, 2), 2, 0),
        ((2, 5, 7, 5), (4, 5, 2, 2), 1, 1),
        ((1, 3, 8, 8), (6, 3, 3, 3), 2, 0),
        ((2, 2, 4, 6), (3, 2, 1, 1), 3, 1),
    ])
    def test_input_gradient_bitwise_per_tap(self, x_shape, k_shape, stride,
                                            padding):
        """The input gradient equals, bit for bit, the per-tap reference:
        one ``"bdhw,dc->bchw"`` product per kernel tap, added into the padded
        gradient in (i, j) order."""
        rng = np.random.default_rng(list(x_shape + k_shape) + [stride, padding])
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        k = Tensor(rng.standard_normal(k_shape))
        out = T.conv2d(x, k, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        T.tsum(T.mul(out, T.constant(g))).backward()
        (_, _, h, w), (_, _, kh, kw) = x_shape, k_shape
        _, _, ho, wo = out.shape
        ref = np.zeros((x_shape[0], x_shape[1], h + 2 * padding,
                        w + 2 * padding))
        for i in range(kh):
            for j in range(kw):
                ref[:, :, i:i + stride * ho:stride,
                    j:j + stride * wo:stride] += np.einsum(
                        "bdhw,dc->bchw", g, k.data[:, :, i, j])
        ref = ref[:, :, padding:h + padding, padding:w + padding]
        assert x.grad.tobytes() == ref.tobytes()


class TestPixelUnshuffle:
    def test_shape_contract_r4(self):
        out = T.pixel_unshuffle(Tensor(np.zeros((1, 1, 4, 4))), 4)
        assert out.shape == (1, 16, 1, 1)

    def test_r1_identity(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 4, 4))
        np.testing.assert_array_equal(T.pixel_unshuffle(T.constant(x), 1).data, x)

    def test_index_map_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 8, 8))
        out = T.pixel_unshuffle(T.constant(x), 4)
        np.testing.assert_array_equal(out.data, unshuffle_index_map(x, 4))

    def test_value_multiset_preserved(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 2, 8, 8))
        out = T.pixel_unshuffle(T.constant(x), 2)
        np.testing.assert_array_equal(np.sort(out.data.ravel()), np.sort(x.ravel()))

    def test_indivisible_rejected(self):
        with pytest.raises(DimensionError):
            T.pixel_unshuffle(Tensor(np.zeros((1, 1, 6, 6))), 4)


class TestRope:
    def test_position_zero_identity(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 1, 2, 8))
        out = T.rope_apply(T.constant(x), [0])
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_pairwise_norm_preserved(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 5, 3, 8))
        out = T.rope_apply(T.constant(x), np.arange(5) + 3).data
        n_in = np.hypot(x[..., 0::2], x[..., 1::2])
        n_out = np.hypot(out[..., 0::2], out[..., 1::2])
        np.testing.assert_allclose(n_out, n_in, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            q = rng.standard_normal((1, 1, 1, 8))
            k = rng.standard_normal((1, 1, 1, 8))
            m, n = rng.integers(0, 32, size=2)
            s = int(rng.integers(0, 64))
            def score(qp, kp):
                qr = T.rope_apply(T.constant(q), [qp]).data.ravel()
                kr = T.rope_apply(T.constant(k), [kp]).data.ravel()
                return qr @ kr
            assert abs(score(m, n) - score(m + s, n + s)) < 1e-10

    def test_odd_head_dim_rejected(self):
        with pytest.raises(DimensionError):
            T.rope_apply(Tensor(np.zeros((1, 2, 1, 7))), [0, 1])

    def test_position_length_mismatch(self):
        with pytest.raises(DimensionError):
            T.rope_apply(Tensor(np.zeros((1, 3, 1, 4))), [0, 1])


class TestFlopsMeter:
    def test_matmul_formula(self):
        with FlopsMeter() as m:
            T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5))))
        assert m.accumulated == 2 * 3 * 4 * 5

    def test_batched_matmul_formula(self):
        with FlopsMeter() as m:
            T.matmul(Tensor(np.zeros((7, 3, 4))), Tensor(np.zeros((7, 4, 5))))
        assert m.accumulated == 7 * 2 * 3 * 4 * 5

    def test_conv_formula(self):
        with FlopsMeter() as m:
            T.conv2d(Tensor(np.zeros((2, 3, 8, 8))),
                     Tensor(np.zeros((5, 3, 3, 3))), stride=2, padding=1)
        assert m.accumulated == 2 * 2 * 5 * 4 * 4 * 3 * 3 * 3

    def test_elementwise_and_softmax_and_reduction(self):
        with FlopsMeter() as m:
            x = T.tanh(Tensor(np.zeros((4, 6))))
        assert m.accumulated == 24
        with FlopsMeter() as m:
            T.softmax(Tensor(np.zeros((4, 6))))
        assert m.accumulated == 3 * 24
        with FlopsMeter() as m:
            T.tsum(Tensor(np.zeros((4, 6))))
        assert m.accumulated == 24

    def test_movement_ops_free(self):
        x = Tensor(np.zeros((2, 4, 8, 8)))
        with FlopsMeter() as m:
            T.reshape(x, 2, 4, 64)
            T.transpose(x, (0, 2, 3, 1))
            T.concat([x, x], axis=1)
            T.slice_axis(x, 1, 0, 2)
            T.pixel_unshuffle(x, 2)
        assert m.accumulated == 0

    def test_rope_count(self):
        with FlopsMeter() as m:
            T.rope_apply(Tensor(np.zeros((1, 2, 1, 8))), [0, 1])
        assert m.accumulated == 3 * 16

    def test_nesting(self):
        with FlopsMeter() as outer:
            T.tanh(Tensor(np.zeros(10)))
            with FlopsMeter() as inner:
                T.tanh(Tensor(np.zeros(5)))
        assert inner.accumulated == 5
        assert outer.accumulated == 15

    def test_monotone_within_scope(self):
        with FlopsMeter() as m:
            seen = [m.accumulated]
            for _ in range(4):
                T.tanh(Tensor(np.zeros(3)))
                seen.append(m.accumulated)
        assert seen == sorted(seen)


def fused_attention_inputs(rng, tq=3, tk=5, d=8):
    return tuple(T.constant(rng.standard_normal((2, n, d)))
                 for n in (tq, tk, tk))


def unfused_attention(q, k, v, heads, mask=None, rope=None, gate=None,
                      gated_keys=0):
    """The op sequence ``T.attention`` fuses, written with the unfused ops."""
    b, tq, d = q.shape
    tk, dh = k.shape[1], d // heads
    qh, kh = T.reshape(q, b, tq, heads, dh), T.reshape(k, b, tk, heads, dh)
    if rope is not None:
        base, pos_q, pos_k = rope
        qh, kh = T.rope_apply(qh, pos_q, base), T.rope_apply(kh, pos_k, base)
    qh = T.transpose(qh, (0, 2, 1, 3))
    kh = T.transpose(kh, (0, 2, 3, 1))
    vh = T.transpose(T.reshape(v, b, tk, heads, dh), (0, 2, 1, 3))
    scores = T.mul(T.matmul(qh, kh), 1.0 / np.sqrt(dh))
    if gate is None:
        weights = T.softmax(scores, axis=-1, mask=mask)
    else:
        m = None if mask is None else np.broadcast_to(mask, scores.shape)
        l = gated_keys
        weights = T.mul(T.reshape(gate, 1, heads, 1, 1), T.softmax(
            T.slice_axis(scores, 3, 0, l), axis=-1,
            mask=None if m is None else m[..., :l]))
        if l < tk:
            weights = T.concat([weights, T.softmax(
                T.slice_axis(scores, 3, l, tk), axis=-1,
                mask=None if m is None else m[..., l:])], axis=3)
    out = T.transpose(T.matmul(weights, vh), (0, 2, 1, 3))
    return T.reshape(out, b, tq, d)


class TestFusedOps:
    """Each fused op returns bitwise the values of the op sequence it fuses,
    and its FLOPs equal that sequence's and the closed forms."""

    @staticmethod
    def metered(fn):
        with FlopsMeter() as m:
            out = fn()
        return out.data, m.accumulated

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    def test_linear(self, shape):
        from fusedet.analysis import linear_flops
        rng = np.random.default_rng(3)
        x = T.constant(rng.standard_normal(shape))
        w = T.constant(rng.standard_normal((4, 6)))
        b = T.constant(rng.standard_normal(6))
        got, flops = self.metered(lambda: T.linear(x, w, b))
        want, want_flops = self.metered(lambda: T.add(T.matmul(x, w), b))
        rows = int(np.prod(shape[:-1]))
        assert got.tobytes() == want.tobytes()
        assert flops == want_flops
        assert flops == linear_flops(rows, 4, 6)

    def test_layer_norm(self):
        from fusedet.analysis import _layernorm_flops
        rng = np.random.default_rng(4)
        x = T.constant(rng.standard_normal((2, 3, 8)) * 3 + 1)
        gamma = T.constant(rng.standard_normal(8))
        beta = T.constant(rng.standard_normal(8))

        def unfused():
            mu = T.tmean(x, axis=-1, keepdims=True)
            xc = T.sub(x, mu)
            var = T.tmean(T.mul(xc, xc), axis=-1, keepdims=True)
            rstd = T.power(T.add(var, 1e-5), -0.5)
            return T.add(T.mul(T.mul(xc, rstd), gamma), beta)

        got, flops = self.metered(lambda: T.layer_norm(x, gamma, beta))
        want, want_flops = self.metered(unfused)
        assert got.tobytes() == want.tobytes()
        assert flops == want_flops == _layernorm_flops(6, 8)

    @pytest.mark.parametrize("rope", [False, True])
    def test_attention(self, rope):
        from fusedet.analysis import attention_flops
        rng = np.random.default_rng(5)
        q, k, v = fused_attention_inputs(rng)
        valid = np.ones((2, 5), dtype=bool)
        valid[0, 3:] = False
        mask = T.additive_mask(valid)[:, None, None, :]
        kw = dict(rope_base=50.0, pos_q=np.arange(4, 7), pos_k=np.arange(5)) \
            if rope else {}
        got, flops = self.metered(lambda: T.attention(q, k, v, 2, mask=mask, **kw))
        want, want_flops = self.metered(lambda: unfused_attention(
            q, k, v, 2, mask=mask,
            rope=(50.0, np.arange(4, 7), np.arange(5)) if rope else None))
        assert got.tobytes() == want.tobytes()
        # two batch rows cost twice the per-row closed form
        assert flops == want_flops == 2 * attention_flops(3, 5, 8, 2, rope=rope)

    @pytest.mark.parametrize("gated_keys", [2, 5])
    def test_gated_attention(self, gated_keys):
        from fusedet.analysis import attention_flops
        rng = np.random.default_rng(6)
        q, k, v = fused_attention_inputs(rng)
        gate = T.constant(rng.uniform(-1, 1, 2))
        valid = np.ones((2, 5), dtype=bool)
        valid[1, 0] = False
        mask = T.additive_mask(valid)[:, None, None, :]
        kw = dict(mask=mask, gate=gate, gated_keys=gated_keys)
        got, flops = self.metered(lambda: T.attention(q, k, v, 2, **kw))
        want, want_flops = self.metered(lambda: unfused_attention(q, k, v, 2, **kw))
        assert got.tobytes() == want.tobytes()
        assert flops == want_flops
        assert flops == 2 * attention_flops(3, 5, 8, 2) + 2 * 2 * 3 * gated_keys

    def test_memory_attention_flops(self):
        from fusedet.analysis import memory_attention_flops
        rng = np.random.default_rng(11)
        q, mem = (T.constant(rng.standard_normal((2, n, 8))) for n in (3, 5))
        wk, wv = (T.constant(rng.standard_normal((8, 8))) for _ in "kv")
        bk, bv = (T.constant(rng.standard_normal(8)) for _ in "kv")
        _, flops = self.metered(
            lambda: T.memory_attention(q, mem, wk, bk, wv, bv, 2))
        assert flops == 2 * memory_attention_flops(3, 5, 8, 2)

    def test_gelu(self):
        from scipy import special
        x = np.random.default_rng(9).standard_normal((3, 5)) * 2
        got, flops = self.metered(lambda: T.gelu(T.constant(x)))
        want = x * (0.5 * (1.0 + special.erf(x / np.sqrt(2.0))))
        assert got.tobytes() == want.tobytes()
        assert flops == x.size

    def test_attention_internals_are_detached_copies(self):
        q, k, v = fused_attention_inputs(np.random.default_rng(7))
        with T.attention_tap() as taps:
            out = T.attention(q, k, v, 2)
        (scores, weights), = taps
        assert scores.shape == weights.shape == (2, 2, 3, 5)
        assert scores.base is None and weights.base is None
        assert np.allclose(weights.sum(-1), 1.0)
        again = T.attention(q, k, v, 2)
        assert out.data.tobytes() == again.data.tobytes()

    def test_attention_tap_records_only_while_open(self):
        q, k, v = fused_attention_inputs(np.random.default_rng(8))
        T.attention(q, k, v, 2)
        with T.attention_tap() as taps:
            pass
        T.attention(q, k, v, 2)
        assert taps == []
        with T.attention_tap() as taps:
            T.attention(q, k, v, 2)
        assert len(taps) == 1

    def test_nested_taps_both_record_and_close_inner_first(self):
        """Two empty taps are equal lists; closing the inner one must still
        leave the outer one open."""
        rng = np.random.default_rng(9)
        q, k, v = fused_attention_inputs(rng)
        q4, k4, v4 = fused_attention_inputs(rng, tk=4)
        with T.attention_tap() as outer:
            with T.attention_tap() as inner:
                T.attention(q, k, v, 2)
            T.attention(q4, k4, v4, 2)
        assert len(outer) == 2 and len(inner) == 1
        assert outer[0][0].tobytes() == inner[0][0].tobytes()
        assert outer[1][0].shape == (2, 2, 3, 4)

    @pytest.mark.parametrize("gated_keys", [0, 2])
    def test_tap_leaves_outputs_bitwise_equal(self, gated_keys):
        rng = np.random.default_rng(10)
        q, k, v = fused_attention_inputs(rng)
        kw = {}
        if gated_keys:
            kw = dict(gate=T.constant(rng.standard_normal(2)),
                      gated_keys=gated_keys)
        plain = T.attention(q, k, v, 2, rope_base=100.0, **kw)
        with T.attention_tap():
            tapped = T.attention(q, k, v, 2, rope_base=100.0, **kw)
        assert plain.data.tobytes() == tapped.data.tobytes()

    def test_masked_cross_entropy_matches_log_softmax(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((2, 3, 5))
        cols = np.array([[[True, True, False, False, True]],
                         [[True, True, True, True, True]]])
        labels = np.array([[0, 4, 1], [3, 2, 4]])
        weights = rng.uniform(0.5, 2.0, (2, 3))
        with FlopsMeter() as m:
            got = T.weighted_cross_entropy(T.constant(logits), labels, weights,
                                           mask=T.additive_mask(cols))
        assert m.accumulated == 3 * logits.size + 2 * labels.size
        want = 0.0
        for i in range(2):
            keep = np.flatnonzero(cols[i, 0])
            z = logits[i][:, keep]
            z = z - z.max(axis=-1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
            for r in range(3):
                want -= weights[i, r] * logp[r, list(keep).index(labels[i, r])]
        assert float(got.data) == pytest.approx(want, rel=1e-13)


def fused_op_case(name, rng):
    """(tensor inputs, ndarray inputs, forward) for one fused-op call."""
    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    valid = np.ones((2, 5), dtype=bool)
    valid[1, 0] = False
    mask = T.additive_mask(valid)[:, None, None, :]
    q, k, v, gate = t(2, 3, 8), t(2, 5, 8), t(2, 5, 8), t(2)
    if name.startswith("linear"):
        # "_bias" trains the bias; without it the bias is frozen, as in the
        # vision encoder
        x = t(5, 4) if name.startswith("linear_2d") else t(2, 3, 4)
        w = t(4, 6)
        if name.endswith("bias"):
            b = t(6)
            return [x, w, b], [], lambda: T.linear(x, w, b)
        b = rng.standard_normal(6)
        return [x, w], [b], lambda: T.linear(x, w, T.constant(b))
    if name == "layer_norm":
        x, gamma, beta = t(2, 3, 8), t(8), t(8)
        return [x, gamma, beta], [], lambda: T.layer_norm(x, gamma, beta)
    if name == "gelu":
        x = t(3, 7)
        return [x], [], lambda: T.gelu(x)
    if name == "attention_mask":
        return [q, k, v], [mask], lambda: T.attention(q, k, v, 2, mask=mask)
    if name == "attention_rope":
        pos_q, pos_k = np.arange(5, 8), np.arange(5)
        return [q, k, v], [mask, pos_q, pos_k], lambda: T.attention(
            q, k, v, 2, mask=mask, rope_base=50.0, pos_q=pos_q, pos_k=pos_k)
    if name == "memory_attention":
        wk, bk, wv, bv = t(8, 8), t(8), t(8, 8), t(8)
        return [q, k, wk, bk, wv, bv], [mask], lambda: T.memory_attention(
            q, k, wk, bk, wv, bv, 2, mask=mask)
    if name.startswith("attention_gated"):
        keys = 2 if name.endswith("2") else 5
        return [q, k, v, gate], [mask], lambda: T.attention(
            q, k, v, 2, mask=mask, gate=gate, gated_keys=keys)
    assert name == "weighted_cross_entropy"
    logits = t(2, 3, 5)
    targets = np.array([[0, 4, 1], [3, 2, 4]])
    weights = rng.uniform(0.5, 2.0, (2, 3))
    cols = np.ones((2, 1, 5), dtype=bool)
    cols[0, 0, 2] = False
    ce_mask = T.additive_mask(cols)
    return [logits], [targets, weights, ce_mask], lambda: \
        T.weighted_cross_entropy(logits, targets, weights, ce_mask)


class TestFusedOpsLeaveInputs:
    """A fused op may reuse the arrays it allocates itself, never an input:
    forward and backward leave every input's bytes as they were."""

    @pytest.mark.parametrize("name", [
        "linear_2d_bias", "linear_2d", "linear_3d_bias", "linear_3d",
        "layer_norm", "gelu", "attention_mask", "attention_rope",
        "attention_gated_2", "attention_gated_5", "memory_attention",
        "weighted_cross_entropy"])
    def test_inputs_unchanged(self, name):
        rng = np.random.default_rng(23)
        tensors, arrays, forward = fused_op_case(name, rng)
        before = [a.tobytes() for a in [p.data for p in tensors] + arrays]
        out = forward()
        upstream = T.constant(rng.standard_normal(out.shape))
        T.tsum(T.mul(out, upstream)).backward()
        after = [a.tobytes() for a in [p.data for p in tensors] + arrays]
        assert after == before
        assert all(p.grad is not None for p in tensors)


class TestTapeMechanics:
    def test_constant_gets_no_grad_buffer(self):
        a = T.constant([1.0, 2.0])
        b = Tensor([3.0, 4.0], requires_grad=True)
        loss = T.tsum(T.mul(a, b))
        loss.backward()
        assert a.grad is None
        np.testing.assert_array_equal(b.grad, [1.0, 2.0])

    def test_linear_case_gradient(self):
        rng = np.random.default_rng(16)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = T.constant(rng.standard_normal((4, 2)))
        T.tsum(T.matmul(w, x)).backward()
        np.testing.assert_allclose(w.grad, np.ones((3, 2)) @ x.data.T, atol=1e-12)

    def test_accumulation_across_backwards(self):
        b = Tensor([1.0], requires_grad=True)
        T.tsum(T.mul(b, 2.0)).backward()
        T.tsum(T.mul(b, 3.0)).backward()
        np.testing.assert_array_equal(b.grad, [5.0])

    def test_reused_node_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = T.mul(x, x)
        T.tsum(T.add(y, y)).backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_non_scalar_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            T.backward(T.mul(x, 2.0))

    def test_frozen_graph_builds_no_tape(self):
        a = T.constant(np.ones((3, 3)))
        out = T.matmul(a, a)
        assert out._parents == () and not out.requires_grad

    def test_no_tape_scope_records_nothing_and_closes(self):
        """Inside ``no_tape`` trainable weights give the same values with no
        tape; the scope closes on exit, also when the block raises."""
        rng = np.random.default_rng(17)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = T.constant(rng.standard_normal((2, 3)))
        taped = T.tanh(T.matmul(x, w))
        with T.no_tape():
            with T.no_tape():
                inner = T.tanh(T.matmul(x, w))
            free = T.tanh(T.matmul(x, w))
        assert inner._parents == () and not inner.requires_grad
        assert free._parents == () and not free.requires_grad
        assert free.data.tobytes() == taped.data.tobytes()
        nan = T.constant([1.0])
        nan.data[0] = np.nan
        with pytest.raises(NumericsError):
            with T.no_tape():
                T.tanh(nan)
        assert T.matmul(x, w).requires_grad


class TestNumericsGuard:
    def test_non_finite_construction_rejected(self):
        with pytest.raises(NumericsError):
            Tensor([1.0, np.inf])


class TestFusedOpsGuards:
    """The fused ops keep the per-op guards: a non-finite value is caught at
    the fused op's output and named after it."""

    def test_nan_linear_weight_names_linear(self):
        from fusedet.layers import Linear
        lin = Linear(4, 3, np.random.default_rng(0))
        lin.weight.data[1, 2] = np.nan
        with pytest.raises(NumericsError, match="'linear'"):
            lin(T.constant(np.ones((2, 4))))

    def test_nan_layernorm_weight_names_layer_norm(self):
        from fusedet.layers import LayerNorm
        ln = LayerNorm(4)
        ln.gamma.data[0] = np.nan
        with pytest.raises(NumericsError, match="'layer_norm'"):
            ln(T.constant(np.arange(8.0).reshape(2, 4)))

    def test_nan_attention_input_and_gate_name_attention(self):
        q, k, v = fused_attention_inputs(np.random.default_rng(1))
        v.data[0, 1, 2] = np.nan
        with pytest.raises(NumericsError, match="'attention'"):
            T.attention(q, k, v, 2)
        q, k, v = fused_attention_inputs(np.random.default_rng(1))
        gate = T.constant(np.zeros(2))
        gate.data[1] = np.nan
        with pytest.raises(NumericsError, match="'attention'"):
            T.attention(q, k, v, 2, gate=gate, gated_keys=2)

    def test_fully_masked_attention_row_rejected(self):
        q, k, v = fused_attention_inputs(np.random.default_rng(2))
        valid = np.ones((2, 5), dtype=bool)
        valid[1] = False
        with pytest.raises(DegenerateInputError):
            T.attention(q, k, v, 2, mask=T.additive_mask(valid)[:, None, None, :])
        valid[1] = [False, False, True, True, True]     # prompt segment empty
        with pytest.raises(DegenerateInputError):
            T.attention(q, k, v, 2, mask=T.additive_mask(valid)[:, None, None, :],
                        gate=T.constant(np.ones(2)), gated_keys=2)

    def test_fully_masked_memory_attention_row_rejected(self):
        rng = np.random.default_rng(3)
        q, mem, _ = fused_attention_inputs(rng)
        w, bias = T.constant(np.eye(8)), T.constant(np.zeros(8))
        valid = np.ones((2, 5), dtype=bool)
        valid[0] = False
        with pytest.raises(DegenerateInputError):
            T.memory_attention(q, mem, w, bias, w, bias, 2,
                               mask=T.additive_mask(valid)[:, None, None, :])

    def test_masked_cross_entropy_rejects_dead_rows_and_targets(self):
        x = T.constant(np.zeros((2, 3)))
        cols = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(DegenerateInputError, match="fully masked"):
            T.weighted_cross_entropy(x, [0, 0], [1.0, 1.0], T.additive_mask(cols))
        cols[1] = True
        with pytest.raises(DegenerateInputError, match="target"):
            T.weighted_cross_entropy(x, [1, 0], [1.0, 1.0], T.additive_mask(cols))


class TestBroadcastGrads:
    def test_add_broadcast(self):
        b = Tensor(np.zeros(4), requires_grad=True)
        x = T.constant(np.ones((3, 4)))
        T.tsum(T.add(x, b)).backward()
        np.testing.assert_array_equal(b.grad, np.full(4, 3.0))

    def test_mul_keepdim_broadcast(self):
        s = Tensor(np.ones((3, 1)), requires_grad=True)
        x = T.constant(np.arange(12.0).reshape(3, 4))
        T.tsum(T.mul(s, x)).backward()
        np.testing.assert_array_equal(s.grad, x.data.sum(axis=1, keepdims=True))


class TestMisc:
    def test_item_on_non_scalar(self):
        with pytest.raises(UsageError):
            Tensor(np.ones(2)).item()

    def test_concat_empty(self):
        with pytest.raises(UsageError):
            T.concat([])

    def test_slice_bounds(self):
        with pytest.raises(DimensionError):
            T.slice_axis(Tensor(np.ones((2, 3))), 1, 2, 5)

    def test_index_select_gathers_and_scatters_token_rows(self):
        table = Tensor(np.arange(10.0).reshape(5, 2), requires_grad=True)
        ids = np.array([[0, 3, 0]])
        out = T.index_select(table, 0, ids)
        np.testing.assert_array_equal(out.data[0, 1], [6.0, 7.0])
        T.tsum(out).backward()
        assert table.grad[0, 0] == 2.0 and table.grad[3, 0] == 1.0
        assert table.grad[1].sum() == 0.0
