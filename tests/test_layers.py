"""Building blocks: linear/MLP/layer-norm/attention against numpy oracles,
plus the Module parameter-discovery mechanics."""

import numpy as np
import pytest
from scipy.special import erf

from fusedet import tensor as T
from fusedet.config import ExperimentConfig
from fusedet.layers import (LayerNorm, Linear, MLP, MemoryAttention, Module,
                            MultiHeadAttention, TransformerBlock,
                            cross_entropy)
from fusedet.tensor import Tensor, UsageError
from fusedet.training import build_adapter, restore, snapshot
from fusedet.verify import CASES, GRADCHECK_TOL, check_case


def check_catalogue(name, seeds=20):
    """Finite-difference check of one ``verify.CASES`` entry over seeds."""
    build = dict(CASES)[name]
    for seed in range(seeds):
        err = check_case(build, seed)
        assert err < GRADCHECK_TOL, f"{name} seed {seed}: {err}"


def rope_rotate(x, positions, base):
    """Independent RoPE oracle: per even/odd pair, a plain 2-d rotation."""
    t, dh = x.shape[-2], x.shape[-1]
    out = np.empty_like(x)
    for p in range(t):
        for i in range(dh // 2):
            theta = positions[p] / base ** (2 * i / dh)
            c, s = np.cos(theta), np.sin(theta)
            a, b = x[..., p, 2 * i], x[..., p, 2 * i + 1]
            out[..., p, 2 * i] = a * c - b * s
            out[..., p, 2 * i + 1] = a * s + b * c
    return out


def mha_oracle(x_q, x_kv, m, mask=None):
    """Loop-free numpy re-implementation of multi-head attention."""
    b, tq, d = x_q.shape
    tk = x_kv.shape[1]
    h, dh = m.heads, d // m.heads

    def lin(layer, x):
        return x @ layer.weight.data + layer.bias.data

    q = lin(m.wq, x_q).reshape(b, tq, h, dh)
    k = lin(m.wk, x_kv).reshape(b, tk, h, dh)
    v = lin(m.wv, x_kv).reshape(b, tk, h, dh)
    if m.rope_base is not None:
        q = rope_rotate(q.transpose(0, 2, 1, 3), np.arange(tq), m.rope_base).transpose(0, 2, 1, 3)
        k = rope_rotate(k.transpose(0, 2, 1, 3), np.arange(tk), m.rope_base).transpose(0, 2, 1, 3)
    q, k, v = (a.transpose(0, 2, 1, 3) for a in (q, k, v))
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(-1, keepdims=True))
    w = e / e.sum(-1, keepdims=True)
    out = (w @ v).transpose(0, 2, 1, 3).reshape(b, tq, d)
    return lin(m.wo, out)


class TestLinear:
    def test_matches_matmul(self):
        rng = np.random.default_rng(0)
        lin = Linear(5, 3, rng)
        x = rng.standard_normal((4, 5))
        out = lin(T.constant(x))
        assert np.allclose(out.data, x @ lin.weight.data + lin.bias.data)

    def test_zero_makes_exact_zero_output(self):
        lin = Linear(6, 6, np.random.default_rng(1))
        lin.zero_()
        x = np.random.default_rng(2).standard_normal((3, 6))
        assert np.all(lin(T.constant(x)).data == 0.0)

    def test_init_scale(self):
        lin = Linear(4096, 8, np.random.default_rng(3))
        assert lin.weight.data.std() == pytest.approx(1 / 64, rel=0.1)
        assert np.all(lin.bias.data == 0.0)


class TestMLP:
    def test_composition(self):
        rng = np.random.default_rng(4)
        mlp = MLP(4, 8, 3, rng)
        x = rng.standard_normal((5, 4))
        h = x @ mlp.fc1.weight.data + mlp.fc1.bias.data
        h = h * 0.5 * (1 + erf(h / np.sqrt(2)))
        want = h @ mlp.fc2.weight.data + mlp.fc2.bias.data
        assert np.allclose(mlp(T.constant(x)).data, want)


class TestLayerNorm:
    def test_formula(self):
        rng = np.random.default_rng(5)
        ln = LayerNorm(8)
        ln.gamma.data = rng.standard_normal(8)
        ln.beta.data = rng.standard_normal(8)
        x = rng.standard_normal((3, 8)) * 4 + 2
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        want = (x - mu) / np.sqrt(var + 1e-5) * ln.gamma.data + ln.beta.data
        assert np.allclose(ln(T.constant(x)).data, want)

    def test_normalizes_rows(self):
        rng = np.random.default_rng(6)
        out = LayerNorm(512)(T.constant(rng.standard_normal((4, 512)) * 9 + 3))
        assert np.allclose(out.data.mean(-1), 0.0, atol=1e-12)
        assert np.allclose(out.data.std(-1), 1.0, atol=1e-3)

    def test_gradient(self):
        check_catalogue("layer/layernorm")


class TestMultiHeadAttention:
    @pytest.mark.parametrize("rope", [None, 10000.0])
    def test_against_oracle(self, rope):
        rng = np.random.default_rng(8)
        m = MultiHeadAttention(8, 2, rng, rope_base=rope)
        x = rng.standard_normal((2, 5, 8))
        got = m(T.constant(x), T.constant(x))
        assert np.allclose(got.data, mha_oracle(x, x, m), atol=1e-10)

    def test_cross_attention_widths(self):
        rng = np.random.default_rng(9)
        m = MultiHeadAttention(8, 2, rng)
        xq = rng.standard_normal((1, 3, 8))
        xkv = rng.standard_normal((1, 7, 8))
        got = m(T.constant(xq), T.constant(xkv))
        assert got.shape == (1, 3, 8)
        assert np.allclose(got.data, mha_oracle(xq, xkv, m), atol=1e-10)

    def test_masked_keys_are_ignored(self):
        rng = np.random.default_rng(10)
        m = MultiHeadAttention(8, 2, rng)
        xq = rng.standard_normal((1, 3, 8))
        xkv = rng.standard_normal((1, 4, 8))
        valid = np.array([[True, True, False, True]])
        mask = T.additive_mask(valid)[:, None, None, :]
        base = m(T.constant(xq), T.constant(xkv), mask=mask).data
        xkv2 = xkv.copy()
        xkv2[0, 2] = 999.0  # rewrite the masked key/value
        again = m(T.constant(xq), T.constant(xkv2), mask=mask).data
        assert np.allclose(base, again)

    def test_rope_gives_relative_attention(self):
        """Shifting all positions by a constant leaves the scores of the
        attention core unchanged (the module runs it at 0..T-1)."""
        rng = np.random.default_rng(11)
        q, k, v = (T.constant(rng.standard_normal((1, 6, 8))) for _ in "qkv")
        with T.attention_tap() as taps:
            for shift in (0, 13):
                pos = np.arange(6) + shift
                T.attention(q, k, v, 2, rope_base=10000.0, pos_q=pos,
                            pos_k=pos)
        (s0, _), (s1, _) = taps
        assert np.allclose(s0, s1, atol=1e-10)

    def test_scores_shape_and_detachment(self):
        rng = np.random.default_rng(12)
        m = MultiHeadAttention(8, 4, rng)
        x = rng.standard_normal((2, 5, 8))
        with T.attention_tap() as taps:
            m(T.constant(x), T.constant(x))
        (scores, _), = taps
        assert scores.shape == (2, 4, 5, 5)
        assert isinstance(scores, np.ndarray)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(8, 3, np.random.default_rng(0))


class TestMemoryAttention:
    """``MemoryAttention`` is ``MultiHeadAttention`` with ``wk`` and ``wv``
    absorbed into the queries: same parameters, same values and gradients
    up to rounding."""

    @staticmethod
    def twins(d=64, heads=4):
        """The two modules over the same drawn weights and biases."""
        plain = MultiHeadAttention(d, heads, np.random.default_rng(0))
        fused = MemoryAttention(d, heads, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for p, twin in zip(plain.parameters(), fused.parameters()):
            if p.ndim == 1:
                p.data = rng.standard_normal(p.shape) * 0.3
                twin.data = p.data.copy()
        return plain, fused

    # the detector's vision and text memories at the default widths
    @pytest.mark.parametrize("t_k", [64, 20])
    @pytest.mark.parametrize("masked", [False, True])
    def test_values_and_gradients_match_mha(self, t_k, masked):
        plain, fused = self.twins()
        rng = np.random.default_rng(t_k + masked)
        xq = rng.standard_normal((3, 4, 64))
        mem = rng.standard_normal((3, t_k, 64))
        mask = None
        if masked:
            valid = rng.uniform(size=(3, t_k)) > 0.4
            valid[:, 0] = True
            mask = T.additive_mask(valid)[:, None, None, :]
        upstream = T.constant(rng.standard_normal((3, 4, 64)))
        runs = []
        for m in (plain, fused):
            q, k = Tensor(xq, requires_grad=True), Tensor(mem, requires_grad=True)
            out = m(q, k, mask=mask)
            T.tsum(T.mul(out, upstream)).backward()
            runs.append({"out": out.data, "x_q": q.grad, "mem": k.grad,
                         **{n: p.grad for n, p in m.named_parameters().items()}})
        want, got = runs
        assert sorted(got) == sorted(want)
        scale = max(np.abs(g).max() for g in want.values())
        for name in want:
            # wk.bias shifts every key of a row alike, which no softmax
            # weight sees: its gradient is zero up to rounding in both
            tol = 1e-13 * scale if name == "wk.bias" else \
                1e-12 * np.abs(want[name]).max()
            assert np.abs(got[name] - want[name]).max() <= tol, name

    def test_taps_record_the_scores_mha_records(self):
        plain, fused = self.twins(8, 2)
        rng = np.random.default_rng(2)
        xq, mem = rng.standard_normal((2, 3, 8)), rng.standard_normal((2, 7, 8))
        with T.attention_tap() as taps:
            for m in (plain, fused):
                m(T.constant(xq), T.constant(mem))
        (s_plain, w_plain), (s_fused, w_fused) = taps
        assert s_fused.shape == w_fused.shape == (2, 2, 3, 7)
        assert np.allclose(s_fused, s_plain, rtol=0, atol=1e-13)
        assert np.allclose(w_fused, w_plain, rtol=0, atol=1e-14)


class TestTransformerBlock:
    def test_zeroed_outputs_make_identity(self):
        """Residual structure: with the attention output map and the MLP's
        second layer zeroed, the block is exactly the identity."""
        rng = np.random.default_rng(13)
        blk = TransformerBlock(8, 2, rng)
        blk.attn.wo.zero_()
        blk.mlp.fc2.zero_()
        x = rng.standard_normal((2, 5, 8))
        assert np.array_equal(blk(T.constant(x)).data, x)

    def test_causal_mask_blocks_future(self):
        rng = np.random.default_rng(14)
        blk = TransformerBlock(8, 2, rng)
        mask = T.causal_mask(6)[None, None]
        x = rng.standard_normal((1, 6, 8))
        base = blk(T.constant(x), mask=mask).data
        x2 = x.copy()
        x2[0, 4] += 3.0  # a later position
        again = blk(T.constant(x2), mask=mask).data
        assert np.allclose(base[0, :4], again[0, :4])
        assert not np.allclose(base[0, 4:], again[0, 4:])

    def test_gradient_through_block(self):
        check_catalogue("layer/transformer-block")


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = T.constant(np.zeros((5, 11)))
        assert float(cross_entropy(logits, np.arange(5)).data) == \
            pytest.approx(np.log(11), abs=1e-12)

    def test_matches_manual(self):
        rng = np.random.default_rng(16)
        z = rng.standard_normal((4, 7))
        t = np.array([1, 0, 6, 3])
        lse = np.log(np.exp(z).sum(-1))
        want = np.mean(lse - z[np.arange(4), t])
        got = cross_entropy(T.constant(z), t)
        assert float(got.data) == pytest.approx(want, abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        z = np.full((2, 4), -50.0)
        z[np.arange(2), [1, 2]] = 50.0
        assert float(cross_entropy(T.constant(z), np.array([1, 2])).data) < 1e-12

    def test_bad_target_shape(self):
        with pytest.raises(ValueError):
            cross_entropy(T.constant(np.zeros((3, 4))), np.zeros((3, 1)))


class TestModuleMechanics:
    def build(self):
        rng = np.random.default_rng(17)

        class Inner(Module):
            def __init__(self):
                self.lin = Linear(3, 3, rng)

        class Outer(Module):
            def __init__(self):
                self.inner = Inner()
                self.stack = [Linear(2, 2, rng), Linear(2, 2, rng)]
                self.gain = Tensor(np.ones(4), requires_grad=True)

        return Outer()

    def test_dotted_names(self):
        names = set(self.build().named_parameters())
        assert names == {"inner.lin.weight", "inner.lin.bias",
                         "stack.0.weight", "stack.0.bias",
                         "stack.1.weight", "stack.1.bias", "gain"}

    def test_param_count(self):
        assert self.build().param_count() == (9 + 3) + 2 * (4 + 2) + 4

    def test_set_trainable_blocks_gradients(self):
        m = self.build()
        m.set_trainable(False)
        out = m.inner.lin(T.constant(np.ones((1, 3))))
        T.tsum(out).backward()
        assert all(p.grad is None for p in m.parameters())

    def test_state_round_trip(self):
        a, b = self.build(), self.build()
        for p in a.parameters():
            p.data = p.data + 1.5
        restore(b, snapshot(a))
        for (ka, pa), (kb, pb) in zip(sorted(a.named_parameters().items()),
                                      sorted(b.named_parameters().items())):
            assert ka == kb and np.array_equal(pa.data, pb.data)

    def test_load_rejects_bad_shape(self):
        m = self.build()
        state = snapshot(m)
        state["gain"] = np.ones(5)
        with pytest.raises(UsageError):
            restore(m, state)

    def test_load_rejects_missing_key(self):
        m = self.build()
        state = snapshot(m)
        del state["gain"]
        with pytest.raises(UsageError):
            restore(m, state)

    def test_load_rejects_unexpected_key(self):
        """Names the module lacks are refused, not dropped: an Arch II
        adapter's ``text_fusion.*`` arrays do not fit an Arch IV one."""
        m = self.build()
        state = snapshot(m)
        state["extra"] = np.ones(2)
        with pytest.raises(UsageError, match="extra"):
            restore(m, state)
        cfg = ExperimentConfig()
        arch_ii = snapshot(build_adapter(cfg, arch="II"))
        with pytest.raises(UsageError, match="text_fusion"):
            restore(build_adapter(cfg, arch="IV"), arch_ii)
