"""The fusion adapter: exact zero-init identity, gate algebra against a
brute-force softmax oracle, architecture surgery, injection locality,
gradient escape, and the closed-form parameter/FLOP accounting of
``analysis``."""

import numpy as np
import pytest

from fusedet import analysis
from fusedet import training as tr
from fusedet import tensor as T
from fusedet.adapter import (ARCHS, AdapterConfig, FusionHook, FusionState,
                             fuse_vision, make_prompts, zero_init_cross_attn)
from fusedet.analysis import adapter_param_flops
from fusedet.detector import DetectorConfig
from fusedet.mllm import MllmConfig
from fusedet.tensor import ConfigurationError, DimensionError, FlopsMeter
from fusedet.verify import CASES, GRADCHECK_TOL, check_case

BUILDS = dict(CASES)
# the host models' sizes: widths 64, a 2x2 aligned LM grid, an LM of 4 layers
# and a detector of 6
MCFG, DCFG = MllmConfig(shuffle_r=4), DetectorConfig()
D = 64


def make_state(arch="IV", seed=0, mcfg=MCFG, **kw):
    return FusionState(AdapterConfig(arch=arch, **kw), mcfg, DCFG,
                       np.random.default_rng(seed))


def randomize(state, seed=99):
    """Push every adapter weight away from the zero-init point."""
    rng = np.random.default_rng(seed)
    for p in state.parameters():
        p.data = rng.standard_normal(p.data.shape) * 0.3


def adapter_inputs(state, rng, b=2, t=4, text=6):
    l_v = state.grid[0] * state.grid[1]
    e_v_l = T.constant(rng.standard_normal((b, l_v, D)))
    e_t = T.constant(rng.standard_normal((b, text, D)))
    e_v_d = T.constant(rng.standard_normal((b, t, D)))
    e_d_prev = T.constant(rng.standard_normal((b, t, D)))
    return e_v_l, e_t, e_v_d, e_d_prev


def prompt_len(state):
    """The number of prompts ``state`` makes from one LM grid."""
    e_v_l, e_t, _, _ = adapter_inputs(state, np.random.default_rng(0), b=1)
    return make_prompts(e_v_l, e_t, state.cfg, state).shape[1]


def segment_softmax_oracle(scores, gate, l, mask=None):
    """Brute-force reference for the two-segment attention weights; the self
    segment is empty when ``scores`` has only the ``l`` prompt columns."""
    s = scores.copy()
    if mask is not None:
        s = s + mask
    out = np.empty_like(s)
    for seg, g in ((slice(0, l), np.tanh(gate)), (slice(l, None), None)):
        block = s[..., seg]
        if block.shape[-1] == 0:
            continue
        e = np.exp(block - block.max(-1, keepdims=True))
        w = e / e.sum(-1, keepdims=True)
        if g is not None:
            w = w * g[None, :, None, None]
        out[..., seg] = w
    return out


class TestZeroInitIdentity:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_injection_is_exact_identity(self, arch):
        """A freshly built adapter must be a bit-exact no-op from either
        entry: the preset, not the entry, picks the self segment."""
        state = make_state(arch)
        rng = np.random.default_rng(1)
        e_v_l, e_t, e_v_d, e_d_prev = adapter_inputs(state, rng)
        a_p = make_prompts(e_v_l, e_t, state.cfg, state)
        for entry in (zero_init_cross_attn, fuse_vision):
            for x in (e_v_d, e_d_prev):
                assert np.array_equal(entry(x, a_p, state).data, x.data), \
                    entry.__name__

    def test_construction_invariants(self):
        """Gates and the output bias start at zero; the output weight is zero
        when injecting and keeps its random draw on the vision path, which
        moves no other draw (I and II share every draw up to the conv)."""
        for arch in ARCHS:
            state = make_state(arch)
            assert np.all(state.gate.data == 0.0)
            assert np.all(state.out_proj.bias.data == 0.0)
            zero_weight = np.all(state.out_proj.weight.data == 0.0)
            assert zero_weight == (not state.cfg.fuses_vision)
        vision, inject = tr.snapshot(make_state("I")), tr.snapshot(make_state("II"))
        for name, arr in vision.items():
            if name.startswith(("wq.", "wk.", "wv.", "text_fusion.")):
                assert np.array_equal(arr, inject[name]), name

    def test_identity_breaks_once_weights_move(self):
        state = make_state("IV")
        randomize(state)
        rng = np.random.default_rng(2)
        e_v_l, _, _, e_d_prev = adapter_inputs(state, rng)
        a_p = make_prompts(e_v_l, None, state.cfg, state)
        out = zero_init_cross_attn(e_d_prev, a_p, state)
        assert not np.allclose(out.data, e_d_prev.data)


def tapped(run):
    """(scaled scores, weights) of the one attention call ``run()`` makes."""
    with T.attention_tap() as taps:
        run()
    (scores, weights), = taps
    return scores, weights


class TestGateAlgebra:
    def build_internals(self, gate_values, seed=3):
        state = make_state("IV")
        randomize(state, seed)
        state.gate.data = np.asarray(gate_values, dtype=float)
        rng = np.random.default_rng(seed + 1)
        e_v_l, _, _, e_d_prev = adapter_inputs(state, rng, b=2, t=3)
        a_p = make_prompts(e_v_l, None, state.cfg, state)
        return state, *tapped(lambda: zero_init_cross_attn(e_d_prev, a_p, state))

    def test_weights_match_bruteforce(self):
        gate = [0.7, -0.4, 0.0, 2.0]
        state, scores, weights = self.build_internals(gate)
        want = segment_softmax_oracle(scores, np.array(gate),
                                      prompt_len(state))
        assert np.allclose(weights, want, atol=1e-12)

    def test_segment_masses(self):
        state, _, w = self.build_internals([0.3, 1.2, -0.8, 0.5])
        l = prompt_len(state)
        prompt_mass = w[..., :l].sum(-1)       # [B, h, T]
        self_mass = w[..., l:].sum(-1)
        g = np.tanh(state.gate.data)
        assert np.allclose(prompt_mass, g[None, :, None], atol=1e-12)
        assert np.allclose(self_mass, 1.0, atol=1e-12)

    def vision_internals(self, gate_values, seed=3):
        state = make_state("I")
        randomize(state, seed)
        state.gate.data = np.asarray(gate_values, dtype=float)
        rng = np.random.default_rng(seed + 1)
        e_v_l, e_t, e_v_d, _ = adapter_inputs(state, rng, b=2, t=3)
        a_p = make_prompts(e_v_l, e_t, state.cfg, state)
        return state, *tapped(lambda: fuse_vision(e_v_d, a_p, state))

    def test_vision_path_weights_match_bruteforce(self):
        """Arch I runs the same kernel with no self segment: its weights are
        the prompt segment alone."""
        gate = [0.7, -0.4, 0.0, 2.0]
        state, scores, weights = self.vision_internals(gate)
        l = prompt_len(state)
        assert weights.shape == (2, 4, 3, l)
        want = segment_softmax_oracle(scores, np.array(gate), l)
        assert np.allclose(weights, want, atol=1e-12)

    def test_vision_path_mass_is_the_gate(self):
        state, _, weights = self.vision_internals([0.3, 1.2, -0.8, 0.5])
        g = np.tanh(state.gate.data)
        assert np.allclose(weights.sum(-1), g[None, :, None], atol=1e-12)

    def test_zero_gate_heads_pass_nothing(self):
        state, _, weights = self.build_internals([0.0, 0.0, 1.0, 1.0])
        l = prompt_len(state)
        assert np.all(weights[:, :2, :, :l] == 0.0)

    def test_masked_prompt_columns_renormalize(self):
        """Masking with -inf zeroes the blocked column and renormalizes the
        surviving prompt columns to the same tanh(g) mass: the gated
        attention core the adapter runs, on 16 prompt and 3 self keys."""
        rng = np.random.default_rng(5)
        l, t, d = 16, 3, 64
        q = T.constant(rng.standard_normal((1, t, d)))
        k, v = (T.constant(rng.standard_normal((1, l + t, d))) for _ in "kv")
        gate = np.array([0.9, 0.2, -0.3, 1.5])
        mask = np.zeros((1, 1, t, l + t))
        mask[..., 2] = -np.inf                 # block prompt column 2
        scores, w = tapped(lambda: T.attention(
            q, k, v, 4, mask=mask, rope_base=10000.0,
            pos_q=np.arange(l, l + t), pos_k=np.arange(l + t),
            gate=T.tanh(T.constant(gate)), gated_keys=l))
        assert np.all(w[..., 2] == 0.0)
        assert np.allclose(w[..., :l].sum(-1),
                           np.tanh(gate)[None, :, None], atol=1e-12)
        want = segment_softmax_oracle(scores, gate, l, mask)
        assert np.allclose(w, want, atol=1e-12)


class TestArchitectureRelations:
    def copy_shared(self, src, dst):
        for name in ("wq", "wk", "wv", "out_proj"):
            getattr(dst, name).weight.data = getattr(src, name).weight.data.copy()
            getattr(dst, name).bias.data = getattr(src, name).bias.data.copy()
        dst.gate.data = src.gate.data.copy()
        dst.conv_kernel.data = src.conv_kernel.data.copy()
        dst.conv_bias.data = src.conv_bias.data.copy()

    def test_surgery_reduces_text_fused_to_text_free(self):
        """Zeroing the text-fusion output map makes the text-conditioned
        variant produce exactly the text-free prompts."""
        st2 = make_state("II", seed=6)
        randomize(st2, 7)
        st4 = make_state("IV", seed=8)
        self.copy_shared(st2, st4)
        st2.text_fusion.wo.zero_()
        rng = np.random.default_rng(9)
        e_v_l, e_t, _, e_d_prev = adapter_inputs(st2, rng)
        p2 = make_prompts(e_v_l, e_t, st2.cfg, st2)
        p4 = make_prompts(e_v_l, None, st4.cfg, st4)
        assert np.array_equal(p2.data, p4.data)
        o2 = zero_init_cross_attn(e_d_prev, p2, st2)
        o4 = zero_init_cross_attn(e_d_prev, p4, st4)
        assert np.array_equal(o2.data, o4.data)

    def test_deep_and_shallow_share_weights(self):
        """The deep-injection and shallow-injection variants differ only in
        the target layer, never in parameter shapes."""
        st2 = make_state("II", seed=10, l_d=6)
        st3 = make_state("III", seed=10, l_d=1)
        n2, n3 = st2.named_parameters(), st3.named_parameters()
        assert set(n2) == set(n3)
        for k in n2:
            assert n2[k].shape == n3[k].shape

    def test_text_free_prompts_ignore_text(self):
        state = make_state("IV", seed=11)
        randomize(state, 12)
        rng = np.random.default_rng(13)
        e_v_l, e_t, _, _ = adapter_inputs(state, rng)
        a = make_prompts(e_v_l, None, state.cfg, state)
        b = make_prompts(e_v_l, e_t, state.cfg, state)
        assert np.array_equal(a.data, b.data)


class TestHookLocality:
    def decoder_like_stack(self, hook, depth=6, b=2, t=4, d=64, seed=14):
        """Minimal stand-in for a decoder: the hook fires before its layer,
        every layer applies a fixed nonlinearity."""
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(depth)]
        x = T.constant(rng.standard_normal((b, t, d)))
        states = []
        for i in range(1, depth + 1):
            if hook is not None and hook.l_d == i:
                x = hook.inject(x)
            x = T.tanh(T.matmul(x, T.constant(mats[i - 1])))
            states.append(x.data.copy())
        return states

    def hook_for(self, arch, l_d, seed=15):
        state = make_state(arch, seed=seed, l_d=l_d)
        randomize(state, seed + 1)
        rng = np.random.default_rng(seed + 2)
        l_v = state.grid[0] * state.grid[1]
        e_v_l = T.constant(rng.standard_normal((2, l_v, D)))
        return FusionHook(state, e_v_l)

    def test_late_injection_leaves_early_layers_untouched(self):
        base = self.decoder_like_stack(None)
        fused = self.decoder_like_stack(self.hook_for("IV", l_d=6))
        for i in range(5):
            assert np.array_equal(base[i], fused[i])
        assert not np.allclose(base[5], fused[5])

    def test_early_injection_touches_everything(self):
        base = self.decoder_like_stack(None)
        fused = self.decoder_like_stack(self.hook_for("IV", l_d=1))
        for i in range(6):
            assert not np.allclose(base[i], fused[i])

    def test_arch_one_hook_never_injects(self):
        state = make_state("I", seed=16)
        rng = np.random.default_rng(17)
        l_v = state.grid[0] * state.grid[1]
        e_v_l = T.constant(rng.standard_normal((1, l_v, D)))
        e_t = T.constant(rng.standard_normal((1, 5, D)))
        e_v_d = T.constant(rng.standard_normal((1, 7, D)))
        q = T.constant(rng.standard_normal((1, 4, D)))
        hook = FusionHook(state, e_v_l, e_t)
        assert hook.l_d == 1
        q_out, e_out = hook(q, e_v_d)
        assert q_out is q
        assert e_out.shape == e_v_d.shape

    def test_non_vision_hooks_pass_vision_through(self):
        hook = self.hook_for("IV", l_d=6)
        rng = np.random.default_rng(18)
        e = T.constant(rng.standard_normal((2, 7, 64)))
        q = T.constant(rng.standard_normal((2, 4, 64)))
        assert hook(q, e)[1] is e


class TestGradientEscape:
    def loss_and_grads(self, state, seed=19):
        for p in state.parameters():
            p.grad = None
        rng = np.random.default_rng(seed)
        e_v_l, _, _, e_d_prev = adapter_inputs(state, rng)
        a_p = make_prompts(e_v_l, None, state.cfg, state)
        out = zero_init_cross_attn(e_d_prev, a_p, state)
        target = T.constant(rng.standard_normal(out.shape))
        diff = T.sub(out, target)
        loss = T.tsum(T.mul(diff, diff))
        loss.backward()
        return loss

    def test_gate_gradient_vanishes_at_the_origin_but_escapes(self):
        """At the exact zero point the gate gets no gradient (its path runs
        through the zero output map); one optimizer step on the output map
        restores gradient flow to the gate."""
        state = make_state("IV", seed=20)
        self.loss_and_grads(state)
        assert np.all(state.gate.grad == 0.0)
        assert state.out_proj.weight.grad is not None
        assert np.any(state.out_proj.weight.grad != 0.0)
        # one SGD step on the output projection only
        state.out_proj.weight.data -= 0.05 * state.out_proj.weight.grad
        self.loss_and_grads(state)
        assert np.any(state.gate.grad != 0.0)

    def test_all_parameters_reachable_after_escape(self):
        state = make_state("IV", seed=21)
        randomize(state, 22)
        self.loss_and_grads(state)
        for name, p in state.named_parameters().items():
            assert p.grad is not None and np.any(p.grad != 0.0), name

    def test_finite_difference_through_adapter(self):
        assert check_case(BUILDS["composed/adapter-injection"], 0) \
            < GRADCHECK_TOL

    def test_finite_difference_vision_path(self):
        assert check_case(BUILDS["composed/adapter-vision"], 0) < GRADCHECK_TOL


class TestConfigValidation:
    def test_prompt_arithmetic(self):
        """The prompt grid follows the LM's aligned grid."""
        assert prompt_len(make_state("IV")) == 1               # 2x2 -> 1x1
        assert prompt_len(make_state("IV", mcfg=MllmConfig(shuffle_r=1))) == 16
        assert prompt_len(make_state("I")) == 4                # full grid

    def test_rejections(self):
        """The adapter's choices are checked against the host models' depths
        when it is built: LM depth 4, detector depth 6.  Its heads split
        detector width, so the detector's own config checks that split."""
        with pytest.raises(ConfigurationError, match="'V' not one of"):
            AdapterConfig(arch="V")
        with pytest.raises(ConfigurationError,
                           match=r"^l_lm 9 outside \[0, 4\]$"):
            make_state(l_lm=9)
        with pytest.raises(ConfigurationError,
                           match=r"^l_d 0 outside \[1, 6\]$"):
            make_state(l_d=0)
        with pytest.raises(ConfigurationError,
                           match=r"^l_d 7 outside \[1, 6\]$"):
            make_state(l_d=7)
        with pytest.raises(ConfigurationError,
                           match="^d 64 not divisible by heads 5$"):
            DetectorConfig(heads=5)

    def test_prompt_grid_is_never_empty(self):
        """With ``CONV_K`` = 3 and ``CONV_PAD`` = 1 the conv keeps
        (side - 1) // stride + 1 >= 1 rows of any aligned grid, so no
        setting can leave the adapter without prompts."""
        for stride in range(1, 5):
            acfg = AdapterConfig(conv_stride=stride)
            for side in range(1, 9):
                mcfg = MllmConfig(canvas=side, patch=1, shuffle_r=1)
                rows = (side - 1) // stride + 1
                assert acfg.prompt_grid(mcfg) == (rows, rows), (stride, side)
                assert rows >= 1

    def test_first_layer_preset_pins_l_d(self):
        """Arch III injects before decoder layer 1; any other layer is a
        contradiction, not a silent fallback to the last layer.  An unset
        layer resolves when the adapter attaches: Arch III's to 1, Arch
        II's to the detector's last."""
        assert AdapterConfig(arch="III").l_d is None
        assert AdapterConfig(arch="III").resolve(MCFG, DCFG).l_d == 1
        assert make_state("II").cfg.l_d == DCFG.depth
        state = make_state("III", seed=39)
        rng = np.random.default_rng(40)
        e_v_l, e_t, _, _ = adapter_inputs(state, rng)
        assert FusionHook(state, e_v_l, e_t).l_d == 1
        with pytest.raises(ConfigurationError, match="III.*l_d=6"):
            AdapterConfig(arch="III", l_d=6)

    def test_vision_preset_pins_l_d(self):
        """Arch I gates the vision features, before decoder layer 1, so its
        l_d is pinned to 1 as Arch III's is: no other value selects
        anything."""
        assert AdapterConfig(arch="I").resolve(MCFG, DCFG).l_d == 1
        assert AdapterConfig(arch="I", l_d=1).l_d == 1
        for l_d in (2, 6):
            with pytest.raises(ConfigurationError, match=f"arch I .*l_d={l_d}"):
                AdapterConfig(arch="I", l_d=l_d)

    def test_make_prompts_input_checks(self):
        state = make_state("II", seed=29)
        rng = np.random.default_rng(30)
        e_v_l, e_t, _, _ = adapter_inputs(state, rng)
        with pytest.raises(ConfigurationError):
            make_prompts(e_v_l, None, state.cfg, state)  # text required
        bad = T.constant(rng.standard_normal((2, 5, D)))
        with pytest.raises(DimensionError):
            make_prompts(bad, e_t, state.cfg, state)     # grid mismatch

    def test_injection_input_checks(self):
        state = make_state("IV", seed=32)
        rng = np.random.default_rng(33)
        _, _, _, e_d_prev = adapter_inputs(state, rng)
        empty = T.constant(np.zeros((2, 0, 64)))
        with pytest.raises(DimensionError, match="gated segment of 0 keys"):
            zero_init_cross_attn(e_d_prev, empty, state)
        narrow = T.constant(np.zeros((2, 1, 32)))
        with pytest.raises(DimensionError):
            zero_init_cross_attn(e_d_prev, narrow, state)


class TestAccounting:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_param_count_matches_analytic(self, arch):
        state = make_state(arch)
        params, _ = adapter_param_flops(state.cfg, MCFG, DCFG, 4)
        assert state.param_count() == params

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("b,t,text", [(1, 4, 8), (3, 5, 11)])
    def test_flops_match_metered_forward(self, arch, b, t, text,
                                         monkeypatch):
        """The per-scene closed form, over ``text`` LM query tokens, equals
        an op-by-op metered pass: ``b`` scenes cost ``b`` times one scene,
        less the gate's tanh, which runs once per forward."""
        monkeypatch.setattr(analysis, "REPORT_LM_TEXT", text)
        state = make_state(arch, seed=34)
        randomize(state, 35)
        cfg = state.cfg
        rng = np.random.default_rng(36)
        l_v = state.grid[0] * state.grid[1]
        e_v_l = T.constant(rng.standard_normal((b, l_v, D)))
        e_t = T.constant(rng.standard_normal((b, text, D)))
        e_v_d = T.constant(rng.standard_normal((b, t, D)))
        e_d_prev = T.constant(rng.standard_normal((b, t, D)))
        with FlopsMeter() as meter:
            needs_text = arch in ("I", "II", "III")
            a_p = make_prompts(e_v_l, e_t if needs_text else None, cfg, state)
            if arch == "I":
                fuse_vision(e_v_d, a_p, state)
            else:
                zero_init_cross_attn(e_d_prev, a_p, state)
        _, analytic = adapter_param_flops(cfg, MCFG, DCFG, t)
        assert meter.accumulated == b * analytic - (b - 1) * DCFG.heads

    def test_head_counts_come_from_the_models(self):
        """The gate and the gated kernel run one head per detector head,
        text fusion runs the LM's heads, and the closed form prices both:
        here an LM of 2 heads and a detector of 8."""
        mcfg, dcfg = MllmConfig(shuffle_r=4, heads=2), DetectorConfig(heads=8)
        state = FusionState(AdapterConfig(arch="II"), mcfg, dcfg,
                            np.random.default_rng(40))
        randomize(state, 41)
        e_v_l, e_t, _, e_d_prev = adapter_inputs(
            state, np.random.default_rng(42), b=1,
            text=analysis.REPORT_LM_TEXT)
        with FlopsMeter() as meter, T.attention_tap() as taps:
            zero_init_cross_attn(
                e_d_prev, make_prompts(e_v_l, e_t, state.cfg, state), state)
        assert state.gate.shape == (8,)
        assert [w.shape[1] for _, w in taps] == [2, 8]
        params, analytic = adapter_param_flops(state.cfg, mcfg, dcfg, 4)
        assert (state.param_count(), meter.accumulated) == (params, analytic)

    def test_larger_grid_flops(self):
        mcfg = MllmConfig(shuffle_r=1)                  # 8x8 aligned grid
        state = make_state("IV", seed=37, mcfg=mcfg)
        rng = np.random.default_rng(38)
        e_v_l = T.constant(rng.standard_normal((1, 64, D)))
        e_d_prev = T.constant(rng.standard_normal((1, 4, D)))
        with FlopsMeter() as meter:
            a_p = make_prompts(e_v_l, None, state.cfg, state)
            zero_init_cross_attn(e_d_prev, a_p, state)
        assert a_p.shape[1] == 16
        _, analytic = adapter_param_flops(state.cfg, mcfg, DCFG, 4)
        assert meter.accumulated == analytic
