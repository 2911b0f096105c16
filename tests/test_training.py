"""Training infrastructure: optimizer math against a hand-rolled oracle,
freezing contracts, cached-vs-naive loss equivalence, determinism of the
run reports, and the non-finite abort."""

import dataclasses
import json
import time

import numpy as np
import pytest

from fusedet import tensor as T
from fusedet import training as tr
from fusedet.adapter import ARCHS, AdapterConfig, FusionState
from fusedet.config import ExperimentConfig
from fusedet.detector import DetectorConfig, detection_loss
from fusedet.layers import Module
from fusedet.scenes import pad_token_rows
from fusedet.tensor import NumericsError, Tensor, UsageError


def tiny_config(**overrides):
    base = dict(
        n_pretrain=24, n_train=24, n_val=12,
        pretrain_steps=8, s1_steps=6, s2_steps=4, s3_steps=6, sub_steps=6,
        pretrain_batch=4, s1_batch=4, s2_batch=4, s3_batch=4, sub_batch=4,
        eval_chunk=8)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def bench():
    """Shared tiny backbones: pretrained detector + captioning stages 1-2."""
    cfg = tiny_config()
    mllm, det, reports = tr.prepare_backbones(cfg)
    return {
        "cfg": cfg,
        "mllm": mllm,
        "det": det,
        "reports": reports,
        "train": tr.load_split(cfg, "train"),
        "vals": {"val-category": tr.load_split(cfg, "val-category"),
                 "val-spatial": tr.load_split(cfg, "val-spatial")},
        "projector": tr.snapshot(mllm.projector),
        "det_digest": tr.module_digest(det),
    }


def stage3_cache(b):
    cfg = b["cfg"]
    l_d = cfg.adapter.resolve(cfg.mllm, cfg.detector).l_d
    return tr.Stage3Cache(b["mllm"], b["det"], b["train"], l_d,
                          chunk=cfg.eval_chunk)


class TestSchedule:
    def test_cosine_endpoints(self):
        assert tr.cosine_lr(0.1, 0, 100) == 0.1
        assert tr.cosine_lr(0.1, 100, 100) == pytest.approx(0.0, abs=1e-17)
        assert tr.cosine_lr(0.1, 50, 100) == pytest.approx(0.05)

    def test_cosine_monotone(self):
        vals = [tr.cosine_lr(1.0, s, 40) for s in range(41)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_cosine_rejects_empty_schedule(self):
        with pytest.raises(UsageError):
            tr.cosine_lr(0.1, 0, 0)


def adam_oracle(x0, grads, lr, total, copies=1, beta1=0.9, beta2=0.999,
                eps=1e-8):
    """Independent Adam recurrence (bias-corrected, cosine-decayed), each
    gradient first clipped to global norm ``GRAD_CLIP`` over ``copies``
    parameters that all receive it."""
    x = x0.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        g = g * min(1.0, tr.GRAD_CLIP / np.sqrt(copies * np.sum(g * g)))
        step_lr = lr * 0.5 * (1.0 + np.cos(np.pi * (t - 1) / total))
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - step_lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def reference_adam(xs, lrs, grads, total, clip=None):
    """The per-tensor Adam recurrence the flat optimizer must match bit for
    bit: ``xs[k]`` the initial arrays of group ``k`` at lr ``lrs[k]``,
    ``grads[t][k]`` the gradients of that group at step ``t``.  The clip
    norm sums each tensor in C order, whatever its memory layout, then the
    tensors in group order."""
    clip = tr.GRAD_CLIP if clip is None else clip
    xs = [[x.copy() for x in group] for group in xs]
    ms = [[np.zeros_like(x) for x in group] for group in xs]
    vs = [[np.zeros_like(x) for x in group] for group in xs]
    for t, gs in enumerate(grads, start=1):
        sq = 0.0
        for group in gs:
            for g in group:
                g = np.ascontiguousarray(g)
                sq += float(np.sum(g * g))
        norm = np.sqrt(sq)
        if norm > clip:
            gs = [[g * (clip / norm) for g in group] for group in gs]
        bc1 = 1.0 - tr.ADAM_BETA1 ** t
        bc2 = 1.0 - tr.ADAM_BETA2 ** t
        for x, m, v, group, base in zip(xs, ms, vs, gs, lrs):
            lr = tr.cosine_lr(base, t - 1, total)
            for i, g in enumerate(group):
                m[i] = tr.ADAM_BETA1 * m[i] + (1 - tr.ADAM_BETA1) * g
                v[i] = tr.ADAM_BETA2 * v[i] + (1 - tr.ADAM_BETA2) * g * g
                x[i] = x[i] - lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2)
                                                   + tr.ADAM_EPS)
    return xs


def same_bits(got, want) -> bool:
    return len(got) == len(want) and all(
        a.shape == b.shape and np.ascontiguousarray(a).tobytes()
        == np.ascontiguousarray(b).tobytes() for a, b in zip(got, want))


class Holder(Module):
    """A module over the given parameters, by name."""

    def __init__(self, params):
        self.__dict__.update(params)


class TestAdam:
    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((3, 2))
        grads = [rng.standard_normal((3, 2)) for _ in range(5)]
        p = Tensor(x0.copy(), requires_grad=True)
        opt = tr.Adam([tr.ParamGroup("p", {"p": p}, 0.01)], total=5)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        assert np.allclose(p.data, adam_oracle(x0, grads, 0.01, 5), atol=1e-14)

    def test_groups_use_their_own_lr(self):
        rng = np.random.default_rng(1)
        xa, xb = rng.standard_normal(4), rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(3)]
        pa = Tensor(xa.copy(), requires_grad=True)
        pb = Tensor(xb.copy(), requires_grad=True)
        opt = tr.Adam([tr.ParamGroup("a", {"p": pa}, 0.05),
                       tr.ParamGroup("b", {"p": pb}, 0.002)], total=3)
        for g in grads:
            pa.grad, pb.grad = g.copy(), g.copy()
            opt.step()
        want = reference_adam([[xa], [xb]], [0.05, 0.002],
                              [[[g], [g]] for g in grads], total=3)
        assert same_bits([pa.data, pb.data], [x for xs in want for x in xs])

    def test_bitwise_per_tensor_recurrence(self):
        """Two groups at different lrs over 1-, 2- and 4-d parameters (one
        gradient in Fortran order, which the clip norm sums as its C-order
        copy, so a step does not depend on a gradient's memory layout), 7
        steps with the clip firing on some and not on others, over 8 draws:
        every parameter is bit for bit the per-tensor recurrence's."""
        shapes = [[(5,), (6, 20), (2, 3, 2, 2)], [(7,), (4, 2)]]
        scales = [3.0, 0.01, 2.0, 0.05, 0.02, 1.5, 0.01]
        for seed in range(8):
            rng = np.random.default_rng(seed)
            xs = [[rng.standard_normal(s) for s in group] for group in shapes]
            grads = [[[rng.standard_normal(s) * c for s in group]
                      for group in shapes] for c in scales]
            for step in grads:
                step[0][1] = np.asfortranarray(step[0][1])
            fired = [np.sqrt(sum(float(np.sum(g * g))
                                 for gs in step for g in gs)) > tr.GRAD_CLIP
                     for step in grads]
            assert any(fired) and not all(fired)
            params = [[Tensor(x.copy(), requires_grad=True) for x in group]
                      for group in xs]
            opt = tr.Adam([tr.ParamGroup(f"g{k}", {f"p{i}": p for i, p in
                                                     enumerate(ps)}, lr)
                           for k, (ps, lr) in enumerate(zip(params,
                                                            [0.03, 0.004]))],
                          total=len(grads))
            for step in grads:
                for ps, gs in zip(params, step):
                    for p, g in zip(ps, gs):
                        p.grad = g.copy(order="K")
                opt.step()
            want = reference_adam(xs, [0.03, 0.004], grads, total=len(grads))
            assert same_bits([p.data for ps in params for p in ps],
                             [x for group in want for x in group]), seed

    def test_parameters_share_one_buffer(self):
        rng = np.random.default_rng(3)
        ps = {"a": Tensor(rng.standard_normal((2, 3)), requires_grad=True),
              "b": Tensor(rng.standard_normal(4), requires_grad=True)}
        q = Tensor(rng.standard_normal((1, 2, 2, 1)), requires_grad=True)
        before = [p.data.copy() for p in [*ps.values(), q]]
        tr.Adam([tr.ParamGroup("x", ps, 0.1), tr.ParamGroup("y", {"q": q}, 0.1)],
                total=1)
        datas = [p.data for p in [*ps.values(), q]]
        assert len({id(d.base) for d in datas}) == 1 and datas[0].base is not None
        assert same_bits(datas, before)
        snap = tr.snapshot(Holder(ps))
        assert all(not np.shares_memory(snap[k], ps[k].data) for k in ps)

    def test_restore_then_new_adam_matches_reference(self):
        """``restore`` rebinds ``p.data`` away from the first optimizer's
        buffer; the next optimizer re-homes it and still matches."""
        rng = np.random.default_rng(4)
        mod = Holder({"w": Tensor(rng.standard_normal((3, 2)), requires_grad=True),
                      "b": Tensor(rng.standard_normal(2), requires_grad=True)})
        x0 = tr.snapshot(mod)
        grads = [[[rng.standard_normal((3, 2)) * c, rng.standard_normal(2) * c]]
                 for c in (2.0, 0.01, 0.5, 0.03, 1.0)]

        def run():
            opt = tr.Adam([tr.ParamGroup("m", mod.named_parameters(), 0.02)],
                          total=5)
            for (gw, gb), in grads:
                mod.w.grad, mod.b.grad = gw.copy(), gb.copy()
                opt.step()
            return [mod.w.data.copy(), mod.b.data.copy()]

        first = run()
        tr.restore(mod, x0)
        assert mod.w.data.base is None
        assert same_bits(run(), first)
        want = reference_adam([[x0["w"], x0["b"]]], [0.02], grads, total=5)
        assert same_bits(first, want[0])

    def test_step_consumes_gradients(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = tr.Adam([tr.ParamGroup("p", {"p": p}, 0.1)], total=1)
        p.grad = np.ones(2)
        opt.step()
        assert p.grad is None

    def test_global_norm_clip(self):
        """A gradient above ``GRAD_CLIP`` in global norm is scaled onto it
        before the update: the step equals the per-tensor recurrence on the
        clipped gradients, and differs from the unclipped update."""
        pa = Tensor(np.zeros(3), requires_grad=True)
        pb = Tensor(np.zeros(4), requires_grad=True)
        opt = tr.Adam([tr.ParamGroup("a", {"p": pa}, 0.1),
                       tr.ParamGroup("b", {"p": pb}, 0.1)], total=2)
        grads = [[[np.full(3, 2.0)], [np.full(4, 2.0)]],
                 [[np.full(3, 0.01)], [np.full(4, -0.01)]]]
        for (ga,), (gb,) in grads:
            pa.grad, pb.grad = ga.copy(), gb.copy()
            opt.step()
        norm = np.sqrt(np.sum(grads[0][0][0] ** 2) + np.sum(grads[0][1][0] ** 2))
        clipped = [[[g * (tr.GRAD_CLIP / norm) for g in gs] for gs in grads[0]],
                   grads[1]]
        want = reference_adam([[np.zeros(3)], [np.zeros(4)]], [0.1, 0.1],
                              clipped, total=2)
        assert same_bits([pa.data, pb.data], [want[0][0], want[1][0]])
        raw = reference_adam([[np.zeros(3)], [np.zeros(4)]], [0.1, 0.1],
                             grads, total=2, clip=np.inf)
        assert not np.array_equal(pa.data, raw[0][0])

    def test_clip_leaves_small_gradients_alone(self):
        """Below ``GRAD_CLIP`` the gradient enters the update unscaled."""
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = tr.Adam([tr.ParamGroup("p", {"p": p}, 0.1)], total=2)
        grads = [np.array([0.3, -0.4]), np.array([-0.1, 0.2])]
        for g in grads:
            p.grad = g.copy()
            opt.step()
        want = reference_adam([[np.zeros(2)]], [0.1], [[[g]] for g in grads],
                              total=2, clip=np.inf)
        assert same_bits([p.data], want[0])

    def test_parameter_listed_twice_is_named(self):
        """Listed twice, a parameter would take two updates per step, or
        lose one once it lives in the optimizer's buffer."""
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError,
                           match=r"^b\.again is also a\.w: a parameter "
                                 r"belongs to one group, once$"):
            tr.Adam([tr.ParamGroup("a", {"w": p, "v": q}, 0.1),
                     tr.ParamGroup("b", {"again": p}, 0.1)], total=1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_gradient_is_named_and_changes_nothing(self):
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(3), requires_grad=True)
        opt = tr.Adam([tr.ParamGroup("a", {"p": p}, 0.1),
                       tr.ParamGroup("b", {"q": q}, 0.1)], total=2)
        p.grad, q.grad = np.ones(2), np.array([1.0, np.inf, 0.0])
        with pytest.raises(NumericsError, match=r"^non-finite gradient of b\.q$"):
            opt.step()
        assert same_bits([p.data, q.data], [np.ones(2), np.ones(3)])
        p.grad, q.grad = np.full(2, 1e200), np.ones(3)
        with pytest.raises(NumericsError,
                           match=r"^gradient norm overflows \(inf\)$"):
            opt.step()
        assert same_bits([p.data, q.data], [np.ones(2), np.ones(3)])


class TestFreezing:
    def test_configure_trainable(self):
        cfg = tiny_config()
        mllm, det = tr.build_models(cfg)
        groups = [tr.ParamGroup("projector",
                                mllm.projector.named_parameters(), 0.1)]
        tr.configure_trainable(groups, mllm, det)
        assert all(p.requires_grad for p in mllm.projector.parameters())
        assert not any(p.requires_grad for p in det.parameters())
        assert not mllm.tok_embed.requires_grad

    def test_pretrain_touches_only_the_detector(self):
        cfg = tiny_config()
        mllm, det = tr.build_models(cfg)
        frozen = tr.module_digest(mllm)
        before = tr.module_digest(det)
        tr.pretrain_detector(cfg, mllm, det, tr.load_split(cfg, "pretrain"))
        assert tr.module_digest(mllm) == frozen
        assert tr.module_digest(det) != before

    @pytest.mark.parametrize("arch", ARCHS)
    def test_stage3_touches_only_adapter_and_projector(self, bench, arch):
        b = bench
        mllm_before = tr.snapshot(b["mllm"])
        arm = dataclasses.replace(b["cfg"], adapter=AdapterConfig(arch=arch))
        state, _ = tr.run_stage3_experiment(
            arm, b["mllm"], b["det"], b["projector"], b["train"], {})
        assert tr.module_digest(b["det"]) == b["det_digest"]
        after = tr.snapshot(b["mllm"])
        for name in mllm_before:
            if not name.startswith("projector."):
                assert np.array_equal(after[name], mllm_before[name]), name
        assert np.any(state.gate.data != 0.0)          # adapter escaped zero

    @pytest.mark.parametrize("arch", ARCHS)
    def test_fresh_adapter_gets_a_gradient(self, bench, arch):
        """One naive stage-3 backward from a fresh adapter reaches the gate
        or the output map: zero init is no saddle."""
        b = bench
        tr.restore(b["mllm"].projector, b["projector"])
        state = tr.build_adapter(b["cfg"], arch=arch)
        tr.configure_trainable(
            [tr.ParamGroup("adapter", state.named_parameters(), 1.0)],
            b["mllm"], b["det"], state)
        tr.stage3_loss_naive(b["cfg"], b["mllm"], b["det"], state,
                             b["train"][:4]).backward()
        grads = [p.grad for p in (state.gate, state.out_proj.weight)]
        assert any(g is not None and np.any(g != 0.0) for g in grads)

    def test_arm_report_records_its_adapter(self, bench):
        """An arm is its config: the stage-3 report's ``adapter.*`` keys
        rebuild the head's own resolved section exactly, and neither head's
        report keeps a second, top-level copy of its settings."""
        b = bench
        arm = dataclasses.replace(b["cfg"],
                                  adapter=AdapterConfig(arch="II", l_lm=1))
        state, report = tr.run_stage3_experiment(
            arm, b["mllm"], b["det"], b["projector"], b["train"], {})
        assert (state.cfg.arch, state.cfg.l_lm, state.cfg.l_d) == ("II", 1, 6)
        assert ExperimentConfig.from_dict(report["config"]).adapter == state.cfg
        _, sub_report = tr.run_substitution_experiment(
            arm, b["mllm"], b["det"], b["projector"], b["train"], {})
        assert sub_report["config"]["adapter.l_lm"] == 1
        for rep in (report, sub_report):
            assert set(rep) == {"stage", "steps", "groups", "losses",
                                "final_loss", "config", "metrics"}

    def test_substitution_touches_only_head_and_projector(self, bench):
        b = bench
        sub, report = tr.run_substitution_experiment(
            b["cfg"], b["mllm"], b["det"], b["projector"], b["train"],
            b["vals"])
        assert tr.module_digest(b["det"]) == b["det_digest"]
        assert set(report["metrics"]) == set(b["vals"])


class TestDeterminism:
    def test_stage_streams_are_distinct(self):
        tags = list(tr.STAGE_TAGS.values()) + [tr.MODEL_TAG, tr.ADAPTER_TAG]
        assert len(set(tags)) == len(tags)

    def test_model_build_is_seeded(self):
        cfg = tiny_config(seed=4)
        a1, d1 = tr.build_models(cfg)
        a2, d2 = tr.build_models(cfg)
        assert tr.module_digest(a1) == tr.module_digest(a2)
        assert tr.module_digest(d1) == tr.module_digest(d2)
        a3, d3 = tr.build_models(tiny_config(seed=5))
        assert tr.module_digest(a3) != tr.module_digest(a1)
        assert tr.module_digest(d3) != tr.module_digest(d1)

    def test_adapter_follows_run_seed_not_seed(self):
        same = tr.module_digest(tr.build_adapter(tiny_config(seed=1, run_seed=3)))
        other_seed = tr.module_digest(
            tr.build_adapter(tiny_config(seed=2, run_seed=3)))
        other_run = tr.module_digest(
            tr.build_adapter(tiny_config(seed=1, run_seed=4)))
        assert same == other_seed
        assert same != other_run

    def test_pretrain_repeats_bitwise(self):
        cfg = tiny_config()
        scenes = tr.load_split(cfg, "pretrain")
        reports = []
        for _ in range(2):
            mllm, det = tr.build_models(cfg)
            reports.append(tr.pretrain_detector(cfg, mllm, det, scenes))
        assert json.dumps(reports[0], sort_keys=True) == \
            json.dumps(reports[1], sort_keys=True)

    def test_stage3_repeats_bitwise(self, bench):
        b = bench
        cache = stage3_cache(b)
        runs = []
        for _ in range(2):
            state, rep = tr.run_stage3_experiment(
                b["cfg"], b["mllm"], b["det"], b["projector"], b["train"],
                b["vals"], cache=cache)
            runs.append((tr.module_digest(state),
                         json.dumps(rep, sort_keys=True)))
        assert runs[0] == runs[1]

    def test_report_carries_no_timing(self, bench):
        rep = bench["reports"]["pretrain"]
        assert set(rep) == {"stage", "steps", "groups", "losses",
                            "final_loss", "config"}
        assert rep["steps"] == bench["cfg"].pretrain_steps

    def test_save_report_round_trip(self, bench, tmp_path):
        path = tmp_path / "report.json"
        tr.save_report(bench["reports"]["stage2"], path)
        assert json.loads(path.read_text()) == bench["reports"]["stage2"]


class TestCachedEquivalence:
    """The cached stage-3 loss is an exact-value shortcut, never an
    approximation: both routes must agree to the last bit."""

    @pytest.mark.parametrize("arch,l_d", [("IV", 6), ("IV", 1), ("I", 1),
                                          ("II", 3), ("III", 1)])
    def test_single_loss_identical(self, bench, arch, l_d):
        b = bench
        cfg = b["cfg"]
        tr.restore(b["mllm"].projector, b["projector"])
        state = tr.build_adapter(dataclasses.replace(
            cfg, adapter=AdapterConfig(arch=arch, l_d=l_d)))
        for p in state.parameters():                  # leave the zero point
            p.data = p.data + 0.01
        cache = tr.Stage3Cache(b["mllm"], b["det"], b["train"], l_d, chunk=8)
        idx = np.array([3, 11, 7, 3])
        naive = tr.stage3_loss_naive(cfg, b["mllm"], b["det"], state,
                                     [b["train"][i] for i in idx])
        cached = tr.stage3_loss_cached(cfg, b["mllm"], b["det"], state,
                                       cache, idx)
        assert naive.data == cached.data

    def test_cache_text_is_the_pass_text(self, bench):
        """``Stage3Cache.text`` holds ``_candidate_text``'s own arrays,
        padded positions included, for scenes from different chunks."""
        b = bench
        cache = tr.Stage3Cache(b["mllm"], b["det"], b["train"], 3, chunk=8)
        idx = np.array([0, 5, 13, 23, 9])
        want = tr._candidate_text(b["det"], [b["train"][i] for i in idx])
        assert len(cache.text) == len(want) == 3
        for got, ref in zip(cache.text, want):
            ref = ref.data if isinstance(ref, Tensor) else ref
            assert got[idx].dtype == ref.dtype
            assert got[idx].shape == ref.shape
            assert got[idx].tobytes() == ref.tobytes()

    def test_cache_vision_is_the_patch_tokens(self, bench):
        """``cache_vision`` returns one array, ``encode_image`` of the stacked
        images bit for bit, across chunk boundaries."""
        b = bench
        scenes = b["train"][:11]
        got = tr.cache_vision(b["mllm"], scenes, chunk=4)
        want = b["mllm"].encode_image(
            T.constant(np.stack([s.image for s in scenes]))).data
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("head", ["plain", "substitution"])
    def test_cached_patch_tokens_give_the_fresh_loss(self, bench, head):
        """The pretrain and substitution losses slice patch tokens from a
        chunked ``cache_vision`` array; the naive loss and evaluation compute
        them per batch with ``patch_tokens``.  Either way one batch has the
        same loss, bit for bit."""
        b = bench
        sub = (tr.build_substitution(b["cfg"], b["mllm"])
               if head == "substitution" else None)
        idx = np.array([3, 17, 8, 3, 22])
        batch = [b["train"][i] for i in idx]
        cached = tr.cache_vision(b["mllm"], b["train"], chunk=5)[idx]
        fresh = tr.patch_tokens(b["mllm"], batch)
        cfg, mllm, det = b["cfg"], b["mllm"], b["det"]
        losses = [detection_loss(*tr.fused_outputs(cfg, mllm, det, patches,
                                                   batch, sub=sub),
                                 batch).data
                  for patches in (cached, fresh)]
        assert losses[0].tobytes() == losses[1].tobytes()

    def test_first_layer_cache_holds_the_query_embeddings(self, bench):
        """At l_d = 1 the pre-state is the broadcast query embeddings, so a
        cached loss always resumes; ``full_decode`` changes no array."""
        b = bench
        cache = tr.Stage3Cache(b["mllm"], b["det"], b["train"], 1, chunk=8)
        q = b["det"].query_embed.data
        want = np.broadcast_to(q, (len(b["train"]),) + q.shape)
        assert cache.pre_state.shape == want.shape
        assert cache.pre_state.tobytes() == np.ascontiguousarray(want).tobytes()
        full = tr.Stage3Cache(b["mllm"], b["det"], b["train"], 1,
                              full_decode=True, chunk=8)
        for got, ref in zip((full.patches, full.evd, full.pre_state, *full.text),
                            (cache.patches, cache.evd, cache.pre_state,
                             *cache.text)):
            assert got.tobytes() == ref.tobytes()

    def test_resumed_cache_rejects_a_vision_hook(self, bench):
        """A cache resumes at its own layer; Arch I acts
        before layer 1, so the cached loss refuses it rather than return the
        loss without the adapter."""
        b = bench
        state = tr.build_adapter(b["cfg"], arch="I")
        state.gate.data[:] = 1.0
        cache = tr.Stage3Cache(b["mllm"], b["det"], b["train"], 3, chunk=8)
        with pytest.raises(UsageError, match="layer 1 before start layer 3"):
            tr.stage3_loss_cached(b["cfg"], b["mllm"], b["det"], state, cache,
                                  np.array([0, 1]))

    def test_full_run_identical(self, bench):
        b = bench
        outcomes = []
        for cached in (True, False):
            tr.restore(b["mllm"].projector, b["projector"])
            rep = tr.train_stage3(b["cfg"], b["mllm"], b["det"],
                                  tr.build_adapter(b["cfg"]), b["train"],
                                  cached=cached)
            outcomes.append(rep["losses"])
        assert outcomes[0] == outcomes[1]

    def test_cache_guards_its_configuration(self, bench):
        b = bench
        cache = stage3_cache(b)                        # l_d=6
        tr.restore(b["mllm"].projector, b["projector"])
        shallow = tr.build_adapter(dataclasses.replace(
            b["cfg"], adapter=AdapterConfig(l_d=1)))
        with pytest.raises(UsageError, match="cache built for"):
            tr.train_stage3(b["cfg"], b["mllm"], b["det"], shallow,
                            b["train"], cache=cache)
        vision = tr.build_adapter(b["cfg"], arch="I")
        with pytest.raises(UsageError, match="cache built for"):
            tr.train_stage3(b["cfg"], b["mllm"], b["det"], vision,
                            b["train"], cache=cache)

    def test_cache_over_fewer_scenes_rejected(self, bench):
        """A cache over the first 8 scenes cannot serve a run over all 24:
        batch indices would run past the cached rows."""
        b = bench
        state = tr.build_adapter(b["cfg"])
        cache = tr.Stage3Cache(b["mllm"], b["det"], b["train"][:8],
                               state.cfg.l_d, chunk=8)
        with pytest.raises(UsageError, match="other scenes"):
            tr.train_stage3(b["cfg"], b["mllm"], b["det"], state,
                            b["train"], cache=cache)

    def test_cache_over_other_scenes_rejected(self, bench):
        """A cache over all 24 scenes cannot serve a run over scenes 12-15:
        the loss would read the cache's first four scenes instead."""
        b = bench
        state = tr.build_adapter(b["cfg"])
        with pytest.raises(UsageError, match="other scenes"):
            tr.train_stage3(b["cfg"], b["mllm"], b["det"], state,
                            b["train"][12:16], cache=stage3_cache(b))

    def test_cache_on_an_uncached_run_rejected(self, bench):
        """``cached=False`` trains on the naive loss, which never reads a
        cache; one passed anyway is refused rather than ignored."""
        b = bench
        state = tr.build_adapter(b["cfg"])
        with pytest.raises(UsageError, match="cached=False"):
            tr.train_stage3(b["cfg"], b["mllm"], b["det"], state,
                            b["train"], cached=False, cache=stage3_cache(b))


class TestAttentionTap:
    def test_tap_holds_the_adapter_attentions(self, bench):
        """A tap around one cached stage-3 loss holds the adapter's two
        records among the LM's and the decoder's: the queries over the L
        prompts, then over themselves.  Each record's weights sum to 1; the
        gate scales the first term outside the tap, so its share is
        tanh(gate) itself."""
        b = bench
        cfg = b["cfg"]
        tr.restore(b["mllm"].projector, b["projector"])
        state = tr.build_adapter(cfg, arch="IV")
        rng = np.random.default_rng(6)
        state.gate.data = rng.uniform(-1.5, 1.5, state.gate.shape)
        state.out_proj.weight.data = rng.standard_normal(
            state.out_proj.weight.shape) * 0.1
        idx = np.array([2, 9, 17])
        with T.attention_tap() as taps:
            tr.stage3_loss_cached(cfg, b["mllm"], b["det"], state,
                                  stage3_cache(b), idx)
        l, q = np.prod(state.cfg.prompt_grid(cfg.mllm)), cfg.detector.queries
        shapes = [w.shape for _, w in taps]
        heads = cfg.detector.heads
        at = shapes.index((len(idx), heads, q, l))
        assert shapes[at + 1] == (len(idx), heads, q, q)
        assert len(taps) > 2
        for _, w in taps[at:at + 2]:
            assert np.allclose(w.sum(-1), 1.0, rtol=0, atol=1e-12)


def non_leaf_tape_nodes(loss) -> int:
    """Interior nodes ``backward`` will visit from ``loss``."""
    seen, stack, interior = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        interior += bool(node._parents)
        stack.extend(node._parents)
    return interior


class TestTapeSize:
    def test_default_pretrain_step_tape_is_small(self, monkeypatch):
        """One default-config pretrain loss at batch 16 stays a short tape:
        fused Linear / LayerNorm / attention ops and the batched detection
        loss (about 1,500 interior nodes with the unfused ops)."""
        cfg = dataclasses.replace(ExperimentConfig(), n_pretrain=16,
                                  pretrain_steps=1)
        assert cfg.pretrain_batch == 16
        sizes = []
        original = T.backward

        def counting_backward(loss):
            sizes.append(non_leaf_tape_nodes(loss))
            original(loss)

        monkeypatch.setattr(T, "backward", counting_backward)
        mllm, det = tr.build_models(cfg)
        tr.pretrain_detector(cfg, mllm, det, tr.load_split(cfg, "pretrain"))
        assert len(sizes) == 1
        assert sizes[0] <= 200, sizes

    def test_default_stage3_loss_tape_is_small(self):
        """One default-config cached Arch IV loss at batch 8: the LM prefix,
        the adapter's two attentions and one decoder layer (91 interior
        nodes when this bound was set)."""
        cfg = dataclasses.replace(ExperimentConfig(), n_train=8)
        assert cfg.s3_batch == 8 and cfg.adapter.arch == "IV"
        mllm, det = tr.build_models(cfg)
        state = tr.build_adapter(cfg)
        cache = tr.Stage3Cache(mllm, det, tr.load_split(cfg, "train"),
                               state.cfg.l_d, chunk=cfg.eval_chunk)
        loss = tr.stage3_loss_cached(cfg, mllm, det, state, cache,
                                     np.arange(cfg.s3_batch))
        assert non_leaf_tape_nodes(loss) <= 100


class TestRunLoop:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_abort_names_stage_and_step(self):
        p = Tensor(np.ones(1), requires_grad=True)
        groups = [tr.ParamGroup("p", {"p": p}, 1e-3)]
        calls = {"n": 0}

        def loss_fn(idx):
            calls["n"] += 1
            if calls["n"] == 2:
                big = T.mul(p, 1e200)
                return T.tsum(T.mul(big, big))        # overflows to inf
            return T.tsum(T.mul(p, p))

        with pytest.raises(NumericsError, match=r"stage3: .* step 1"):
            tr._run_stage(tiny_config(), "stage3", groups, (), loss_fn,
                          n=10, steps=5, batch=2, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_gradient_names_its_step_and_parameter(self):
        """A finite loss whose gradient overflows fails at its own step,
        naming the parameter, before any parameter moves; a one-step stage
        fails too instead of ending on NaN parameters."""
        x = Tensor(np.full(2, 1e-300), requires_grad=True)
        w = Tensor(np.ones(3), requires_grad=True)
        groups = [tr.ParamGroup("head", {"w": w}, 1e-3),
                  tr.ParamGroup("tail", {"x": x}, 1e-3)]

        def loss_fn(idx):
            return T.add(T.tsum(T.mul(T.mul(x, 1e300), 1e300)),
                         T.tsum(T.mul(w, w)))

        with pytest.raises(NumericsError,
                           match=r"^stage3: non-finite value at step 0: "
                                 r"non-finite gradient of tail\.x$"):
            tr._run_stage(tiny_config(), "stage3", groups, (), loss_fn,
                          n=10, steps=1, batch=2, seed=0)
        assert np.array_equal(x.data, np.full(2, 1e-300))
        assert np.array_equal(w.data, np.ones(3))

    def test_parameter_no_gradient_reaches_is_named(self):
        """A group parameter the loss never reaches would stay silently
        untrained; the step that finds it is refused by name."""
        p = Tensor(np.ones(1), requires_grad=True)
        dead = Tensor(np.ones(2), requires_grad=True)
        groups = [tr.ParamGroup("head", {"w": p, "dead": dead}, 1e-3)]
        with pytest.raises(
                UsageError,
                match=r"^stage3: no gradient reaches head\.dead at step 0$"):
            tr._run_stage(tiny_config(), "stage3", groups, (),
                          lambda idx: T.tsum(T.mul(p, p)),
                          n=10, steps=3, batch=2, seed=0)

    @pytest.mark.parametrize("stage, drive", [
        ("pretrain", lambda cfg, mllm, det: tr.pretrain_detector(
            cfg, mllm, det, [])),
        ("stage1", lambda cfg, mllm, det: tr.train_stage1(cfg, mllm, [])),
        ("stage2", lambda cfg, mllm, det: tr.train_stage2(cfg, mllm, [])),
        ("stage3", lambda cfg, mllm, det: tr.train_stage3(
            cfg, mllm, det, tr.build_adapter(cfg), [])),
        ("stage3", lambda cfg, mllm, det: tr.train_stage3(
            cfg, mllm, det, tr.build_adapter(cfg), [], cached=False)),
        ("substitution", lambda cfg, mllm, det: tr.train_substitution(
            cfg, mllm, det, tr.build_substitution(cfg, mllm), []))],
        ids=["pretrain", "stage1", "stage2", "stage3-cached", "stage3-naive",
             "substitution"])
    def test_no_scenes_is_a_named_error(self, stage, drive):
        cfg = tiny_config()
        mllm, det = tr.build_models(cfg)
        with pytest.raises(UsageError,
                           match=f"^{stage} needs at least one scene$"):
            drive(cfg, mllm, det)

    def test_losses_are_plain_floats(self, bench):
        losses = bench["reports"]["stage1"]["losses"]
        assert len(losses) == bench["cfg"].s1_steps
        assert all(isinstance(x, float) and np.isfinite(x) for x in losses)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` sets the CPU count ``_fill_rows`` reads and returns the
    list of its forks so far; on teardown, no child process is left."""
    forks = []
    fork = tr.os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(tr.os, "fork", counting_fork)

    def set_cpus(n):
        monkeypatch.setattr(tr.os, "sched_getaffinity",
                            lambda pid: set(range(n)))
        return forks

    yield set_cpus
    with pytest.raises(ChildProcessError):
        tr.os.waitpid(-1, tr.os.WNOHANG)


# 12 rows in spans of 4: the parent fills 0:4, a worker 4:8 and 8:12
SPANS = [(0, 4), (4, 8), (8, 12)]


class SpanError(Exception):
    """Raised by a span, so a test sees its own type come back."""


def span_run(fail=None):
    """``(run, ran)``: a ``run(lo, hi)`` of one ``T.attention`` per span,
    which first calls ``fail(lo)`` when given, and the list of the spans it
    ran in this process (a forked worker appends to its own copy)."""
    ran = []

    def run(lo, hi):
        ran.append((lo, hi))
        if fail is not None:
            fail(lo)
        x = T.constant(np.sin(np.arange(2 * lo, 2 * hi)).reshape(-1, 1, 2))
        out = T.attention(x, x, x, 1).data[:, 0]
        return out, out > 0

    return run, ran


def fill(run):
    return tr._fill_rows(run, 12, 4, (((2,), float), ((2,), bool)), "fill")


def break_the_worker(monkeypatch, how):
    """A ``fail`` that makes the forked half fail ``how``: the worker is
    "killed" by SIGKILL, or "raises", at its first span; or, with "no
    fork", ``fork`` itself fails as it does when no process id is free."""
    if how == "no fork":
        def no_pid():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(tr.os, "fork", no_pid)
        return None

    def fails_in_worker(lo):
        if tr._IN_WORKER:
            if how == "killed":
                tr.os.kill(tr.os.getpid(), tr.signal.SIGKILL)
            raise SpanError("worker failed")

    return fails_in_worker


def stalls_or_fails(lo):
    """A ``fail`` that stalls a worker for a minute and raises in the
    parent."""
    if tr._IN_WORKER:
        time.sleep(60)
    raise SpanError("parent failed")


def fail_before(monkeypatch, target, fail):
    """Patch ``tr.<target>``, a caller's pass, to call ``fail(None)``
    first; a ``None`` fail patches nothing."""
    if fail is None:
        return
    run = getattr(tr, target)

    def failing(*args, **kwargs):
        fail(None)
        return run(*args, **kwargs)

    monkeypatch.setattr(tr, target, failing)


def counted(scope, work):
    """What an open ``scope``, "meter" or "tap", counts over ``work()``."""
    if scope == "meter":
        with T.FlopsMeter() as meter:
            work()
        return meter.accumulated
    with T.attention_tap() as records:
        work()
    return len(records)


def refuse_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked under an open scope")

    monkeypatch.setattr(tr.os, "fork", no_fork)


def same_rows(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestFillRows:
    """``_fill_rows`` itself, the one home of the forked fill's rules, over
    three spans of a cheap pass; ``evaluate`` and the ``Stage3Cache`` build
    are checked below on their real passes."""

    def test_two_processes_equal_one(self, cpus):
        """The worker fills spans 2-3 and the parent only span 1; the rows
        are the serial ones, bitwise, in writable arrays of each dtype."""
        forks = cpus(1)
        run, ran = span_run()
        serial = fill(run)
        assert not forks and ran == SPANS
        cpus(2)
        run, ran = span_run()
        forked = fill(run)
        # a worker that always failed would be hidden by the parent's
        # re-run, but would show here as the worker's spans
        assert len(forks) == 1 and ran == SPANS[:1]
        same_rows(forked, serial)
        assert [a.dtype for a in forked] == [np.float64, np.bool_]
        # the benchmark edits cache rows
        assert all(a.flags.writeable for a in forked)

    @pytest.mark.parametrize("n_cpus,bad", [(2, 8), (2, 0), (1, 4)],
                             ids=["worker", "parent", "serial"])
    def test_chunk_error_keeps_its_type_and_names_the_chunk(
            self, cpus, n_cpus, bad):
        def fail(lo):
            if lo == bad:
                raise SpanError("bad span")

        cpus(n_cpus)
        with pytest.raises(SpanError, match=rf"^fill scenes\[{bad}:{bad + 4}\]"
                                            r": bad span$") as err:
            fill(span_run(fail)[0])
        # raised in this process, with the traceback of the failed span
        assert "fail" in [entry.name for entry in err.traceback]

    @pytest.mark.parametrize("how", ["killed", "raises", "no fork"])
    def test_failed_worker_gives_the_serial_rows(self, cpus, monkeypatch, how):
        """A worker that is killed or raises has its spans filled again in
        the parent, and a fork that fails leaves every span to it: the rows
        are the serial ones, bitwise."""
        forks = cpus(1)
        serial = fill(span_run()[0])
        cpus(2)
        run, ran = span_run(break_the_worker(monkeypatch, how))
        same_rows(fill(run), serial)
        assert ran == SPANS
        assert len(forks) == (0 if how == "no fork" else 1)

    def test_parent_error_kills_the_worker(self, cpus):
        """The worker is killed, not waited for, when the parent's own half
        fails: a worker that would stall for a minute costs nothing."""
        cpus(2)
        t0 = time.perf_counter()
        with pytest.raises(SpanError, match=r"^fill scenes\[0:4\]: "):
            fill(span_run(stalls_or_fails)[0])
        assert time.perf_counter() - t0 < 30

    @pytest.mark.parametrize("scope", ["meter", "tap"])
    def test_open_meter_or_tap_keeps_it_serial(self, cpus, monkeypatch,
                                               scope):
        """An open scope sees every span: its count is the sum of the
        per-span counts, and the fill never forks (a fork raises)."""
        cpus(2)
        refuse_fork(monkeypatch)
        run, ran = span_run()
        total = counted(scope, lambda: fill(run))
        assert ran == SPANS
        assert total == sum(counted(scope, lambda: run(lo, hi))
                            for lo, hi in SPANS) > 0


def opened_adapter(cfg, arch, seed):
    """An adapter with seeded non-zero gates and output map, so the fused
    pass is not the detector's."""
    state = tr.build_adapter(cfg, arch=arch)
    rng = np.random.default_rng(seed)
    state.gate.data = rng.uniform(0.5, 1.5, state.gate.shape)
    w = state.out_proj.weight
    w.data = rng.standard_normal(w.shape) / np.sqrt(w.shape[0])
    return state


def three_chunks(b):
    return dataclasses.replace(b["cfg"], eval_chunk=4)   # of 12 scenes


def nan_image(scenes, i):
    """``scenes`` with scene ``i``'s image all NaN."""
    scenes = list(scenes)
    scenes[i] = dataclasses.replace(
        scenes[i], image=np.full_like(scenes[i].image, np.nan))
    return scenes


class TestEvaluation:
    def test_chunking_does_not_change_metrics(self, bench):
        b = bench
        scenes = b["vals"]["val-category"]
        small = tr.evaluate(dataclasses.replace(b["cfg"], eval_chunk=5),
                            b["mllm"], b["det"], scenes)
        big = tr.evaluate(dataclasses.replace(b["cfg"], eval_chunk=64),
                          b["mllm"], b["det"], scenes)
        assert small == big

    @pytest.mark.parametrize("head", ["baseline", "IV", "substitution"])
    def test_a_scene_scores_alike_alone_and_in_any_chunk(self, bench, head):
        """A scene's ``grounded_outputs`` are bitwise the same alone, in a
        chunk of three and in the whole split: no op on these paths reduces
        over the batch.  Arch I-III are not held to this, because their
        query text is padded to the chunk's longest query."""
        b = bench
        tr.restore(b["mllm"].projector, b["projector"])
        module = {"baseline": {},
                  "IV": {"state": opened_adapter(b["cfg"], "IV", 0)},
                  "substitution": {"sub": tr.build_substitution(
                      b["cfg"], b["mllm"])}}[head]
        scenes = b["vals"]["val-spatial"]

        def outputs(part):
            return tr.grounded_outputs(b["cfg"], b["mllm"], b["det"], part,
                                       **module)

        whole = outputs(scenes)
        for lo, hi in [(0, 1), (5, 6), (11, 12), (3, 6)]:
            for got, want in zip(outputs(scenes[lo:hi]), whole):
                assert got.tobytes() == want[lo:hi].tobytes(), (lo, hi)

    def test_split_composition(self, bench):
        b = bench
        m = tr.evaluate(b["cfg"], b["mllm"], b["det"], b["vals"]["val-spatial"])
        assert m["n_spatial"] == len(b["vals"]["val-spatial"])
        assert "n_category" not in m                  # pure split
        assert m["acc"] == m["acc_spatial"]

    def test_unknown_split_is_a_named_error(self):
        with pytest.raises(UsageError, match=(
                r"^unknown split 'val', expected one of \['pretrain', "
                r"'train', 'val-category', 'val-spatial'\]$")):
            tr.load_split(tiny_config(), "val")

    def test_fusion_and_substitution_are_exclusive(self, bench):
        b = bench
        state = tr.build_adapter(b["cfg"])
        sub = tr.build_substitution(b["cfg"], b["mllm"])
        with pytest.raises(UsageError):
            tr.grounded_outputs(b["cfg"], b["mllm"], b["det"],
                                b["train"][:2], state=state, sub=sub)

    def test_zero_init_adapter_evaluates_like_baseline(self, bench):
        """Before any stage-3 step the fused model IS the detector."""
        b = bench
        tr.restore(b["mllm"].projector, b["projector"])
        state = tr.build_adapter(b["cfg"])
        scenes = b["vals"]["val-spatial"]
        fused = tr.evaluate(b["cfg"], b["mllm"], b["det"], scenes, state=state)
        plain = tr.evaluate(b["cfg"], b["mllm"], b["det"], scenes)
        assert fused == plain

    def test_hook_past_the_last_layer_is_a_named_error(self):
        """An open adapter built for a 6-layer detector hooks layer 6; a
        2-layer detector has no such layer, so the pass refuses it rather
        than return the plain detector's outputs."""
        cfg = ExperimentConfig(detector=DetectorConfig(depth=2), n_val=2)
        mllm, det = tr.build_models(cfg)
        rng = np.random.default_rng(0)
        state = FusionState(AdapterConfig(arch="IV"), cfg.mllm,
                            DetectorConfig(), rng)
        assert state.cfg.l_d == 6
        state.gate.data[:] = 1.0
        state.out_proj.weight.data = rng.standard_normal(
            state.out_proj.weight.shape)
        with pytest.raises(UsageError, match="^hook targets layer 6 past the "
                                             "detector's last layer 2$"):
            tr.grounded_outputs(cfg, mllm, det,
                                tr.load_split(cfg, "val-spatial"),
                                state=state)

    @pytest.mark.parametrize("head", ["baseline", "IV", "substitution"])
    def test_two_processes_equal_one(self, bench, cpus, head):
        """Chunks 2-3 of 3 evaluated in the worker give the serial metrics
        and per-scene records, bitwise."""
        b = bench
        cfg = three_chunks(b)
        tr.restore(b["mllm"].projector, b["projector"])
        module = {"baseline": {},
                  "IV": {"state": opened_adapter(cfg, "IV", 5)},
                  "substitution": {"sub": tr.build_substitution(cfg, b["mllm"])}
                  }[head]
        scenes = b["vals"]["val-spatial"]
        forks = cpus(1)
        serial = tr.evaluate(cfg, b["mllm"], b["det"], scenes, **module)
        cpus(2)
        forked = tr.evaluate(cfg, b["mllm"], b["det"], scenes, **module)
        assert len(forks) == 1
        assert forked == serial                  # metrics and per_scene

    @pytest.mark.parametrize("n_cpus,bad,chunk", [
        (2, 9, "8:12"),          # in the worker's half
        (2, 1, "0:4"),           # in the parent's half
        (1, 5, "4:8"),           # serial
    ])
    def test_chunk_error_keeps_its_type_and_names_the_chunk(
            self, bench, cpus, n_cpus, bad, chunk):
        """A NaN image rises here, from its pass, named by its chunk."""
        b = bench
        cpus(n_cpus)
        with pytest.raises(NumericsError,
                           match=rf"^evaluate scenes\[{chunk}\]: non-finite "
                                 r"values produced by '\w+'$") as err:
            tr.evaluate(three_chunks(b), b["mllm"], b["det"],
                        nan_image(b["vals"]["val-category"], bad))
        assert "grounded_outputs" in [entry.name for entry in err.traceback]

    # The next three keep _fill_rows's rules (TestFillRows) on the real pass.

    @pytest.mark.parametrize("how", ["killed", "raises", "no fork"])
    def test_failed_worker_gives_the_serial_metrics(self, bench, cpus,
                                                   monkeypatch, how):
        b = bench
        cfg = three_chunks(b)
        scenes = b["vals"]["val-spatial"]
        forks = cpus(1)
        serial = tr.evaluate(cfg, b["mllm"], b["det"], scenes)
        cpus(2)
        fail_before(monkeypatch, "grounded_outputs",
                    break_the_worker(monkeypatch, how))
        assert tr.evaluate(cfg, b["mllm"], b["det"], scenes) == serial
        assert len(forks) == (0 if how == "no fork" else 1)

    def test_parent_error_kills_the_worker(self, bench, cpus, monkeypatch):
        b = bench
        fail_before(monkeypatch, "grounded_outputs", stalls_or_fails)
        cpus(2)
        t0 = time.perf_counter()
        with pytest.raises(SpanError, match=r"^evaluate scenes\[0:4\]: "):
            tr.evaluate(three_chunks(b), b["mllm"], b["det"],
                        b["vals"]["val-spatial"])
        assert time.perf_counter() - t0 < 30

    @pytest.mark.parametrize("scope", ["meter", "tap"])
    def test_open_meter_or_tap_keeps_it_serial(self, bench, cpus,
                                               monkeypatch, scope):
        b = bench
        cfg = three_chunks(b)
        scenes = b["vals"]["val-spatial"]
        state = opened_adapter(cfg, "IV", 6)
        cpus(2)
        refuse_fork(monkeypatch)
        total = counted(scope, lambda: tr.evaluate(cfg, b["mllm"], b["det"],
                                                   scenes, state=state))
        per_chunk = sum(
            counted(scope, lambda: tr.grounded_outputs(
                cfg, b["mllm"], b["det"], scenes[lo:hi], state=state))
            for lo, hi in tr._chunks(len(scenes), cfg.eval_chunk))
        assert total == per_chunk > 0

    def test_no_scenes_is_a_named_error(self, bench):
        b = bench
        with pytest.raises(UsageError,
                           match="^evaluate needs at least one scene$"):
            tr.evaluate(b["cfg"], b["mllm"], b["det"], [])


def cache_arrays(cache):
    return (cache.patches, cache.evd, *cache.text, cache.pre_state)


class TestCacheBuild:
    """The ``Stage3Cache`` build over 24 scenes in 3 chunks of 8, the worker
    building chunks 2-3."""

    @pytest.mark.parametrize("l_d", [1, 3])
    def test_two_processes_equal_one(self, bench, cpus, l_d):
        b = bench
        forks = cpus(1)
        serial = tr.Stage3Cache(b["mllm"], b["det"], b["train"], l_d, chunk=8)
        cpus(2)
        forked = tr.Stage3Cache(b["mllm"], b["det"], b["train"], l_d, chunk=8)
        assert len(forks) == 1
        same_rows(cache_arrays(forked), cache_arrays(serial))

    @pytest.mark.parametrize("n_cpus,bad,chunk", [
        (2, 17, "16:24"),        # in the worker's half
        (2, 1, "0:8"),           # in the parent's half
        (1, 10, "8:16"),         # serial
    ])
    def test_chunk_error_keeps_its_type_and_names_the_chunk(
            self, bench, cpus, n_cpus, bad, chunk):
        """A NaN image rises here, from its pass, named by its chunk."""
        b = bench
        cpus(n_cpus)
        with pytest.raises(NumericsError,
                           match=rf"^Stage3Cache scenes\[{chunk}\]: "
                                 r"non-finite values produced by '\w+'$"
                           ) as err:
            tr.Stage3Cache(b["mllm"], b["det"], nan_image(b["train"], bad), 3,
                           chunk=8)
        assert "patch_tokens" in [entry.name for entry in err.traceback]

    # The next three keep _fill_rows's rules (TestFillRows) on the real pass.

    @pytest.mark.parametrize("how", ["killed", "raises", "no fork"])
    def test_failed_worker_gives_the_serial_arrays(self, bench, cpus,
                                                  monkeypatch, how):
        b = bench
        forks = cpus(1)
        serial = tr.Stage3Cache(b["mllm"], b["det"], b["train"], 3, chunk=8)
        cpus(2)
        fail_before(monkeypatch, "patch_tokens",
                    break_the_worker(monkeypatch, how))
        cache = tr.Stage3Cache(b["mllm"], b["det"], b["train"], 3, chunk=8)
        assert len(forks) == (0 if how == "no fork" else 1)
        same_rows(cache_arrays(cache), cache_arrays(serial))

    def test_parent_error_kills_the_worker(self, bench, cpus, monkeypatch):
        b = bench
        fail_before(monkeypatch, "patch_tokens", stalls_or_fails)
        cpus(2)
        t0 = time.perf_counter()
        with pytest.raises(SpanError, match=r"^Stage3Cache scenes\[0:8\]: "):
            tr.Stage3Cache(b["mllm"], b["det"], b["train"], 3, chunk=8)
        assert time.perf_counter() - t0 < 30

    def test_open_meter_keeps_it_serial(self, bench, cpus, monkeypatch):
        b = bench
        caches = []

        def build():
            caches.append(tr.Stage3Cache(b["mllm"], b["det"], b["train"], 3,
                                         chunk=8))

        forks = cpus(1)
        want = counted("meter", build)
        cpus(2)
        refuse_fork(monkeypatch)
        assert counted("meter", build) == want > 0
        assert not forks
        same_rows(cache_arrays(caches[1]), cache_arrays(caches[0]))


class TestForwardOnlyPasses:
    """Evaluation, the frozen-feature caches and the diagnostics record no
    tape even when every module they run is trainable; the uncached pass
    that the stage-3 loss differentiates still does."""

    @pytest.fixture
    def made(self, monkeypatch):
        nodes = []
        make = T._make

        def recording_make(*args):
            nodes.append(make(*args))
            return nodes[-1]

        monkeypatch.setattr(T, "_make", recording_make)
        return nodes

    @pytest.fixture(scope="class")
    def trainable(self):
        cfg = tiny_config()
        mllm, det = tr.build_models(cfg)
        state = tr.build_adapter(cfg, arch="II")
        for m in (mllm, det, state):
            m.set_trainable(True)
        return cfg, mllm, det, state, tr.load_split(cfg, "val-spatial")[:6]

    def test_forward_only_passes_build_no_tape(self, made, trainable,
                                               monkeypatch):
        from fusedet import analysis
        from fusedet.analysis import attention_medians, compute_report
        monkeypatch.setattr(analysis, "LATENCY_REPEATS", 1)
        monkeypatch.setattr(analysis, "LATENCY_WARMUP", 0)
        cfg, mllm, det, state, scenes = trainable
        images = np.stack([s.image for s in scenes])
        ids, valid = pad_token_rows([s.caption for s in scenes])
        passes = {
            "grounded_outputs": lambda: tr.grounded_outputs(
                cfg, mllm, det, scenes, state=state),
            "evaluate": lambda: tr.evaluate(cfg, mllm, det, scenes,
                                            state=state),
            "cache_vision": lambda: tr.cache_vision(mllm, scenes, chunk=4),
            "Stage3Cache": lambda: tr.Stage3Cache(mllm, det, scenes, 3,
                                                  chunk=cfg.eval_chunk),
            "attention_medians": lambda: attention_medians(mllm, images, ids,
                                                           valid),
            "compute_report": lambda: compute_report(
                cfg.detector, cfg.mllm,
                dataclasses.replace(cfg.adapter, arch="I"),
                measure_latency=True),
        }
        for name, run in passes.items():
            made.clear()
            run()
            assert made, name
            assert not any(n.requires_grad for n in made), name

    def test_fused_outputs_still_tapes(self, made, trainable):
        cfg, mllm, det, state, scenes = trainable
        boxes, logits = tr.fused_outputs(
            cfg, mllm, det, tr.patch_tokens(mllm, scenes), scenes, state)
        assert boxes.requires_grad and logits.requires_grad
        assert any(n.requires_grad for n in made)
