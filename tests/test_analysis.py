"""Diagnostics: attention medians vs a sort oracle, the adapter-depth sweep,
and the two-route (metered vs closed-form) cost accounting."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import fusedet.tensor as T
from fusedet import analysis
from fusedet.adapter import AdapterConfig
from fusedet.analysis import (MODALITIES, adapter_param_flops,
                              attention_medians, compute_report, layer_sweep,
                              median_latency_ms, mha_flops, rank_layers,
                              write_ablation_csv, write_attention_csv,
                              write_compute_csv)
from fusedet.config import ExperimentConfig
from fusedet.detector import DetectorConfig
from fusedet.layers import MLP_RATIO, MultiHeadAttention
from fusedet.mllm import MiniMllm, MllmConfig
from fusedet import training as tr
from fusedet.scenes import VOCAB
from fusedet.tensor import ConfigurationError, FlopsMeter, UsageError


def read_csv(path):
    """(header, rows) of a CSV the analysis writers produced."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def small_mllm(n=2, seed=5):
    cfg = MllmConfig(d_lm=16, n=n, heads=2, patch=4, shuffle_r=2, canvas=16,
                     proj_hidden=24, sys_len=2)
    return MiniMllm(cfg, np.random.default_rng(seed))


def small_batch(rng, b=2, t=5, canvas=16, vocab=64):
    images = rng.standard_normal((b, 3, canvas, canvas)) * 0.2
    ids = rng.integers(1, vocab, (b, t))
    valid = np.ones((b, t), dtype=bool)
    valid[0, t - 1] = False
    return images, ids, valid


# ---------------------------------------------------------------------------
# attention medians
# ---------------------------------------------------------------------------


def by_modality(rows):
    """{modality: [median per layer]} of ``attention_medians`` rows."""
    out = {name: [] for name in MODALITIES}
    for r in rows:
        out[r["modality"]].append(r["median"])
    return out


def oracle_medians(mllm, images, ids, valid):
    """Independent aggregation: explicit loops over admissible (query, key)
    pairs and a sort-based median."""
    vis = mllm.align_vision(mllm.encode_image(
        T.constant(np.asarray(images, float))))
    x = mllm.embed_from_aligned(vis, np.asarray(ids, dtype=np.intp))
    with T.attention_tap() as taps:
        mllm.forward(x, valid)
    scores = [s for s, _ in taps]
    n = x.shape[1]
    v0 = mllm.cfg.sys_len
    t0 = v0 + mllm.cfg.l_v
    modality = ["system"] * v0 + ["vision"] * (t0 - v0) + ["text"] * (n - t0)
    out = {"system": [], "vision": [], "text": []}
    for s in scores:
        b, h = s.shape[:2]
        for name in out:
            per = np.empty((b, h))
            for i in range(b):
                for j in range(h):
                    vals = []
                    for q in range(n):
                        for k in range(n):
                            if k > q or modality[k] != name:
                                continue
                            if k >= t0 and not valid[i, k - t0]:
                                continue
                            vals.append(s[i, j, q, k])
                    srt = sorted(vals)
                    m = len(srt)
                    per[i, j] = (srt[m // 2] if m % 2
                                 else (srt[m // 2 - 1] + srt[m // 2]) / 2)
            out[name].append(float(per.mean()))
    return out


class TestAttentionMedians:
    def test_profile_depth_matches_model(self):
        mllm = small_mllm(n=3)
        images, ids, valid = small_batch(np.random.default_rng(0))
        rows = attention_medians(mllm, images, ids, valid)
        assert [(r["layer"], r["modality"]) for r in rows] == [
            (layer, name) for layer in (1, 2, 3) for name in MODALITIES]

    def test_matches_sort_oracle(self):
        mllm = small_mllm(n=2)
        images, ids, valid = small_batch(np.random.default_rng(1))
        got = by_modality(attention_medians(mllm, images, ids, valid))
        assert got == oracle_medians(mllm, images, ids, valid)

    def test_zero_key_projection_gives_zero_medians(self):
        # zero K rows make every dot product exactly zero (RoPE rotates the
        # zero vector to itself), so all medians are exactly 0
        mllm = small_mllm(n=1)
        blk = mllm.blocks[0]
        blk.attn.wk.zero_()
        images, ids, valid = small_batch(np.random.default_rng(2))
        rows = attention_medians(mllm, images, ids, valid)
        assert [r["median"] for r in rows] == [0.0] * len(MODALITIES)

    def test_deterministic(self):
        mllm = small_mllm()
        images, ids, valid = small_batch(np.random.default_rng(3))
        a = attention_medians(mllm, images, ids, valid)
        b = attention_medians(mllm, images, ids, valid)
        assert json.dumps(a) == json.dumps(b)

    def test_requires_text_tokens(self):
        mllm = small_mllm()
        images = np.zeros((1, 3, 16, 16))
        with pytest.raises(UsageError, match="text batch"):
            attention_medians(mllm, images, np.zeros((1, 0), dtype=np.intp))

    def test_fully_masked_row_rejected(self):
        mllm = small_mllm()
        images, ids, valid = small_batch(np.random.default_rng(4))
        valid[1, :] = False
        with pytest.raises(UsageError, match="admits no"):
            attention_medians(mllm, images, ids, valid)

    def test_csv_round_trip(self, tmp_path):
        mllm = small_mllm(n=2)
        images, ids, valid = small_batch(np.random.default_rng(6))
        prof = attention_medians(mllm, images, ids, valid)
        path = tmp_path / "attention_profile.csv"
        write_attention_csv(prof, path)
        header, rows = read_csv(path)
        assert header == ["layer", "modality", "median"]
        assert len(rows) == 6
        assert float(rows[1][2]) == by_modality(prof)[rows[1][1]][0]


# ---------------------------------------------------------------------------
# layer sweep
# ---------------------------------------------------------------------------


def sweep_config():
    return ExperimentConfig(
        n_pretrain=24, n_train=24, n_val=12,
        pretrain_steps=8, s1_steps=6, s2_steps=4, s3_steps=4, sub_steps=4,
        pretrain_batch=4, s1_batch=4, s2_batch=4, s3_batch=4, sub_batch=4,
        eval_chunk=8)


@pytest.fixture(scope="module")
def sweep_bench():
    cfg = sweep_config()
    mllm, det, _ = tr.prepare_backbones(cfg)
    snap = tr.snapshot(mllm.projector)
    train = tr.load_split(cfg, "train")
    vals = {"val-category": tr.load_split(cfg, "val-category"),
            "val-spatial": tr.load_split(cfg, "val-spatial")}
    return cfg, mllm, det, snap, train, vals


class TestLayerSweep:
    def test_point_count_and_fields(self, sweep_bench):
        cfg, mllm, det, snap, train, vals = sweep_bench
        res = layer_sweep(cfg, mllm, det, snap, train, vals,
                          l_lm_values=[0, 1, 4], seeds=[0, 1])
        assert len(res) == 6
        assert sorted({(r["l_lm"], r["seed"]) for r in res}) == [
            (0, 0), (0, 1), (1, 0), (1, 1), (4, 0), (4, 1)]
        for r in res:
            assert {c.split("/")[0] for c in r if "/" in c} == {
                "val-category", "val-spatial"}
            assert "val-category/per_scene" not in r

    def test_progress_sees_every_row_in_order(self, sweep_bench):
        cfg, mllm, det, snap, train, vals = sweep_bench
        seen = []
        res = layer_sweep(cfg, mllm, det, snap, train, vals,
                          l_lm_values=[2, 0], seeds=[1], progress=seen.append)
        assert [(r["l_lm"], r["seed"]) for r in res] == [(2, 1), (0, 1)]
        assert len(seen) == len(res)
        assert all(a is b for a, b in zip(seen, res))

    def test_depth_zero_taps_pre_decoder_state(self, sweep_bench):
        cfg, mllm, det, snap, train, vals = sweep_bench
        rng = np.random.default_rng(7)
        vis = T.constant(rng.standard_normal((2, mllm.cfg.l_v, mllm.cfg.d_lm)))
        e_v, _ = mllm.hidden_from_aligned(vis, 0)
        assert np.array_equal(e_v.data, vis.data)

    def test_out_of_range_depth_rejected(self, sweep_bench):
        """A point's config is built, and so checked, before any point
        trains: the tap past the LM's 4 layers is refused by name."""
        cfg, mllm, det, snap, train, vals = sweep_bench
        with pytest.raises(ConfigurationError,
                           match=r"^l_lm 9 outside \[0, 4\]$"):
            layer_sweep(cfg, mllm, det, snap, train, vals,
                        l_lm_values=[0, 9], seeds=[0])

    def test_negative_depth_rejected(self, sweep_bench):
        cfg, mllm, det, snap, train, vals = sweep_bench
        with pytest.raises(ConfigurationError,
                           match=r"^l_lm -1 outside \[0, 4\]$"):
            layer_sweep(cfg, mllm, det, snap, train, vals,
                        l_lm_values=[-1, 1], seeds=[0])

    def test_missing_snapshot_rejected(self, sweep_bench):
        cfg, mllm, det, snap, train, vals = sweep_bench
        with pytest.raises(UsageError, match="projector snapshot"):
            layer_sweep(cfg, mllm, det, None, train, vals,
                        l_lm_values=[1], seeds=[0])

    def test_points_reproduce_bitwise(self, sweep_bench):
        cfg, mllm, det, snap, train, vals = sweep_bench
        runs = [layer_sweep(cfg, mllm, det, snap, train, vals,
                            l_lm_values=[2], seeds=[3])[0]
                for _ in range(2)]
        assert json.dumps(runs[0]) == json.dumps(runs[1])

    def test_means_and_ranking(self, sweep_bench):
        cfg, mllm, det, snap, train, vals = sweep_bench
        res = layer_sweep(cfg, mllm, det, snap, train, vals,
                          l_lm_values=[0, 2], seeds=[0, 1])
        ranked = rank_layers(res)
        assert [l for l, _ in sorted(ranked)] == [0, 2]
        for l_lm, mean in ranked:
            vals_l = [r["val-spatial/acc"] for r in res if r["l_lm"] == l_lm]
            assert mean == pytest.approx(np.mean(vals_l))
        assert ranked[0][1] >= ranked[1][1]
        with pytest.raises(UsageError, match="no column"):
            rank_layers([{k: v for k, v in r.items() if k != "val-spatial/acc"}
                         for r in res])

    def test_ablation_csv(self, sweep_bench, tmp_path):
        cfg, mllm, det, snap, train, vals = sweep_bench
        res = layer_sweep(cfg, mllm, det, snap, train, vals,
                          l_lm_values=[1], seeds=[0, 1])
        path = tmp_path / "ablation.csv"
        write_ablation_csv(res, path)
        header, rows = read_csv(path)
        assert header[:2] == ["l_lm", "seed"]
        assert "val-spatial/acc" in header
        assert len(rows) == 2
        col = header.index("val-spatial/acc")
        assert float(rows[0][col]) == res[0]["val-spatial/acc"]

    def test_first_layer_preset_sweeps(self, sweep_bench):
        """An Arch III sweep builds its cache for the preset's layer 1 and
        reproduces a direct run of the same weights injected at layer 1."""
        cfg, mllm, det, snap, train, vals = sweep_bench
        cfg3 = replace(cfg, adapter=replace(cfg.adapter, arch="III"))
        res = layer_sweep(cfg3, mllm, det, snap, train, vals,
                          l_lm_values=[1], seeds=[0])
        arm = replace(cfg, run_seed=0, adapter=replace(
            cfg.adapter, arch="II", l_lm=1, l_d=1))
        _, direct = tr.run_stage3_experiment(arm, mllm, det, snap, train, vals)
        assert direct["config"]["adapter.l_d"] == 1
        want = {"l_lm": 1, "seed": 0}
        for split, m in direct["metrics"].items():
            want.update((f"{split}/{k}", v) for k, v in m.items()
                        if k != "per_scene")
        assert res[0] == want


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------


def random_accounting_configs(rng):
    heads = int(rng.choice([2, 4]))
    d = int(rng.choice([16, 32]))
    d_lm = int(rng.choice([16, 32]))
    canvas = int(rng.choice([16, 32]))
    r = int(rng.choice([1, 2]))
    n = int(rng.integers(1, 4))
    mcfg = MllmConfig(d_lm=d_lm, n=n, heads=heads, patch=4, canvas=canvas,
                      shuffle_r=r, proj_hidden=int(rng.choice([16, 24])),
                      sys_len=int(rng.integers(1, 3)))
    dcfg = DetectorConfig(d=d, heads=heads, depth=int(rng.integers(1, 4)),
                          queries=int(rng.integers(2, 5)))
    arch = ("I", "II", "III", "IV")[rng.integers(4)]
    l_lm = int(rng.integers(0, n + 1))
    # l_d is drawn for every arch so later draws stay put; I and III pin 1
    l_d = int(rng.integers(1, dcfg.depth + 1))
    acfg = AdapterConfig(arch=arch, l_lm=l_lm,
                         l_d=1 if arch in ("I", "III") else l_d,
                         conv_stride=int(rng.choice([1, 2])))
    return dcfg, mcfg, acfg


class TestComputeReport:
    @pytest.mark.parametrize("arch", ["I", "II", "III", "IV"])
    def test_metered_equals_analytic(self, arch):
        cfg = ExperimentConfig()
        rows = compute_report(cfg.detector, cfg.mllm,
                              replace(cfg.adapter, arch=arch))
        for row in rows:
            assert row["flops_metered"] == row["flops_analytic"], row["framework"]

    def test_random_configs_metered_equals_analytic(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            dcfg, mcfg, acfg = random_accounting_configs(rng)
            rows = compute_report(dcfg, mcfg, acfg)
            for row in rows:
                assert row["flops_metered"] == row["flops_analytic"], \
                    (row["framework"], acfg.arch)

    def test_deltas_additive(self):
        cfg = ExperimentConfig()
        rows = compute_report(cfg.detector, cfg.mllm,
                              cfg.adapter)
        total = rows[-1]
        assert total["framework"] == "total"
        assert total["flops_metered"] == sum(r["flops_metered"]
                                             for r in rows[:-1])
        assert total["flops_analytic"] == sum(r["flops_analytic"]
                                              for r in rows[:-1])
        assert total["params"] == sum(r["params"] for r in rows[:-1])

    def test_adapter_row_params_match_closed_form(self):
        cfg = ExperimentConfig()
        acfg = cfg.adapter
        rows = compute_report(cfg.detector, cfg.mllm, acfg)
        assert rows[1]["framework"] == "+adapter"
        params, _ = adapter_param_flops(acfg, cfg.mllm, cfg.detector,
                                        cfg.detector.queries)
        assert rows[1]["params"] == params

    def test_detector_row_params_match_hand_count(self):
        cfg = ExperimentConfig()
        dcfg, mcfg = cfg.detector, cfg.mllm
        rows = compute_report(dcfg, mcfg, cfg.adapter)
        d, q, v = dcfg.d, dcfg.queries, VOCAB
        dp = mcfg.d_patch
        p = mcfg.grid[0] * mcfg.grid[1]
        mha = 4 * (d * d + d)
        ln = 2 * d
        mlp = d * (MLP_RATIO * d) + MLP_RATIO * d + (MLP_RATIO * d) * d + d
        per_layer = 4 * ln + 3 * mha + mlp
        det_params = (dp * d + d) + p * d + (v * d + mha + ln) + q * d \
            + dcfg.depth * per_layer + ln + (d * d + d + d * 4 + 4) \
            + (d * d + d) + d
        patch_params = dp * dp + dp
        assert rows[0]["params"] == det_params + patch_params

    @pytest.mark.parametrize("rope", [False, True])
    def test_mha_batch_scales_the_closed_form(self, rope):
        """Two batch rows of ``MultiHeadAttention`` cost twice the per-row
        closed form."""
        rng = np.random.default_rng(13)
        mha = MultiHeadAttention(8, 2, rng, rope_base=100.0 if rope else None)
        x_q = T.constant(rng.standard_normal((2, 3, 8)))
        x_kv = T.constant(rng.standard_normal((2, 5, 8)))
        with FlopsMeter() as meter:
            mha(x_q, x_kv)
        assert meter.accumulated == 2 * mha_flops(3, 5, 8, 2, rope=rope)

    def test_csv_schema(self, tmp_path):
        cfg = ExperimentConfig()
        rows = compute_report(cfg.detector, cfg.mllm,
                              cfg.adapter)
        path = tmp_path / "compute_report.csv"
        write_compute_csv(rows, path)
        header, table = read_csv(path)
        assert header == ["Framework", "Params", "GFLOPs", "Latency"]
        assert [r[0] for r in table] == ["detector", "+adapter",
                                        "+lm-prompts", "total"]
        for r in table:
            assert int(r[1]) > 0
            assert float(r[2]) > 0
            assert r[3] == ""

    def test_latency_measured_on_request(self, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "LATENCY_REPEATS", 3)
        monkeypatch.setattr(analysis, "LATENCY_WARMUP", 1)
        rng = np.random.default_rng(12)
        dcfg, mcfg, acfg = random_accounting_configs(rng)
        rows = compute_report(dcfg, mcfg, acfg, measure_latency=True)
        for row in rows:
            assert row["latency_ms"] > 0
        path = tmp_path / "compute_report.csv"
        write_compute_csv(rows, path)
        _, table = read_csv(path)
        assert all(float(r[3]) > 0 for r in table)

    def test_median_latency_is_positive(self, monkeypatch):
        monkeypatch.setattr(analysis, "LATENCY_REPEATS", 5)
        monkeypatch.setattr(analysis, "LATENCY_WARMUP", 1)
        assert median_latency_ms(lambda: sum(range(100))) > 0
