"""Diagnostic instruments around the fusion experiment.

Three tools, each with a CSV emitter:

* ``attention_medians``  - per-layer medians of the LM decoder's pre-softmax
  scaled attention scores, split by key modality (system / vision / text);
* ``layer_sweep``        - trains one fresh adapter per (LM tap depth, seed)
  pair on shared frozen backbones and records grounding metrics;
* ``compute_report``     - a four-column cost table (framework, params,
  GFLOPs, latency) with a baseline detector row, additive delta rows for the
  adapter and the LM prompt path, and a fused total.

FLOPs follow the tensor core's metering conventions (2 per multiply-add, 1
per element-wise output, 3 per softmax element, movement free).  Every count
is produced twice - a closed-form expression from the configs and a metered
forward of the real modules - and the two routes are reported side by side so
tests can require exact agreement.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from . import training as tr
from .adapter import (AdapterConfig, FusionHook, FusionState,
                      adapter_param_count, adapter_param_flops)
from .config import ExperimentConfig
from .detector import DetectorConfig, GroundingDetector, pool_phrases
from .layers import linear_flops, mha_flops
from .mllm import TAG_SYSTEM, TAG_TEXT, TAG_VISION, MiniMllm, MllmConfig
from .scenes import PACK_WIDTH
from .tensor import FlopsMeter, UsageError

# canonical workload for cost reports: one scene with a full candidate set
# (fixed packed text width, one pooled slot per query) and the longest query
# phrase the grammar can produce on the LM side
REPORT_TEXT_WIDTH = PACK_WIDTH
REPORT_LM_TEXT = 8

MODALITIES = (("system", TAG_SYSTEM), ("vision", TAG_VISION), ("text", TAG_TEXT))


# ---------------------------------------------------------------------------
# attention-score medians
# ---------------------------------------------------------------------------


@dataclass
class AttentionProfile:
    """Per-layer medians of pre-softmax scaled scores, one value per key
    modality; layer l is the attention inside decoder layer l (1-based)."""

    medians: dict[str, list[float]]

    def __post_init__(self):
        if set(self.medians) != {name for name, _ in MODALITIES}:
            raise UsageError(
                f"profile needs exactly the modalities "
                f"{sorted(n for n, _ in MODALITIES)}, got {sorted(self.medians)}")
        depths = {len(v) for v in self.medians.values()}
        if len(depths) != 1:
            raise UsageError(f"modalities disagree on layer count: {depths}")
        for name, vals in self.medians.items():
            if not np.all(np.isfinite(vals)):
                raise UsageError(f"non-finite median in {name!r}: {vals}")

    @property
    def depth(self) -> int:
        return len(self.medians["vision"])

    def layer_rows(self) -> list[dict]:
        return [{"layer": l, "modality": name, "median": self.medians[name][l - 1]}
                for l in range(1, self.depth + 1)
                for name, _ in MODALITIES]


def attention_medians(mllm: MiniMllm, images: np.ndarray, text_ids: np.ndarray,
                      text_valid: np.ndarray | None = None) -> AttentionProfile:
    """Run the LM on a captioning batch and aggregate raw attention scores.

    Per layer and key modality: the median of Q.K/sqrt(d_head) over every
    (query, key) pair the causal/padding mask admits, taken per head and
    batch element, then averaged.  Scores are pre-softmax, so gating by the
    later normalization never hides scale differences between modalities.
    The LM runs with no tape recorded.
    """
    ids = np.asarray(text_ids, dtype=np.intp)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise UsageError(
            f"attention_medians needs a [B, T>=1] text batch, got {ids.shape}")
    with T.no_tape():
        vis = mllm.align_vision(mllm.encode_image(
            T.constant(np.asarray(images, dtype=np.float64))))
        x, layout = mllm.embed_from_aligned(vis, ids)
        with T.attention_tap() as taps:
            mllm.forward(x, layout, text_valid)
    scores = [s for s, _ in taps]
    admitted = np.isfinite(
        np.broadcast_to(mllm.sequence_mask(layout, text_valid), scores[0].shape))
    medians: dict[str, list[float]] = {name: [] for name, _ in MODALITIES}
    for s in scores:
        b, h = s.shape[:2]
        for name, tag in MODALITIES:
            sel = admitted & (layout.tags == tag)[None, None, None, :]
            per = np.empty((b, h))
            for i in range(b):
                for j in range(h):
                    vals = s[i, j][sel[i, j]]
                    if vals.size == 0:
                        raise UsageError(
                            f"batch row {i} admits no {name!r} keys")
                    per[i, j] = np.median(vals)
            medians[name].append(float(per.mean()))
    return AttentionProfile(medians)


def write_attention_csv(profile: AttentionProfile, path: str | Path) -> None:
    _write_csv(path, ["layer", "modality", "median"],
               [[r["layer"], r["modality"], repr(r["median"])]
                for r in profile.layer_rows()])


# ---------------------------------------------------------------------------
# adapter-depth ablation sweep
# ---------------------------------------------------------------------------


@dataclass
class AblationResult:
    """One sweep point: the LM tap depth tried, the adapter seed, and the
    grounding metrics per evaluation split."""

    l_lm: int
    seed: int
    metrics: dict[str, dict]

    def __post_init__(self):
        if self.l_lm < 0:
            raise UsageError(f"l_lm must be >= 0, got {self.l_lm}")


def layer_sweep(cfg: ExperimentConfig, mllm: MiniMllm, det: GroundingDetector,
                projector_snap: dict[str, np.ndarray],
                train_scenes, val_splits: dict,
                l_lm_values, seeds, cache: tr.Stage3Cache | None = None,
                progress=None) -> list[AblationResult]:
    """Train one fresh adapter per (l_lm, seed) on the shared backbones.

    Depth 0 taps the embedded sequence before any decoder layer (the
    vision-projector-only arm).  All points share one frozen-activation
    cache; each point restores the stage-2 projector, so results per point
    are independent of sweep order and bit-reproducible.
    """
    if projector_snap is None:
        raise UsageError("layer_sweep needs the stage-2 projector snapshot")
    bad = [l for l in l_lm_values if not 0 <= l <= mllm.cfg.n]
    if bad:
        raise UsageError(
            f"l_lm values {bad} outside the decoder depth range 0..{mllm.cfg.n}")
    if cache is None:
        cache = tr.Stage3Cache(mllm, det, train_scenes,
                               cfg.adapter_config().l_d, chunk=cfg.eval_chunk)
    results = []
    for seed in seeds:
        for l_lm in l_lm_values:
            point_cfg = replace(cfg, run_seed=seed)
            _, report = tr.run_stage3_experiment(
                point_cfg, mllm, det, projector_snap, train_scenes, val_splits,
                cache=cache, l_lm=l_lm)
            metrics = {split: {k: v for k, v in m.items() if k != "per_scene"}
                       for split, m in report["metrics"].items()}
            results.append(AblationResult(l_lm=l_lm, seed=seed, metrics=metrics))
            if progress is not None:
                progress(results[-1])
    return results


def sweep_means(results: list[AblationResult], split: str, key: str
                ) -> dict[int, float]:
    """Mean of one metric per l_lm across seeds."""
    buckets: dict[int, list[float]] = {}
    for r in results:
        if split not in r.metrics or key not in r.metrics[split]:
            raise UsageError(f"sweep point has no metric {split}/{key}")
        buckets.setdefault(r.l_lm, []).append(float(r.metrics[split][key]))
    return {l: float(np.mean(v)) for l, v in sorted(buckets.items())}


def rank_layers(results: list[AblationResult], split: str = "val-spatial",
                key: str = "acc") -> list[tuple[int, float]]:
    """Tap depths ordered best-first by the mean of one metric."""
    means = sweep_means(results, split, key)
    return sorted(means.items(), key=lambda kv: (-kv[1], kv[0]))


def write_ablation_csv(results: list[AblationResult], path: str | Path) -> None:
    cols: list[str] = []
    for r in results:
        for split in sorted(r.metrics):
            for k, v in sorted(r.metrics[split].items()):
                if isinstance(v, (int, float)) and f"{split}/{k}" not in cols:
                    cols.append(f"{split}/{k}")
    cols.sort()
    rows = []
    for r in results:
        flat = {f"{split}/{k}": v for split, m in r.metrics.items()
                for k, v in m.items() if isinstance(v, (int, float))}
        rows.append([r.l_lm, r.seed] + [repr(flat[c]) if c in flat else ""
                                        for c in cols])
    _write_csv(path, ["l_lm", "seed"] + cols, rows)


# ---------------------------------------------------------------------------
# closed-form FLOP expressions (mirroring the op-level conventions)
# ---------------------------------------------------------------------------


def _layernorm_flops(rows: int, d: int) -> int:
    return 7 * rows * d + 4 * rows


def _mlp_flops(rows: int, d_in: int, d_hidden: int, d_out: int) -> int:
    return (linear_flops(rows, d_in, d_hidden) + rows * d_hidden
            + linear_flops(rows, d_hidden, d_out))


def _lm_block_flops(n_seq: int, d: int, heads: int, mlp_ratio: int) -> int:
    return (_layernorm_flops(n_seq, d)
            + mha_flops(1, n_seq, n_seq, d, heads, rope=True) + n_seq * d
            + _layernorm_flops(n_seq, d)
            + _mlp_flops(n_seq, d, mlp_ratio * d, d) + n_seq * d)


def patch_encoder_flops(mcfg: MllmConfig) -> int:
    """Shared frozen patch embedding of one image."""
    h, w = mcfg.grid
    p = h * w
    return 2 * p * mcfg.d_patch * mcfg.d_patch + p * mcfg.d_patch


def detector_forward_flops(dcfg: DetectorConfig, n_patches: int, d_patch: int,
                           text_width: int, n_cand: int) -> int:
    """Detector inference on one scene's encoded patches: vision/text
    encoders, phrase pooling, the decoder stack, and both heads."""
    d, h, q, w = dcfg.d, dcfg.heads, dcfg.queries, text_width
    f = linear_flops(n_patches, d_patch, d) + n_patches * d
    f += (mha_flops(1, w, w, d, h, rope=True) + w * d
          + _layernorm_flops(w, d))                       # text encoder
    f += 2 * n_cand * w * d                               # phrase pooling
    per_layer = (_layernorm_flops(q, d) + mha_flops(1, q, q, d, h) + q * d
                 + _layernorm_flops(q, d) + mha_flops(1, q, n_patches, d, h)
                 + q * d
                 + _layernorm_flops(q, d) + mha_flops(1, q, w, d, h) + q * d
                 + _layernorm_flops(q, d)
                 + _mlp_flops(q, d, dcfg.mlp_ratio * d, d) + q * d)
    f += dcfg.depth * per_layer
    f += _layernorm_flops(q, d)                           # output norm
    f += _mlp_flops(q, d, d, 4) + q * 4                   # box head
    f += linear_flops(q, d, d)                            # class projection
    f += 2 * q * d * n_cand + q * n_cand                  # candidate logits
    f += 2 * q * d + q                                    # background column
    return f


def prompt_path_flops(mcfg: MllmConfig, l_lm: int, lm_text: int = 0) -> int:
    """LM-side cost of producing one scene's adapter prompts, on top of the
    shared patch encoding: the vision projector plus ``l_lm`` decoder
    layers."""
    f = _mlp_flops(mcfg.l_v, mcfg.proj_in, mcfg.proj_hidden, mcfg.d_lm)
    n_seq = mcfg.sys_len + mcfg.l_v + lm_text
    return f + l_lm * _lm_block_flops(n_seq, mcfg.d_lm, mcfg.heads,
                                      mcfg.mlp_ratio)


# ---------------------------------------------------------------------------
# cost report: metered + analytic, baseline + additive deltas
# ---------------------------------------------------------------------------


def _even_spans(width: int, count: int) -> list[tuple[int, int]]:
    edges = np.linspace(0, width, count + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(count)]


def median_latency_ms(fn, repeats: int = 50, warmup: int = 5) -> float:
    """Median wall-clock of ``fn()`` over warm repetitions, in milliseconds."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(samples))


def compute_report(dcfg: DetectorConfig, mcfg: MllmConfig, acfg: AdapterConfig,
                   measure_latency: bool = False,
                   repeats: int = 50, warmup: int = 5) -> list[dict]:
    """Cost rows for the fused pipeline on the canonical one-scene workload.

    Rows: the detector baseline (shared patch encoder included), additive
    deltas for the adapter and for the LM prompt path, and the fused total.
    Each row carries parameter counts, analytic FLOPs from the configs, and
    independently metered FLOPs from a real forward; the total row's metered
    count comes from one full fused pass, so the additivity of the deltas is
    itself a measured fact rather than an identity of the formulas.  Latency
    (median of warm repetitions, single scene) is optional because wall-clock
    is the one column that cannot be reproduced from the config alone.  The
    metered and timed passes record no tape, so latency is the forward alone.
    """
    if acfg.grid != mcfg.aligned_grid:
        raise UsageError(
            f"adapter grid {acfg.grid} != aligned LM grid {mcfg.aligned_grid}")
    if acfg.d != dcfg.d or acfg.d_lm != mcfg.d_lm:
        raise UsageError(
            f"adapter widths (d={acfg.d}, d_lm={acfg.d_lm}) do not match "
            f"detector d={dcfg.d} / LM d={mcfg.d_lm}")
    b = 1                                     # the workload is one scene
    rng = np.random.default_rng(0)
    mllm = MiniMllm(mcfg, rng)
    h, w = mcfg.grid
    det = GroundingDetector(dcfg, mcfg.d_patch, h * w, rng)
    state = FusionState(acfg, rng)

    images = T.constant(rng.standard_normal((b, 3, mcfg.canvas, mcfg.canvas)) * 0.1)
    det_ids = rng.integers(1, dcfg.vocab, (b, REPORT_TEXT_WIDTH))
    det_valid = np.ones((b, REPORT_TEXT_WIDTH), dtype=bool)
    spans = [_even_spans(REPORT_TEXT_WIDTH, dcfg.queries)] * b
    lm_ids = rng.integers(1, mcfg.vocab, (b, REPORT_LM_TEXT))
    lm_valid = np.ones((b, REPORT_LM_TEXT), dtype=bool)

    def lm_prompts(patches):
        vis = mllm.align_vision(patches)
        if acfg.text_fusion:
            return mllm.hidden_from_aligned(vis, acfg.l_lm, lm_ids, lm_valid)
        return mllm.hidden_from_aligned(vis, acfg.l_lm)

    def detector_core(e_vis, hook=None):
        e_txt = det.encode_text(det_ids, det_valid)
        pooled, counts = pool_phrases(e_txt, spans, dcfg.queries)
        return tr._detector_outputs(det, e_vis,
                                    (e_txt, det_valid, pooled, counts), hook)

    with T.no_tape():
        with FlopsMeter() as m_patch:
            patches = mllm.encode_image(images)
        with FlopsMeter() as m_core:
            detector_core(det.encode_vision(patches))
        with FlopsMeter() as m_lm:
            e_v_l, e_t = lm_prompts(patches)
        e_vis = det.encode_vision(patches)
        q_probe = T.constant(rng.standard_normal((b, dcfg.queries, dcfg.d)))

        def adapter_forward():
            FusionHook(state, e_v_l, e_t, e_t_valid=lm_valid)(q_probe, e_vis)

        with FlopsMeter() as m_adapter:
            adapter_forward()

        def fused_forward():
            patches = mllm.encode_image(images)
            e_v_l, e_t = lm_prompts(patches)
            e_vis = det.encode_vision(patches)
            hook = FusionHook(state, e_v_l, e_t, e_t_valid=lm_valid)
            return detector_core(e_vis, hook=hook)

        with FlopsMeter() as m_total:
            fused_forward()

        lat = {"detector": None, "+adapter": None, "+lm-prompts": None, "total": None}
        if measure_latency:
            lat["detector"] = median_latency_ms(
                lambda: detector_core(det.encode_vision(mllm.encode_image(images))),
                repeats, warmup)
            lat["+adapter"] = median_latency_ms(adapter_forward, repeats, warmup)
            lat["+lm-prompts"] = median_latency_ms(
                lambda: lm_prompts(patches), repeats, warmup)
            lat["total"] = median_latency_ms(fused_forward, repeats, warmup)

    p_grid = h * w
    a_patch = patch_encoder_flops(mcfg)
    a_core = detector_forward_flops(dcfg, p_grid, mcfg.d_patch,
                                    REPORT_TEXT_WIDTH, dcfg.queries)
    a_lm = prompt_path_flops(mcfg, acfg.l_lm,
                             REPORT_LM_TEXT if acfg.text_fusion else 0)
    _, a_adapter = adapter_param_flops(
        acfg, b=b, t_queries=p_grid if acfg.fuses_vision else dcfg.queries,
        text_len=REPORT_LM_TEXT)

    p_det = mllm.vision.param_count() + det.param_count()
    p_adapter = adapter_param_count(state)
    p_lm = (mllm.projector.param_count() + mllm.sys_embed.size
            + sum(blk.param_count() for blk in mllm.blocks[:acfg.l_lm])
            + (mllm.tok_embed.size if acfg.text_fusion else 0))

    rows = [
        {"framework": "detector", "params": p_det,
         "flops_analytic": a_patch + a_core,
         "flops_metered": m_patch.accumulated + m_core.accumulated,
         "latency_ms": lat["detector"]},
        {"framework": "+adapter", "params": p_adapter,
         "flops_analytic": a_adapter, "flops_metered": m_adapter.accumulated,
         "latency_ms": lat["+adapter"]},
        {"framework": "+lm-prompts", "params": p_lm,
         "flops_analytic": a_lm, "flops_metered": m_lm.accumulated,
         "latency_ms": lat["+lm-prompts"]},
        {"framework": "total", "params": p_det + p_adapter + p_lm,
         "flops_analytic": a_patch + a_core + a_adapter + a_lm,
         "flops_metered": m_total.accumulated,
         "latency_ms": lat["total"]},
    ]
    return rows


def write_compute_csv(rows: list[dict], path: str | Path) -> None:
    table = []
    for r in rows:
        lat = "" if r["latency_ms"] is None else f"{r['latency_ms']:.3f}"
        table.append([r["framework"], r["params"],
                      f"{r['flops_metered'] / 1e9:.6f}", lat])
    _write_csv(path, ["Framework", "Params", "GFLOPs", "Latency"], table)


# ---------------------------------------------------------------------------
# shared CSV plumbing
# ---------------------------------------------------------------------------


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

