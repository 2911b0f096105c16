"""Diagnostic instruments around the fusion experiment.

Three tools, each returning plain rows (one dict per line of its table)
that its CSV emitter writes as they are:

* ``attention_medians``  - per-layer medians of the LM decoder's pre-softmax
  scaled attention scores, split by key modality (system / vision / text);
* ``layer_sweep``        - trains one fresh adapter per (LM tap depth, seed)
  pair on shared frozen backbones and records grounding metrics, one flat
  ``l_lm, seed, <split>/<metric>`` row per point; ``rank_layers`` orders the
  depths by the mean of one column;
* ``compute_report``     - a four-column cost table (framework, params,
  GFLOPs, latency) with a baseline detector row, additive delta rows for the
  adapter and the LM prompt path, and a fused total.

This module is the only home of the closed-form cost model: one scene's
FLOPs and parameters for every row, worked out from the configs alone.  FLOPs
follow the tensor core's metering conventions (2 per multiply-add, 1 per
element-wise output, 3 per softmax element, movement free).  Every count is
produced twice - the closed form and a metered forward of the real modules -
and the two routes are reported side by side so tests can require exact
agreement.
"""

from __future__ import annotations

import csv
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import tensor as T
from . import training as tr
from .adapter import CONV_K, AdapterConfig, FusionHook, FusionState
from .config import ExperimentConfig
from .detector import DetectorConfig, GroundingDetector, pool_phrases
from .layers import MLP_RATIO
from .mllm import MiniMllm, MllmConfig
from .scenes import PACK_WIDTH, VOCAB
from .tensor import FlopsMeter, UsageError

# canonical workload for cost reports: one scene with a full candidate set
# (text packed at PACK_WIDTH, one pooled slot per query) and, on the LM side,
# the longest query phrase the grammar can produce
REPORT_LM_TEXT = 8
# warm-up calls and timed repetitions behind each latency figure
LATENCY_WARMUP = 5
LATENCY_REPEATS = 50
# the sweep column ``rank_layers`` orders the tap depths by
RANK_COLUMN = "val-spatial/acc"

MODALITIES = ("system", "vision", "text")


# ---------------------------------------------------------------------------
# attention-score medians
# ---------------------------------------------------------------------------


def attention_medians(mllm: MiniMllm, images: np.ndarray, text_ids: np.ndarray,
                      text_valid: np.ndarray | None = None) -> list[dict]:
    """Run the LM on a captioning batch and aggregate raw attention scores.

    Per layer and key modality: the median of Q.K/sqrt(d_head) over every
    (query, key) pair the causal/padding mask admits, taken per head and
    batch element, then averaged.  Scores are pre-softmax, so gating by the
    later normalization never hides scale differences between modalities.
    Returns one ``{"layer", "modality", "median"}`` row per decoder layer
    (1-based) and modality, layer-major in ``MODALITIES`` order.  The LM
    runs with no tape recorded.
    """
    ids = np.asarray(text_ids, dtype=np.intp)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise UsageError(
            f"attention_medians needs a [B, T>=1] text batch, got {ids.shape}")
    with T.no_tape():
        vis = mllm.align_vision(mllm.encode_image(
            T.constant(np.asarray(images, dtype=np.float64))))
        x = mllm.embed_from_aligned(vis, ids)
        with T.attention_tap() as taps:
            mllm.forward(x, text_valid)
    n = x.shape[1]
    v0 = mllm.cfg.sys_len
    t0 = v0 + vis.shape[1]
    spans = dict(zip(MODALITIES, ((0, v0), (v0, t0), (t0, n))))
    admitted = np.isfinite(
        np.broadcast_to(mllm.sequence_mask(n, text_valid), taps[0][0].shape))
    rows = []
    for layer, (s, _) in enumerate(taps, start=1):
        b, h = s.shape[:2]
        for name in MODALITIES:
            lo, hi = spans[name]
            per = np.empty((b, h))
            for i in range(b):
                for j in range(h):
                    vals = s[i, j, :, lo:hi][admitted[i, j, :, lo:hi]]
                    if vals.size == 0:
                        raise UsageError(
                            f"batch row {i} admits no {name!r} keys")
                    per[i, j] = np.median(vals)
            rows.append({"layer": layer, "modality": name,
                         "median": float(per.mean())})
    return rows


def write_attention_csv(rows: list[dict], path: str | Path) -> None:
    _write_csv(path, ["layer", "modality", "median"],
               [[r["layer"], r["modality"], repr(r["median"])] for r in rows])


# ---------------------------------------------------------------------------
# adapter-depth ablation sweep
# ---------------------------------------------------------------------------


def layer_sweep(cfg: ExperimentConfig, mllm: MiniMllm, det: GroundingDetector,
                projector_snap: dict[str, np.ndarray],
                train_scenes, val_splits: dict,
                l_lm_values, seeds, progress=None) -> list[dict]:
    """Train one fresh adapter per (l_lm, seed) on the shared backbones.

    Returns one flat row per point: ``l_lm``, ``seed`` and a
    ``"<split>/<metric>"`` column for every grounding metric but
    ``per_scene``.  Depth 0 taps the embedded sequence before any decoder
    layer (the vision-projector-only arm).  Every point's config is built,
    and so checked, before any trains.  All points share one
    frozen-activation cache; each point restores the stage-2 projector, so
    results per point are independent of sweep order and bit-reproducible.
    """
    if projector_snap is None:
        raise UsageError("layer_sweep needs the stage-2 projector snapshot")
    points = [replace(cfg, run_seed=seed,
                      adapter=replace(cfg.adapter, l_lm=l_lm))
              for seed in seeds for l_lm in l_lm_values]
    l_d = cfg.adapter.resolve(mllm.cfg, det.cfg).l_d
    cache = tr.Stage3Cache(mllm, det, train_scenes, l_d, chunk=cfg.eval_chunk)
    rows = []
    for point in points:
        _, report = tr.run_stage3_experiment(
            point, mllm, det, projector_snap, train_scenes, val_splits,
            cache=cache)
        row = {"l_lm": point.adapter.l_lm, "seed": point.run_seed}
        for split, m in report["metrics"].items():
            row.update((f"{split}/{k}", v) for k, v in m.items()
                       if k != "per_scene")
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows


def rank_layers(rows: list[dict]) -> list[tuple[int, float]]:
    """Tap depths ordered best-first by the mean of ``RANK_COLUMN`` across
    seeds."""
    buckets: dict[int, list[float]] = {}
    for r in rows:
        if RANK_COLUMN not in r:
            raise UsageError(f"sweep point has no column {RANK_COLUMN!r}")
        buckets.setdefault(r["l_lm"], []).append(float(r[RANK_COLUMN]))
    means = [(l, float(np.mean(v))) for l, v in buckets.items()]
    return sorted(means, key=lambda kv: (-kv[1], kv[0]))


def write_ablation_csv(rows: list[dict], path: str | Path) -> None:
    cols = sorted({c for r in rows for c in r} - {"l_lm", "seed"})
    _write_csv(path, ["l_lm", "seed"] + cols,
               [[r["l_lm"], r["seed"]]
                + [repr(r[c]) if c in r else "" for c in cols] for r in rows])


# ---------------------------------------------------------------------------
# closed-form cost model of one scene (mirroring the op-level conventions)
# ---------------------------------------------------------------------------


def linear_flops(rows: int, d_in: int, d_out: int) -> int:
    """``Linear`` on ``rows`` input rows."""
    return 2 * rows * d_in * d_out + rows * d_out


def attention_flops(t_q: int, t_k: int, d: int, heads: int,
                    rope: bool = False) -> int:
    """The ``T.attention`` core: optional RoPE, scaled scores, softmax,
    weighted values."""
    f = 3 * t_q * d + 3 * t_k * d if rope else 0
    f += 2 * t_q * d * t_k                        # scores
    f += heads * t_q * t_k                        # 1/sqrt(d_head) scale
    f += 3 * heads * t_q * t_k                    # softmax
    f += 2 * t_q * d * t_k                        # weights @ values
    return f


def memory_attention_flops(t_q: int, t_k: int, d: int, heads: int) -> int:
    """``T.memory_attention``: absorbed queries, the q.b_k term, scores,
    b_k add, scale, softmax, weighted memory, value map, b_v add."""
    f = 2 * t_q * d * d + 2 * t_q * d             # q_h W_k,h^T and q_h . b_k,h
    f += 2 * heads * t_q * d * t_k                # scores over the raw memory
    f += 5 * heads * t_q * t_k                    # b_k add, scale, softmax
    f += 2 * heads * t_q * t_k * d                # weights @ memory
    f += 2 * t_q * d * d + t_q * d                # value map and b_v
    return f


def mha_flops(t_q: int, t_k: int, d: int, heads: int,
              rope: bool = False) -> int:
    """``MultiHeadAttention``: q/k/v projections, the attention core, output
    map."""
    return (2 * linear_flops(t_q, d, d) + 2 * linear_flops(t_k, d, d)
            + attention_flops(t_q, t_k, d, heads, rope))


def _layernorm_flops(rows: int, d: int) -> int:
    return 7 * rows * d + 4 * rows


def _mlp_flops(rows: int, d_in: int, d_hidden: int, d_out: int) -> int:
    return (linear_flops(rows, d_in, d_hidden) + rows * d_hidden
            + linear_flops(rows, d_hidden, d_out))


def _lm_block_flops(n_seq: int, d: int, heads: int) -> int:
    return (_layernorm_flops(n_seq, d)
            + mha_flops(n_seq, n_seq, d, heads, rope=True) + n_seq * d
            + _layernorm_flops(n_seq, d)
            + _mlp_flops(n_seq, d, MLP_RATIO * d, d) + n_seq * d)


def patch_encoder_flops(mcfg: MllmConfig) -> int:
    """Shared frozen patch embedding of one image."""
    h, w = mcfg.grid
    p = h * w
    return 2 * p * mcfg.d_patch * mcfg.d_patch + p * mcfg.d_patch


def detector_forward_flops(dcfg: DetectorConfig, mcfg: MllmConfig) -> int:
    """Detector inference on one scene's encoded patches and its candidate
    text (packed at ``PACK_WIDTH``, one candidate per query): vision/text
    encoders, phrase pooling, the decoder stack, and both heads."""
    d, h, q, w = dcfg.d, dcfg.heads, dcfg.queries, PACK_WIDTH
    gh, gw = mcfg.grid
    p = gh * gw
    f = linear_flops(p, mcfg.d_patch, d) + p * d
    f += (mha_flops(w, w, d, h, rope=True) + w * d
          + _layernorm_flops(w, d))                       # text encoder
    f += 2 * q * w * d                                    # phrase pooling

    def cross(t_k):                                       # MemoryAttention
        return 2 * linear_flops(q, d, d) + memory_attention_flops(q, t_k, d, h)

    per_layer = (_layernorm_flops(q, d) + mha_flops(q, q, d, h) + q * d
                 + _layernorm_flops(q, d) + cross(p) + q * d
                 + _layernorm_flops(q, d) + cross(w) + q * d
                 + _layernorm_flops(q, d)
                 + _mlp_flops(q, d, MLP_RATIO * d, d) + q * d)
    f += dcfg.depth * per_layer
    f += _layernorm_flops(q, d)                           # output norm
    f += _mlp_flops(q, d, d, 4) + q * 4                   # box head
    f += linear_flops(q, d, d)                            # class projection
    f += 2 * q * d * q + q * q                            # candidate logits
    f += 2 * q * d + q                                    # background column
    return f


def prompt_path_flops(mcfg: MllmConfig, acfg: AdapterConfig) -> int:
    """LM-side cost of producing one scene's adapter prompts, on top of the
    shared patch encoding: the vision projector plus ``acfg.l_lm`` decoder
    layers, over the query text as well with text fusion."""
    f = _mlp_flops(mcfg.l_v, mcfg.proj_in, mcfg.proj_hidden, mcfg.d_lm)
    n_seq = (mcfg.sys_len + mcfg.l_v
             + (REPORT_LM_TEXT if acfg.text_fusion else 0))
    return f + acfg.l_lm * _lm_block_flops(n_seq, mcfg.d_lm, mcfg.heads)


def adapter_param_flops(acfg: AdapterConfig, mcfg: MllmConfig,
                        dcfg: DetectorConfig, t_queries: int
                        ) -> tuple[int, int]:
    """(trainable parameter count, FLOPs for one scene's adapter forward).

    ``t_queries`` is the number of rows that attend: decoder queries, or
    detector vision tokens for a vision-fusing adapter.  With text fusion the
    prompts attend over ``REPORT_LM_TEXT`` query tokens.
    """
    d, d_lm, h, k = dcfg.d, mcfg.d_lm, dcfg.heads, CONV_K
    ph, pw = acfg.prompt_grid(mcfg)
    l_v, l, t = mcfg.l_v, ph * pw, t_queries              # l: prompt keys

    params = 4 * (d * d + d) + h                          # wq,wk,wv,out_proj + gate
    flops = 0
    if acfg.text_fusion:
        params += 4 * (d_lm * d_lm + d_lm)
        flops += mha_flops(l_v, REPORT_LM_TEXT, d_lm, mcfg.heads) + l_v * d_lm
    if acfg.fuses_vision:
        params += d_lm * d + d                            # proj_lm
        flops += linear_flops(l_v, d_lm, d)
    else:
        params += d * d_lm * k ** 2 + d
        flops += 2 * d * l * d_lm * k ** 2
        flops += d * l                                    # conv bias add
    # prompt attention with wq and out_proj, tanh(g) and the gate multiply
    flops += mha_flops(t, l, d, h, rope=True) + h + t * d
    if not acfg.fuses_vision:     # self term: its keys, values and add
        flops += (2 * linear_flops(t, d, d)
                  + attention_flops(t, t, d, h, rope=True) + t * d)
    flops += t * d                                        # residual add
    return params, flops


# ---------------------------------------------------------------------------
# cost report: metered + analytic, baseline + additive deltas
# ---------------------------------------------------------------------------


def _even_spans(count: int) -> list[tuple[int, int]]:
    edges = np.linspace(0, PACK_WIDTH, count + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(count)]


def median_latency_ms(fn) -> float:
    """Median wall-clock of ``fn()`` over ``LATENCY_REPEATS`` calls after
    ``LATENCY_WARMUP`` warm-up calls, in milliseconds."""
    for _ in range(LATENCY_WARMUP):
        fn()
    samples = []
    for _ in range(LATENCY_REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(samples))


def compute_report(dcfg: DetectorConfig, mcfg: MllmConfig, acfg: AdapterConfig,
                   measure_latency: bool = False) -> list[dict]:
    """Cost rows for the fused pipeline on the canonical one-scene workload.

    Rows: the detector baseline (shared patch encoder included), additive
    deltas for the adapter and for the LM prompt path, and the fused total.
    Each row carries parameter counts, analytic FLOPs from the configs, and
    independently metered FLOPs from a real forward; the total row's metered
    count comes from one full fused pass, so the additivity of the deltas is
    itself a measured fact rather than an identity of the formulas.  Each
    row's forward is one callable, metered once and, with
    ``measure_latency``, timed as it is (median of warm repetitions, single
    scene); latency is optional because wall-clock is the one column that
    cannot be reproduced from the config alone.  No pass records a tape, so
    latency is the forward alone.
    """
    rng = np.random.default_rng(0)
    mllm = MiniMllm(mcfg, rng)
    det = GroundingDetector(dcfg, mcfg, rng)
    state = FusionState(acfg, mcfg, dcfg, rng)

    images = T.constant(rng.standard_normal((1, 3, mcfg.canvas, mcfg.canvas)) * 0.1)
    det_ids = rng.integers(1, VOCAB, (1, PACK_WIDTH))
    det_valid = np.ones((1, PACK_WIDTH), dtype=bool)
    spans = [_even_spans(dcfg.queries)]
    lm_ids = rng.integers(1, VOCAB, (1, REPORT_LM_TEXT))
    lm_valid = np.ones((1, REPORT_LM_TEXT), dtype=bool)
    q_probe = T.constant(rng.standard_normal((1, dcfg.queries, dcfg.d)))

    def lm_prompts(patches):
        return tr._lm_states(mllm, mllm.align_vision(patches), acfg, lm_ids,
                             lm_valid)

    def detector(patches, hook=None):
        e_txt = det.encode_text(det_ids, det_valid)
        text = (e_txt, det_valid, pool_phrases(e_txt, spans, dcfg.queries))
        return tr._detector_outputs(det, det.encode_vision(patches), text, hook)

    def fused():
        patches = mllm.encode_image(images)
        return detector(patches, FusionHook(state, *lm_prompts(patches)))

    h, w = mcfg.grid
    _, a_adapter = adapter_param_flops(
        acfg, mcfg, dcfg, h * w if acfg.fuses_vision else dcfg.queries)
    # row -> (params, analytic FLOPs); the total is the sum of the deltas
    costs = {
        "detector": (mllm.vision.param_count() + det.param_count(),
                     patch_encoder_flops(mcfg)
                     + detector_forward_flops(dcfg, mcfg)),
        "+adapter": (state.param_count(), a_adapter),
        "+lm-prompts": (
            mllm.projector.param_count() + mllm.sys_embed.size
            + sum(blk.param_count() for blk in mllm.blocks[:acfg.l_lm])
            + (mllm.tok_embed.size if acfg.text_fusion else 0),
            prompt_path_flops(mcfg, acfg)),
    }
    costs["total"] = tuple(map(sum, zip(*costs.values())))

    rows = []
    with T.no_tape():
        patches = mllm.encode_image(images)
        prompts = lm_prompts(patches)
        e_vis = det.encode_vision(patches)
        calls = {
            "detector": lambda: detector(mllm.encode_image(images)),
            "+adapter": lambda: FusionHook(state, *prompts)(q_probe, e_vis),
            "+lm-prompts": lambda: lm_prompts(patches),
            "total": fused,
        }
        for name, fn in calls.items():
            with FlopsMeter() as meter:
                fn()
            params, flops = costs[name]
            rows.append({
                "framework": name, "params": params, "flops_analytic": flops,
                "flops_metered": meter.accumulated,
                "latency_ms": (median_latency_ms(fn) if measure_latency
                               else None)})
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

