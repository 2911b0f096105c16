"""Projected wall-clock of the full default protocol.

This is a projection, not a measurement: no run of the full protocol is
timed.  The protocol is the in-process sequence detector pretrain -> stage 1
-> stage 2 -> stage 3 (Arch IV, cached) with its eval -> substitution with
its eval -> baseline eval, at the config's step counts, split sizes and
batches.  Each stage is priced from a short window of the real driver on a
scene subset: the median optimizer-step time, times the configured steps,
plus the per-scene costs of scene generation, ``cache_vision``, the
``Stage3Cache`` build and evaluation, times the configured scene counts.
The caller may pass figures measured by the workload itself, which replace
the window's figure for that stage.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from time import perf_counter

from fusedet import training as tr
from fusedet.config import ExperimentConfig

from spans import Tracer

STAGES = ("pretrain", "stage1", "stage2", "stage3", "substitution")


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return out, perf_counter() - t0


def _window(tracer: Tracer, fn) -> tuple[float, float]:
    """(median ms per optimizer step, seconds in cache_vision) of one
    driver call."""
    tracer.reset()
    with tracer.recording():
        fn()
    return (statistics.median(tracer.step_ms()),
            tracer.get("training.cache_vision").total_s)


def project(cfg: ExperimentConfig, steps: int, n: int,
            measured: dict[str, float]) -> dict[str, float]:
    """Metrics ``projection.*``: the protocol total in seconds and the
    optimizer-step time of each stage in ms.

    ``steps`` and ``n`` size the windows.  ``measured`` may hold
    ``<stage>_ms_step`` and ``eval_<kind>_s_per_scene`` (kind ``baseline``
    or ``IV``) figures that replace the window's."""
    tracer = Tracer(light=True)
    gen = {}
    for split in ("pretrain", "train", "val-category", "val-spatial"):
        scenes, secs = _timed(lambda: tr.generate_scenes(cfg.data_seed, n, split))
        gen[split] = (scenes, secs / n)
    pre, train = gen["pretrain"][0], gen["train"][0]
    val = gen["val-category"][0][: n // 2] + gen["val-spatial"][0][: n // 2]

    w = replace(cfg, pretrain_steps=steps, s1_steps=steps, s2_steps=steps,
                s3_steps=steps, sub_steps=steps)
    mllm, det = tr.build_models(cfg)
    ms, cv = {}, {}
    ms["pretrain"], cv["pretrain"] = _window(
        tracer, lambda: tr.pretrain_detector(w, mllm, det, pre))
    ms["stage1"], cv["stage1"] = _window(
        tracer, lambda: tr.train_stage1(w, mllm, pre))
    ms["stage2"], cv["stage2"] = _window(
        tracer, lambda: tr.train_stage2(w, mllm, pre))
    state = tr.build_adapter(cfg)
    ms["stage3"], _ = _window(
        tracer, lambda: tr.train_stage3(w, mllm, det, state, train))
    cache_s = tracer.get("training.stage3_cache_build").total_s / n
    sub = tr.build_substitution(cfg, mllm)
    ms["substitution"], cv["substitution"] = _window(
        tracer, lambda: tr.train_substitution(w, mllm, det, sub, train))
    eval_s = {kind: _timed(lambda: tr.evaluate(cfg, mllm, det, val, **kw))[1]
              / len(val)
              for kind, kw in (("baseline", {}), ("IV", {"state": state}),
                               ("substitution", {"sub": sub}))}

    for stage in STAGES:
        ms[stage] = measured.get(f"{stage}_ms_step", ms[stage])
    for kind in eval_s:
        eval_s[kind] = measured.get(f"eval_{kind}_s_per_scene", eval_s[kind])

    n_val = 2 * cfg.n_val
    total = (gen["pretrain"][1] * cfg.n_pretrain + gen["train"][1] * cfg.n_train
             + (gen["val-category"][1] + gen["val-spatial"][1]) * cfg.n_val)
    total += (cfg.pretrain_steps * ms["pretrain"] + cfg.s1_steps * ms["stage1"]
              + cfg.s2_steps * ms["stage2"] + cfg.s3_steps * ms["stage3"]
              + cfg.sub_steps * ms["substitution"]) / 1e3
    total += (cv["pretrain"] + cv["stage1"] + cv["stage2"]) / n * cfg.n_pretrain
    total += (cache_s + cv["substitution"] / n) * cfg.n_train
    total += sum(eval_s.values()) * n_val
    out = {"projection.protocol_s": total}
    out.update({f"projection.{s}_ms_step": ms[s] for s in STAGES})
    return out
