"""The three workloads: set-up, the timed closed loop, and the checks.

Every workload calls fusedet's public stage drivers the way a user does.  One
client runs one driver call at a time and starts the next call when the
previous one returns (a closed loop).  Inputs come only from the workload
seed, which becomes ``seed``, ``data_seed`` and ``run_seed`` of the config.

* ``pretrain``: ``pretrain_detector`` with the whole detector trainable, on
  the 2000-scene pretrain split at batch 16.  Tape, loss and optimizer heavy:
  about 1,700 tape nodes a step through all six decoder layers.
* ``stage3``: ``train_stage3(cached=True)`` with a ``Stage3Cache`` built in
  set-up, Arch IV at its defaults (batch 8, 4000-scene train split).  About
  600 tape nodes a step, one decoder layer, the LM prefix and the adapter.
  The cache build lands in set-up time and peak memory.
* ``eval``: ``evaluate`` over val-category plus val-spatial for the baseline
  detector and one adapter per arch preset I-IV, forward only at chunk 64.
  Adapters get seeded non-zero gates and output maps, so the fused path does
  real work.  Tape, loss and optimizer changes should not move this one.
"""

from __future__ import annotations

import itertools
import resource
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from fusedet import training as tr
from fusedet.config import ExperimentConfig

EVAL_KINDS = ("baseline", "I", "II", "III", "IV")
VAL_SPLITS = ("val-category", "val-spatial")


@dataclass
class Plan:
    """How much work one run does.  The smoke test shrinks it."""

    pretrain_steps: int = 64      # optimizer steps per timed pretrain call
    stage3_steps: int = 96        # optimizer steps per timed stage-3 call
    window_steps: int = 8         # steps in each projection window
    window_scenes: int = 128      # scenes behind each projection window
    cfg: dict = field(default_factory=dict)   # ExperimentConfig overrides


def make_config(seed: int, plan: Plan) -> ExperimentConfig:
    return replace(ExperimentConfig(**plan.cfg), seed=seed, data_seed=seed,
                   run_seed=seed)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """One workload.  ``setup()`` builds what the timed calls need;
    ``call(kind)`` runs one driver call of a kind in ``kinds`` and returns
    its result; ``scenes_per_call`` and ``ops_per_call`` size a call;
    ``checks(results)`` returns (final_loss, checks) from the timed calls'
    results, running any extra work outside the timed region."""

    name = ""
    kinds: tuple[str, ...] = ("train",)
    min_calls = 1                 # timed calls of each kind, at least
    setups = 5                    # set-ups per run; setup_s is their median

    def __init__(self, cfg: ExperimentConfig, plan: Plan):
        self.cfg = cfg
        self.plan = plan


class TrainingWorkload(Workload):
    """Shared by ``pretrain`` and ``stage3``: each timed call restores the
    trained modules to their post-set-up snapshot and runs ``steps`` steps,
    so every call computes the same losses."""

    steps = 0
    batch = 0
    min_calls = 2                 # the same-seed check compares two calls

    def scenes_per_call(self, kind):
        return self.steps * self.batch

    def ops_per_call(self, kind):
        return self.steps

    def checks(self, results):
        reports = results[self.kinds[0]]
        if not reports:
            return float("nan"), [Check("a timed call completed", False)]
        first = reports[0]
        finite = all(np.all(np.isfinite(r["losses"])) for r in reports)
        same = all(r["final_loss"] == first["final_loss"]
                   and r["losses"] == first["losses"] for r in reports[1:])
        checks = [
            Check("losses finite", finite),
            Check(f"same seed, same final_loss over {len(reports)} calls",
                  same and len(reports) > 1,
                  f"final_loss {[r['final_loss'] for r in reports]}"),
        ]
        return first["final_loss"], checks


class Pretrain(TrainingWorkload):
    name = "pretrain"

    def setup(self):
        cfg = self.cfg
        self.steps, self.batch = self.plan.pretrain_steps, cfg.pretrain_batch
        self.mllm, self.det = tr.build_models(cfg)
        self.scenes = tr.load_split(cfg, "pretrain")
        self.snap = tr.snapshot(self.det)

    def call(self, kind):
        tr.restore(self.det, self.snap)
        return tr.pretrain_detector(replace(self.cfg, pretrain_steps=self.steps),
                                    self.mllm, self.det, self.scenes)


class Stage3(TrainingWorkload):
    name = "stage3"
    setups = 3                    # each builds a 4000-scene cache (~13 s)

    def setup(self):
        cfg = self.cfg
        self.steps, self.batch = self.plan.stage3_steps, cfg.s3_batch
        self.cache = None                 # free the previous set-up's cache
        self.mllm, self.det = tr.build_models(cfg)
        self.scenes = tr.load_split(cfg, "train")
        self.state = tr.build_adapter(cfg)
        acfg = self.state.cfg
        self.cache = tr.Stage3Cache(self.mllm, self.det, self.scenes, acfg.l_d,
                                    full_decode=acfg.arch == "I",
                                    chunk=cfg.eval_chunk)
        self.snaps = (tr.snapshot(self.mllm.projector), tr.snapshot(self.state))

    def call(self, kind):
        tr.restore(self.mllm.projector, self.snaps[0])
        tr.restore(self.state, self.snaps[1])
        return tr.train_stage3(replace(self.cfg, s3_steps=self.steps), self.mllm,
                               self.det, self.state, self.scenes, cached=True,
                               cache=self.cache)

    def check_batch(self) -> np.ndarray:
        return np.random.default_rng([self.cfg.run_seed, 3]).integers(
            0, len(self.scenes), size=self.cfg.s3_batch)

    def cached_equals_naive(self) -> Check:
        """One batch through the cached and the uncached stage-3 loss, with
        the adapter as the last timed call left it (gates no longer zero)."""
        cfg = self.cfg
        idx = self.check_batch()
        cached = tr.stage3_loss_cached(cfg, self.mllm, self.det, self.state,
                                       self.cache, idx)
        naive = tr.stage3_loss_naive(cfg, self.mllm, self.det, self.state,
                                     [self.scenes[i] for i in idx])
        return Check("stage-3 cached loss == naive loss, bitwise",
                     bitwise_equal(cached.data, naive.data),
                     f"cached {float(cached.data)!r} naive {float(naive.data)!r}")

    def checks(self, results):
        final_loss, checks = super().checks(results)
        return final_loss, checks + [self.cached_equals_naive()]


def open_adapter(state, rng: np.random.Generator) -> None:
    """Seeded non-zero gates and output map, so the fused path cannot be an
    identity."""
    state.gate.data = rng.uniform(0.5, 1.5, state.gate.shape) * rng.choice(
        [-1.0, 1.0], state.gate.shape)
    w = state.out_proj.weight
    w.data = rng.standard_normal(w.shape) / np.sqrt(w.shape[0])


class Eval(Workload):
    name = "eval"
    kinds = EVAL_KINDS

    def setup(self):
        cfg = self.cfg
        self.mllm, self.det = tr.build_models(cfg)
        self.val = {s: tr.load_split(cfg, s) for s in VAL_SPLITS}
        rng = np.random.default_rng([cfg.run_seed, 5])
        self.states = {"baseline": None}
        for arch in EVAL_KINDS[1:]:
            state = tr.build_adapter(cfg, arch=arch)
            open_adapter(state, rng)
            self.states[arch] = state

    def call(self, kind):
        return {s: tr.evaluate(self.cfg, self.mllm, self.det, scenes,
                               state=self.states[kind])
                for s, scenes in self.val.items()}

    def scenes_per_call(self, kind):
        return sum(len(s) for s in self.val.values())

    def ops_per_call(self, kind):
        c = self.cfg.eval_chunk
        return sum(-(-len(s) // c) for s in self.val.values())

    def outputs(self, state):
        """(boxes, logits) of one chunk of val-spatial through ``state``."""
        return tr.grounded_outputs(self.cfg, self.mllm, self.det,
                                   self.val["val-spatial"][: self.cfg.eval_chunk],
                                   state=state)

    def zero_init_identity(self, arch: str, base) -> Check:
        fresh = self.outputs(tr.build_adapter(self.cfg, arch=arch))
        same = all(bitwise_equal(a, b) for a, b in zip(base, fresh))
        return Check(f"fresh arch {arch} adapter == baseline, bitwise", same)

    def checks(self, results):
        """final_loss here is 1 - mean IoU of the grounded answers, over every
        model and split of the first timed call of each kind: the loss of
        the evaluated outputs, deterministic for a seed."""
        firsts = [rs[0] for rs in results.values() if rs]
        ious = [m["mean_iou"] for r in firsts for m in r.values()]
        final_loss = 1.0 - float(np.mean(ious)) if ious else float("nan")
        summary = {k: [{s: (m["acc"], m["mean_iou"]) for s, m in r.items()}
                       for r in rs] for k, rs in results.items()}
        repeat = all(all(r == rs[0] for r in rs) for rs in summary.values())
        base = self.outputs(None)
        opened = self.outputs(self.states["IV"])
        again = self.outputs(self.states["IV"])
        checks = [self.zero_init_identity(a, base) for a in EVAL_KINDS[1:]]
        checks += [
            Check("eval outputs and loss finite",
                  all(np.all(np.isfinite(a)) for a in base + opened)
                  and bool(np.isfinite(final_loss))),
            Check("same seed, same outputs (opened arch IV, one chunk)",
                  all(bitwise_equal(a, b) for a, b in zip(opened, again))),
            Check("repeated evaluate calls agree", repeat),
        ]
        return final_loss, checks


WORKLOADS = {w.name: w for w in (Pretrain, Stage3, Eval)}


@dataclass
class LoopResult:
    samples_per_s: float
    attempted: int
    failed: int
    times: dict[str, list[float]]     # wall seconds per call
    results: dict[str, list]
    errors: list[str]


def closed_loop(w: Workload, seconds: float) -> LoopResult:
    """Cycle through the workload's call kinds until ``seconds`` have passed
    and each kind ran ``w.min_calls`` times.  Throughput is the scenes of one
    call of every kind over the sum of the per-kind median call times, so a
    run that stops part-way through a cycle does not shift the mix.  A call
    that raises counts all its operations as failed; the third failure ends
    the loop."""
    times = {k: [] for k in w.kinds}
    results = {k: [] for k in w.kinds}
    attempted = failed = 0
    errors: list[str] = []
    deadline = perf_counter() + seconds
    for k in itertools.cycle(w.kinds):
        if len(errors) >= 3 or (perf_counter() >= deadline and all(
                len(times[j]) >= w.min_calls for j in w.kinds)):
            break
        ops = w.ops_per_call(k)
        attempted += ops
        t0 = perf_counter()
        try:
            out = w.call(k)
        except (ArithmeticError, ValueError) as e:
            failed += ops
            errors.append(f"{k}: {type(e).__name__}: {e}")
            continue
        times[k].append(perf_counter() - t0)
        results[k].append(out)
    if errors:
        return LoopResult(float("nan"), attempted, failed, times, results, errors)
    scenes = sum(w.scenes_per_call(k) for k in w.kinds)
    secs = sum(statistics.median(times[k]) for k in w.kinds)
    return LoopResult(scenes / secs, attempted, failed, times, results, errors)
