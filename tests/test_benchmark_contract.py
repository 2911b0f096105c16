"""The benchmark's view of the program: every call ``perfbench/`` makes into
``fusedet`` still binds with the same positional and keyword shape, every
function and method ``perfbench/spans.py`` wraps still exists, the object
attributes the benchmark reads and writes are the live ones, and a traced
forward of each adapter preset records the per-arch adapter spans the
benchmark reports."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from fusedet import adapter, analysis
from fusedet.detector import GroundingDetector
from fusedet.adapter import ARCHS
from fusedet.config import ExperimentConfig
from fusedet import training as tr

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


# (callable, positional argument count, keyword names) for each call shape
# in perfbench/workloads.py, perfbench/projection.py, perfbench/run.py and
# perfbench/test_smoke.py; a method's count includes ``self``
CALLS = [
    (tr.build_models, 1, ()),
    (tr.load_split, 2, ()),
    (tr.snapshot, 1, ()),
    (tr.restore, 2, ()),
    (tr.generate_scenes, 3, ()),
    (tr.pretrain_detector, 4, ()),
    (tr.train_stage1, 3, ()),
    (tr.train_stage2, 3, ()),
    (tr.build_adapter, 1, ()),
    (tr.build_adapter, 1, ("arch",)),
    (tr.Stage3Cache, 4, ("full_decode", "chunk")),
    (tr.train_stage3, 5, ()),
    (tr.train_stage3, 5, ("cached", "cache")),
    (tr.stage3_loss_cached, 6, ()),
    (tr.stage3_loss_naive, 5, ()),
    (tr.build_substitution, 2, ()),
    (tr.train_substitution, 5, ()),
    (tr.evaluate, 4, ()),
    (tr.evaluate, 4, ("state",)),
    (tr.evaluate, 4, ("sub",)),
    (tr.grounded_outputs, 4, ("state",)),
    (analysis.compute_report, 3, ("measure_latency",)),
    (ExperimentConfig.mllm_config, 1, ()),
    (ExperimentConfig.detector_config, 1, ()),
    (ExperimentConfig.adapter_config, 1, ()),
    # ExperimentConfig(**Plan.cfg) with the smoke test's plan, TINY
    (ExperimentConfig, 0, ("n_pretrain", "n_train", "n_val", "pretrain_batch",
                           "s3_batch", "eval_chunk")),
    # the fields the benchmark sets through dataclasses.replace
    (ExperimentConfig, 0, ("seed", "data_seed", "run_seed", "pretrain_steps",
                           "s1_steps", "s2_steps", "s3_steps", "sub_steps")),
]


@pytest.mark.parametrize(
    "fn,n_args,keywords", CALLS,
    ids=[f"{fn.__name__}-{n}-{'-'.join(kw) or 'positional'}"
         for fn, n, kw in CALLS])
def test_benchmark_calls_bind(fn, n_args, keywords):
    inspect.signature(fn).bind(*[None] * n_args,
                               **{k: None for k in keywords})


def test_fuse_vision_span_finds_the_state():
    """``spans._arch_of_fuse`` reads a positional ``state`` as the third
    argument of ``fuse_vision``."""
    assert list(inspect.signature(adapter.fuse_vision).parameters)[2] == "state"


def test_every_target_resolves(spans):
    for mod, path, _, _ in spans.TARGETS:
        obj = importlib.import_module(f"fusedet.{mod}")
        for part in path.split("."):
            assert hasattr(obj, part), f"fusedet.{mod}.{path}"
            obj = getattr(obj, part)
        assert callable(obj), f"fusedet.{mod}.{path}"


def test_traced_forward_records_adapter_spans(spans):
    cfg = ExperimentConfig(n_val=2)
    mllm, det = tr.build_models(cfg)
    scenes = tr.load_split(cfg, "val-spatial")
    tracer = spans.Tracer()
    with tracer.recording():
        for arch in ARCHS:
            state = tr.build_adapter(cfg, arch=arch)
            tr.grounded_outputs(cfg, mllm, det, scenes, state=state)
    reported = {s for s in spans.SELF_MS.values() if s.startswith("adapter.")}
    assert len(reported) == 8
    for name in reported:
        assert tracer.get(name).calls == 1, name
    assert tracer.get("training.grounded_outputs").calls == len(ARCHS)
    for name in spans.METERED["adapter.inject"]:
        assert tracer.get(name).flops > 0, name
    # Arch I's step is its vision fusion alone, never an injection
    assert tracer.get("adapter.I.fuse_vision").calls == 1
    assert tracer.get("adapter.I.inject").calls == 0


def test_corrupted_cache_row_moves_the_cached_loss():
    """``perfbench/test_smoke.py`` shifts one ``Stage3Cache.evd`` row and
    expects the cached stage-3 loss to stop matching the naive one."""
    cfg = ExperimentConfig(n_train=4)
    mllm, det = tr.build_models(cfg)
    state = tr.build_adapter(cfg)
    cache = tr.Stage3Cache(mllm, det, tr.load_split(cfg, "train"),
                           state.cfg.l_d)
    idx = np.array([2, 0])
    before = tr.stage3_loss_cached(cfg, mllm, det, state, cache, idx).data
    cache.evd[idx[0]] += 1e-3
    after = tr.stage3_loss_cached(cfg, mllm, det, state, cache, idx).data
    assert before.tobytes() != after.tobytes()


@pytest.mark.parametrize("arch", ARCHS)
def test_adapter_attributes_the_benchmark_reads(spans, monkeypatch, arch):
    """The eval workload opens an adapter through ``FusionState.gate`` and
    ``out_proj.weight`` (``perfbench/workloads.py::open_adapter``), and the
    inject span names its arch from ``FusionHook.state.cfg.arch``."""
    cfg = ExperimentConfig(n_val=2)
    mllm, det = tr.build_models(cfg)
    scenes = tr.load_split(cfg, "val-spatial")
    state = tr.build_adapter(cfg, arch=arch)
    base = tr.grounded_outputs(cfg, mllm, det, scenes, state=state)
    for t in (state.gate, state.out_proj.weight):
        t.data = np.full(t.shape, 0.5)
    hooks = []
    decode = GroundingDetector.decode

    def recording_decode(self, *args, hook=None, **kwargs):
        hooks.append(hook)
        return decode(self, *args, hook=hook, **kwargs)

    monkeypatch.setattr(GroundingDetector, "decode", recording_decode)
    opened = tr.grounded_outputs(cfg, mllm, det, scenes, state=state)
    assert any(a.tobytes() != b.tobytes() for a, b in zip(base, opened))
    assert [spans._arch_of_hook((h,), {}) for h in hooks] == [arch]
