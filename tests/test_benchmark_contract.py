"""The traced benchmark's view of the program: every function and method
``perfbench/spans.py`` wraps still exists, and a traced forward of each
adapter preset records the per-arch adapter spans the benchmark reports."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
