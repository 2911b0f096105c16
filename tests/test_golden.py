"""Golden fingerprint: the four scene splits, a tiny run through every
training stage, both heads, a two-point layer sweep and the cost table,
compared with the values recorded in ``tests/golden.json``, and the lines
``fusedet gradcheck`` prints at seed 0, compared with their recorded hash.

Only numbers are hashed: each split's images, captions, queries, candidates
and ground truth, losses and final losses, metrics with their per-scene
records, ``module_digest`` values and cost rows, never a config.
The hashes hold bit for bit only on the numpy, scipy and BLAS core they
were recorded with, so each entry in the file is keyed by those three.
Under a key the file does not hold, the run test compares the recorded
final losses and metrics to rtol 1e-9 instead, the gradcheck test requires
every case below ``GRADCHECK_TOL`` instead, and each prints which comparison
ran.

After a change that moves outputs on purpose, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from fusedet import analysis
from fusedet import training as tr
from fusedet.adapter import ARCHS, AdapterConfig
from fusedet.config import ExperimentConfig
from fusedet.detector import DetectorConfig
from fusedet.mllm import MllmConfig
from fusedet.verify import GRADCHECK_TOL, report_lines, run_gradcheck

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-9


def golden_config() -> ExperimentConfig:
    return ExperimentConfig(
        n_pretrain=16, n_train=16, n_val=8,
        pretrain_steps=6, s1_steps=4, s2_steps=4, s3_steps=4, sub_steps=4,
        pretrain_batch=4, s1_batch=4, s2_batch=4, s3_batch=4, sub_batch=4,
        eval_chunk=8, mllm=MllmConfig(n=2), detector=DetectorConfig(depth=2),
        adapter=AdapterConfig(l_lm=1))


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked for this CPU, or
    ``unknown`` where numpy ships no such library."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_char_p
        return get().decode()
    return "unknown"


def platform_key() -> str:
    return f"numpy {np.__version__} / scipy {scipy.__version__} / {blas_core()}"


def _run(report: dict) -> dict:
    return {"losses": report["losses"], "final_loss": report["final_loss"]}


def _values(part: str, numbers: dict) -> dict[str, float]:
    """The final losses and scalar metrics in one part's numbers, by
    slash-joined path."""
    out = {}

    def walk(path, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{path}/{k}", v)
        elif (path.endswith("final_loss")
              or "/metrics/" in path and path.rsplit("/", 1)[1].startswith(
                  ("acc", "mean_iou"))):
            out[path] = value

    walk(part, numbers)
    return out


def scenes_digest(scenes) -> str:
    """SHA-256 over every array a split's scenes carry, each with its shape,
    in scene order."""
    h = hashlib.sha256()
    for s in scenes:
        for arr in (s.image, s.caption, s.query.ids, s.query.target_box,
                    *s.candidates, s.gt_boxes, s.gt_labels):
            h.update(repr(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(s.query.kind.encode())
    return h.hexdigest()


def fingerprint() -> dict[str, dict]:
    """Each part of the tiny run's numbers, by part name."""
    cfg = golden_config()
    mllm, det, reports = tr.prepare_backbones(cfg)
    train = tr.load_split(cfg, "train")
    vals = {split: tr.load_split(cfg, split)
            for split in ("val-category", "val-spatial")}
    stage2 = tr.snapshot(mllm.projector)

    def metrics(**module):
        return {split: tr.evaluate(cfg, mllm, det, scenes, **module)
                for split, scenes in vals.items()}

    parts = {
        "scenes": {split: scenes_digest(tr.load_split(cfg, split))
                   for split in ("pretrain", "train", "val-category",
                                 "val-spatial")},
        "backbones": {
            "runs": {stage: _run(rep) for stage, rep in reports.items()},
            "digests": {"mllm": tr.module_digest(mllm),
                        "detector": tr.module_digest(det)}},
        "baseline": {"metrics": metrics()},
    }
    acfgs = {}
    for arch in ARCHS:
        tr.restore(mllm.projector, stage2)
        state = tr.build_adapter(cfg, arch=arch)
        acfgs[arch] = state.cfg
        init = tr.module_digest(state)
        report = tr.train_stage3(cfg, mllm, det, state, train)
        parts[f"adapter-{arch}"] = {
            "run": _run(report), "metrics": metrics(state=state),
            "digests": {"init": init, "adapter": tr.module_digest(state),
                        "projector": tr.module_digest(mllm.projector)}}
    tr.restore(mllm.projector, stage2)
    sub = tr.build_substitution(cfg, mllm)
    report = tr.train_substitution(cfg, mllm, det, sub, train)
    parts["substitution"] = {
        "run": _run(report), "metrics": metrics(sub=sub),
        "digests": {"substitution": tr.module_digest(sub),
                    "projector": tr.module_digest(mllm.projector)}}
    rows = analysis.layer_sweep(cfg, mllm, det, stage2, train, vals,
                                [0, 1], [0])
    parts["layer-sweep"] = {"metrics": {
        f"l_lm={r['l_lm']} seed={r['seed']}": r for r in rows}}
    parts["compute-report"] = {arch: analysis.compute_report(
        cfg.detector, cfg.mllm, acfg) for arch, acfg in acfgs.items()}
    return parts


def record(parts: dict[str, dict]) -> dict:
    """The file entry for ``parts``: a SHA-256 per part, and the final
    losses and metrics the fallback comparison reads."""
    return {
        "sha256": {part: hashlib.sha256(json.dumps(
            numbers, sort_keys=True).encode()).hexdigest()
            for part, numbers in parts.items()},
        "values": {k: v for part, numbers in parts.items()
                   for k, v in _values(part, numbers).items()},
    }


def gradcheck_digest(results) -> str:
    """SHA-256 over the lines ``fusedet gradcheck`` prints for ``results``."""
    return hashlib.sha256(
        "\n".join(report_lines(results)).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_tiny_run_matches_the_golden_fingerprint(golden):
    got, key = record(fingerprint()), platform_key()
    if key in golden:
        print(f"golden: hashes compared under {key}")
        assert got["sha256"] == golden[key]["sha256"]
        return
    print(f"golden: {key} not recorded (have {sorted(golden)}); final "
          f"losses and metrics compared to rtol {RTOL:g}")
    for want in golden.values():
        assert sorted(got["values"]) == sorted(want["values"])
        for name, value in want["values"].items():
            assert got["values"][name] == pytest.approx(value, rel=RTOL), name


def test_gradcheck_lines_match_the_golden_hash(golden):
    results, key = run_gradcheck(0), platform_key()
    if key in golden:
        print(f"golden: gradcheck hash compared under {key}")
        assert gradcheck_digest(results) == golden[key]["gradcheck"]
        return
    print(f"golden: {key} not recorded; gradcheck hash comparison skipped, "
          f"every case compared to {GRADCHECK_TOL:g}")
    for name, err in results:
        assert err < GRADCHECK_TOL, name


if __name__ == "__main__":
    entry = record(fingerprint())
    entry["gradcheck"] = gradcheck_digest(run_gradcheck(0))
    GOLDEN.write_text(json.dumps({platform_key(): entry},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} for {platform_key()}")
