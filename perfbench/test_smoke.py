"""Smoke test of the benchmark at a tiny config (seconds, not minutes).

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, traced and untraced; that a corrupted input is counted as a
failed operation; and that the command refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import workloads  # noqa: E402  (needs fusedet on the path)

TINY = workloads.Plan(
    pretrain_steps=3, stage3_steps=3, window_steps=3,
    window_scenes=16,
    cfg=dict(n_pretrain=24, n_train=24, n_val=12, pretrain_batch=4,
             s3_batch=4, eval_chunk=8))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_emitted_with_its_unit(workload, trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = run.run(workload, seed=3, seconds=0.01, trace=trace, plan=TINY)
    assert result["correct"], [c for c in result["checks"] if not c.ok]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_corrupted_cache_row_counts_as_failure(monkeypatch):
    class CorruptCache(workloads.Stage3):
        def setup(self):
            super().setup()
            self.cache.evd[self.check_batch()[0]] += 1e-3

    monkeypatch.setitem(workloads.WORKLOADS, "stage3", CorruptCache)
    result = run.run("stage3", seed=3, seconds=0.01, trace=False, plan=TINY)
    failed = [c.name for c in result["checks"] if not c.ok]
    assert failed == ["stage-3 cached loss == naive loss, bitwise"]
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
