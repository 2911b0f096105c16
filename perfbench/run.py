"""fusedet benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload {pretrain,stage3,eval} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run sets up the workload several times
(``setup_s`` is their median), drives the public stage driver for about
``--seconds`` seconds with nothing patched, then runs the correctness checks
outside the timed region and prints every end-to-end metric.  With
``--trace 1`` it sets up once under the span tracer, times an untraced and a
traced window of half the seconds each, and prints the per-layer metrics,
the tracing overhead, the FLOP rows of ``analysis.compute_report`` and a
projection of the full protocol's wall-clock.  The metric names and units
are those of ``BENCHMARK.json``.  The last line of standard output is one
JSON object; the exit code is 0 only when every operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1   # pinned, not inherited; one thread was as fast as two


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import fusedet from this checkout's ``src`` or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fusedet
    if not Path(fusedet.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fusedet imported from {fusedet.__file__}, not {src}")
    return fusedet


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS}


def flop_rows(cfg) -> tuple[dict[str, float], list]:
    """Exact per-scene FLOP counts of ``compute_report`` and one check per
    row that the metered count equals the closed form."""
    from fusedet import analysis
    from workloads import Check
    rows = analysis.compute_report(cfg.detector_config(), cfg.mllm_config(),
                                   cfg.adapter_config(), measure_latency=False)
    names = {"detector": "detector", "+adapter": "adapter",
             "+lm-prompts": "lm_prompts", "total": "total"}
    metrics = {f"analysis.{names[r['framework']]}_flop_per_scene":
               r["flops_metered"] for r in rows}
    checks = [Check(f"compute_report {r['framework']}: metered == analytic",
                    r["flops_metered"] == r["flops_analytic"],
                    f"{r['flops_metered']} vs {r['flops_analytic']}")
              for r in rows]
    return metrics, checks


def run_plain(w, seconds: float) -> tuple[dict, int, int, list, list]:
    from workloads import closed_loop, peak_rss_mb
    setup_s = []
    for _ in range(w.setups):
        t0 = perf_counter()
        w.setup()
        setup_s.append(perf_counter() - t0)
    loop = closed_loop(w, seconds)
    final_loss, checks = w.checks(loop.results)
    metrics = {"samples_per_s": loop.samples_per_s,
               "setup_s": statistics.median(setup_s),
               "peak_rss_mb": peak_rss_mb(), "final_loss": final_loss}
    notes = [f"setup_s each: {setup_s}", f"call seconds: {loop.times}"]
    return metrics, loop.attempted, loop.failed, checks, notes + loop.errors


def run_traced(w, seconds: float) -> tuple[dict, int, int, list, list]:
    from projection import project
    from spans import Tracer, layer_metrics
    from workloads import closed_loop
    setup, window = Tracer(), Tracer()
    with setup.recording():
        w.setup()
    plain = closed_loop(w, seconds / 2)
    with window.recording():
        traced = closed_loop(w, seconds / 2)
    results = {k: plain.results[k] + traced.results[k] for k in w.kinds}
    _, checks = w.checks(results)
    steps = len(window.chunk_s) or sum(len(e) for e in window.step_ends)
    metrics = layer_metrics(window, setup, max(steps, 1))
    metrics["trace.untraced_samples_per_s"] = plain.samples_per_s
    metrics["trace.traced_samples_per_s"] = traced.samples_per_s
    metrics["trace.overhead_samples_per_s"] = (
        traced.samples_per_s - plain.samples_per_s)
    flops, flop_checks = flop_rows(w.cfg)
    metrics.update(flops)
    metrics.update(project(w.cfg, w.plan.window_steps, w.plan.window_scenes,
                           own_figures(w, plain, window)))
    return (metrics, plain.attempted + traced.attempted,
            plain.failed + traced.failed, checks + flop_checks,
            plain.errors + traced.errors)


def own_figures(w, plain, window) -> dict[str, float]:
    """The workload's own untraced figures for the protocol projection."""
    med = {k: statistics.median(v) for k, v in plain.times.items() if v}
    if w.name == "pretrain" and med:
        cv = window.get("training.cache_vision")
        prelude = cv.total_s / cv.calls if cv.calls else 0.0
        return {"pretrain_ms_step": (med["train"] - prelude) * 1e3 / w.steps}
    if w.name == "stage3" and med:
        return {"stage3_ms_step": med["train"] * 1e3 / w.steps}
    if w.name == "eval":
        return {f"eval_{k}_s_per_scene": med[k] / w.scenes_per_call(k)
                for k in ("baseline", "IV") if k in med}
    return {}


def run(workload: str, seed: int, seconds: float, trace: bool, plan) -> dict:
    """One benchmark run; returns the result object (metrics with units)."""
    from workloads import WORKLOADS, make_config
    units = metric_units()["per_layer" if trace else "end_to_end"]
    w = WORKLOADS[workload](make_config(seed, plan), plan)
    runner = run_traced if trace else run_plain
    values, attempted, failed, checks, notes = runner(w, seconds)
    attempted += len(checks)
    failed += sum(not c.ok for c in checks)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    finite = all(m["value"] == m["value"] for m in metrics.values())
    return {"correct": failed == 0 and finite, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "checks": checks, "notes": notes}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pretrain", "stage3", "eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    pin_blas_threads()
    try:
        import_program()
        metric_units()
    except (ImportError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: cannot run here: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 2
    from workloads import Plan
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: closed loop, 1 client")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), Plan())
    for c in result.pop("checks"):
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name} {c.detail}".rstrip())
    for note in result.pop("notes"):
        print(f"note {note}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"metric failed_frac {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
