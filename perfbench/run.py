"""Benchmark for mwright: one workload per call, one JSON line of metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout (it needs src/mwright). Every
process it starts is a fresh interpreter with PYTHONPATH=<checkout>/src and
single-threaded BLAS:

1. three set-up probes time `import mwright` and the first evaluation
   (crossover-table build); setup_s is the median of their sums;
2. one untraced worker runs whole rounds of the workload for --seconds and
   checks every output; the end-to-end metrics come from it;
3. with --trace 1, a second worker runs the same rounds with wrappers
   around the program's public functions; the per-layer metrics come
   from its spans, per round, and trace.overhead_s is its wall_s minus
   the untraced wall_s.

Every time is rescaled to a reference machine speed: the worker times a
calibration kernel right before and after each measured interval, and the
interval is multiplied by REFERENCE_CAL_S / (that kernel time).

Temporary files go to <checkout>/.bench_tmp/ and are removed on exit.
The last line of stdout is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "ensemble", "diffusion", "verify")
PROBES = 3
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# typical worker.calibrate() kernel times on the 2-vCPU VM behind the
# README's reference figures, and the kernel whose slowdowns track each
# workload's best (README, "Steadiness")
REFERENCE_CAL_S = {"dispatch": 4.8e-4, "stream": 4.0e-4}
KERNEL = {"setup": "stream", "tables": "dispatch", "ensemble": "stream",
          "diffusion": "stream", "verify": "stream"}

# (metric, span, field); field "self_s" is the span minus its wrapped
# children, "work"/"work2" are the work counts the tracer records
LAYER_METRICS = (
    ("specfun.m_wright_values.self_s", "specfun.m_wright_values", "self_s"),
    ("specfun.m_wright_values.points", "specfun.m_wright_values", "work"),
    ("specfun.m_wright_values.tail_points", "specfun.m_wright_values", "work2"),
    ("specfun.m_wright_values.calls", "specfun.m_wright_values", "calls"),
    ("specfun.m_wright.self_s", "specfun.m_wright", "self_s"),
    ("specfun.m_wright.calls", "specfun.m_wright", "calls"),
    ("greens.drift_green.self_s", "greens.drift_green", "self_s"),
    ("greens.drift_green.calls", "greens.drift_green", "calls"),
    ("specfun.mittag_leffler_neg.self_s", "specfun.mittag_leffler_neg", "self_s"),
    ("specfun.mittag_leffler_neg.calls", "specfun.mittag_leffler_neg", "calls"),
    ("quadrature.adaptive.self_s", "quadrature.adaptive", "self_s"),
    ("quadrature.adaptive.calls", "quadrature.adaptive", "calls"),
    ("quadrature.kronrod_panel.s", "quadrature.kronrod_panel", "s"),
    ("quadrature.kronrod_panel.calls", "quadrature.kronrod_panel", "calls"),
    ("quadrature.integrate_to_inf.calls", "quadrature.integrate_to_inf", "calls"),
    ("oracles.verify_pair.s", "oracles.verify_pair", "s"),
    ("verification.suite_specfun.s", "verification.suite_specfun", "s"),
    ("verification.suite_pairs.s", "verification.suite_pairs", "s"),
    ("verification.suite_fraccalc.s", "verification.suite_fraccalc", "s"),
    ("verification.suite_greens.s", "verification.suite_greens", "s"),
    ("verification.suite_ggbm.s", "verification.suite_ggbm", "s"),
    ("greens.solve_volterra.s", "greens.solve_volterra", "s"),
    ("greens.solve_volterra.node_steps", "greens.solve_volterra", "work"),
    ("greens.green_density_values.self_s", "greens.green_density_values", "self_s"),
    ("greens.green_density_values.points", "greens.green_density_values", "work"),
    ("ggbm.sample_paths.s", "ggbm.sample_paths", "s"),
    ("ggbm.sample_paths.paths", "ggbm.sample_paths", "work"),
    ("ggbm.ensemble_stats.self_s", "ggbm.ensemble_stats", "self_s"),
    ("ggbm.marginal_quantile.s", "ggbm.marginal_quantile", "s"),
    ("ggbm.pdf_npoint.s", "ggbm.pdf_npoint", "s"),
    ("ggbm.pdf_npoint.calls", "ggbm.pdf_npoint", "calls"),
    ("ggbm.PathEnsemble.save.s", "ggbm.PathEnsemble.save", "s"),
    ("ggbm.PathEnsemble.save.bytes", "ggbm.PathEnsemble.save", "work"),
    ("cli.tabulate.self_s", "cli.tabulate", "self_s"),
)


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "bytes" if metric.endswith(".bytes") else "count"


class Runner:
    """Starts the worker processes, each bounded by the run's deadline."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
                     else []))
        for var in BLAS_ENV:
            self.env[var] = "1"

    def worker(self, *args) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run deadline passed")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {args} exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def workload(self, name, seed, seconds, rounds=None, spans=None) -> dict:
        wdir = tempfile.mkdtemp(dir=self.tmp)
        args = ["--workload", name, "--seed", seed, "--seconds", seconds,
                "--tmp", wdir]
        if rounds is not None:
            args += ["--rounds", rounds, "--spans", spans]
        return self.worker(*args)


def _scale(cal: dict, kernel: str) -> float:
    """Factor that rescales a time measured while the calibration kernels
    took `cal` to the reference speed."""
    return REFERENCE_CAL_S[kernel] / cal[kernel]


def _op_times(run: dict) -> list:
    kernel = KERNEL[run["workload"]]
    return [t * _scale(c, kernel)
            for t, c in zip(run["op_times"], run["op_cal"])]


def _rounds(run: dict) -> list:
    """Per-round sums of the run's rescaled operation times."""
    sums = [0.0] * run["rounds"]
    for t, k in zip(_op_times(run), run["round_of"]):
        sums[k] += t
    return sums


def _setup(setup: list, *keys) -> float:
    return statistics.median(sum(p[k] for k in keys)
                             * _scale(p["cal"], KERNEL["setup"])
                             for p in setup)


def end_to_end(setup: list, run: dict) -> dict:
    ops = _op_times(run)
    return {
        "setup_s": (_setup(setup, "import_s", "crossover_table_s"), "s"),
        "wall_s": (statistics.median(_rounds(run)), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "work_per_s": (run["work"] / sum(ops), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(setup: list, plain: dict, traced: dict, spans: Path) -> dict:
    import tracer

    totals = tracer.summarize(spans)
    rounds = traced["rounds"]
    kernel = KERNEL[traced["workload"]]
    span_scale = statistics.median(_scale(c, kernel)
                                   for c in traced["op_cal"])
    out = {"setup.import_s": _setup(setup, "import_s"),
           "setup.crossover_table_s": _setup(setup, "crossover_table_s")}
    for metric, span, field in LAYER_METRICS:
        value = totals[span][field] / rounds
        out[metric] = value * span_scale if _unit(metric) == "s" else value
    out["trace.overhead_s"] = (statistics.median(_rounds(traced))
                               - statistics.median(_rounds(plain)))
    return {m: (v, _unit(m)) for m, v in out.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mwright" / "__init__.py").is_file():
        print(f"error: no mwright sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        runner = Runner(tmp)
        setup = [runner.worker("--probe") for _ in range(PROBES)]
        plain = runner.workload(args.workload, args.seed, args.seconds)
        runs = [plain]
        if args.trace:
            spans = tmp / "spans.npz"
            traced = runner.workload(args.workload, args.seed, args.seconds,
                                     rounds=plain["rounds"], spans=spans)
            runs.append(traced)
            metrics = per_layer(setup, plain, traced, spans)
        else:
            metrics = end_to_end(setup, plain)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    for r in runs:
        for msg in r["unexpected"]:
            print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": all(not r["unexpected"] for r in runs),
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
