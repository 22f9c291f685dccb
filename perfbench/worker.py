"""One workload run in a fresh interpreter; prints its raw result as JSON.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload W --seed N --seconds S --tmp DIR \
        [--rounds R --spans FILE]

--probe times `import mwright` and the first evaluation, which builds the
crossover table. A workload run first finishes that set-up, then runs whole
rounds until --seconds have passed and at least MIN_ROUNDS are done (or
exactly --rounds rounds). With --spans it installs the tracer before the
first round and saves the spans to FILE at the end. run.py starts this
script with PYTHONPATH pointing at the checkout's src/ and single-threaded
BLAS.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import resource
import sys
import time


@functools.lru_cache(maxsize=1)
def _calibration_data():
    import numpy as np

    return (np.linspace(0.1, 1.0, 15),
            np.random.default_rng(0).standard_normal(20_000))


def _dispatch_kernel(small) -> None:
    import numpy as np

    for i in range(100):
        y = np.exp(-small * i) * np.log(small)
        float(np.dot(y, small))


def _stream_kernel(big) -> None:
    import numpy as np

    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    np.cumsum(np.sort(big) ** 2)


CAL_REPS = 5


def calibrate() -> dict:
    """Median times of two fixed kernels, in seconds.

    The host's speed changes by up to half within seconds (other tenants
    share its cores), and not by the same factor for all code: "dispatch"
    (many numpy calls on 15-element arrays, like the quadrature panels)
    and "stream" (a plain Python loop and a sort of 20k doubles, like
    array-at-a-time work) are timed right before and after each measured
    interval, so run.py can tell how fast the machine was during it.
    """
    small, big = _calibration_data()
    out = {}
    for name, kernel, arg in (("dispatch", _dispatch_kernel, small),
                              ("stream", _stream_kernel, big)):
        times = []
        for _ in range(CAL_REPS):
            t0 = time.perf_counter()
            kernel(arg)
            times.append(time.perf_counter() - t0)
        out[name] = sorted(times)[CAL_REPS // 2]
    return out


# verify's first round builds caches the later ones reuse, so three rounds
# keep the median round a warm one
MIN_ROUNDS = 3


def probe() -> dict:
    t0 = time.perf_counter()
    import mwright
    t1 = time.perf_counter()
    mwright.specfun.m_wright(0.25, 1.0)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "crossover_table_s": t2 - t1,
            "cal": calibrate()}


def run_workload(args) -> dict:
    import mwright
    import mwright.cli  # the CLI and verification modules load on demand
    import workloads

    mwright.specfun.m_wright(0.25, 1.0)  # set-up is measured by --probe
    tracer = None
    if args.spans:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install(mwright)
    rounds = workloads.plan(args.workload, mwright, args.seed, args.tmp)
    quiet = tracer.paused if tracer else contextlib.nullcontext

    op_times, op_cal, round_of, unexpected = [], [], [], []
    attempted = failed = 0
    work = 0.0
    begin = time.perf_counter()
    k = 0
    while (k < args.rounds if args.rounds is not None
           else k < MIN_ROUNDS or time.perf_counter() - begin < args.seconds):
        for op in rounds(k):
            cal = calibrate()
            t0 = time.perf_counter()
            try:
                out = op.run()
                err = None
            except Exception as exc:  # recorded as a failed operation
                err = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            after = calibrate()
            op_cal.append({n: 0.5 * (cal[n] + after[n]) for n in cal})
            with quiet():
                try:
                    fails = [f"raised {err}"] if err else op.check(out)
                except Exception as exc:  # a check that cannot run fails
                    fails = [f"check raised {type(exc).__name__}: {exc}"]
            attempted += 1
            op_times.append(dt)
            round_of.append(k)
            work += op.work
            if fails:
                failed += 1
                bad = [f for f in fails if not (
                    op.known_fault and f.startswith("accuracy:"))]
                unexpected += [f"{op.name}: {f}" for f in bad]
        k += 1
    if tracer:
        tracer.save(args.spans)
    return {"workload": args.workload, "rounds": k, "attempted": attempted,
            "failed": failed, "unexpected": unexpected[:20],
            "op_times": op_times, "op_cal": op_cal, "round_of": round_of,
            "work": work, "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--tmp")
    ap.add_argument("--spans")
    args = ap.parse_args()
    result = probe() if args.probe else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
