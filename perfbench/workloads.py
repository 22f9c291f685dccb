"""The four workloads: inputs drawn from the seed, operations, checks.

plan() returns a function rounds(k) that gives the operations of round
k; the worker runs whole rounds until its time is up. An operation's
run() is the only part that is timed; check(output) returns the failed
checks (an empty list when the output is right) and is never timed.
The program is called only through the public functions of its modules,
looked up as module attributes at call time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import layout
import reference


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    work: float            # cells, paths, node-steps or checks
    known_fault: bool = False  # accuracy checks may fail: understated estimate


def _stratified(rng, pool, count):
    """One pool entry from each of `count` contiguous slices of the pool."""
    return [float(rng.choice(part))
            for part in np.array_split(np.asarray(pool), count)]


def _read_table(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return rows[:, 0], rows[:, 1]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

TABLE_COUNTS = {"mwright": 5, "fwright": 4, "green": 4, "drift": 4}
TABULATE_TOL = 1e-10  # the tabulate default; green and drift use 1e-12


def _tables(mw, seed, tmp):
    refs = reference.load_refs()
    rng = np.random.default_rng([seed, 1])
    ops = []
    for fn, count in TABLE_COUNTS.items():
        for nu in _stratified(rng, layout.SEEDED_ORDERS, count):
            t = float(rng.choice(layout.GREEN_TIMES)) if fn == "green" else 1.0
            ops.append(_table_op(mw, refs, fn, nu, t, tmp, len(ops), False))
    for fn in ("mwright", "fwright", "drift"):
        for nu in layout.FIXED_MF_ORDERS:
            ops.append(_table_op(mw, refs, fn, nu, 1.0, tmp, len(ops), True))
    for nu in layout.FIXED_GREEN_ORDERS:
        ops.append(_table_op(mw, refs, "green", nu, 1.0, tmp, len(ops), True))
    for nu in layout.MLF_ORDERS:
        ops.append(_mlf_op(mw, refs, nu, os.path.join(tmp, f"mlf_{nu}.csv")))
    return lambda k: ops


def _table_op(mw, refs, fn, nu, t, tmp, idx, fixed):
    """One tabulate call whose column is built on M_nu (or F_nu).

    mwright and green grids are symmetric, drift grids start a little
    below 0 (the density vanishes there), fwright grids start at 0. Green
    tables use alpha = 1 and beta = 2 nu, so a cell is
    M_nu(|x|/sqrt(t)) / (2 sqrt(t)); drift tables use beta = nu at t = 1.
    """
    big_x, h = layout.mf_grid(nu)
    scale, param, extra = 1.0, nu, ["--t", "1"]
    xmin = {"mwright": -big_x, "fwright": 0.0, "green": -big_x,
            "drift": -round(big_x / 8.0 / h) * h}[fn]
    xmax = big_x
    if fn == "green":
        scale, param = math.sqrt(t), 2.0 * nu
        extra = ["--alpha", "1", "--t", repr(t)]
        xmin, xmax, h = xmin * scale, xmax * scale, h * scale
    path = os.path.join(tmp, f"table_{idx}.csv")
    argv = (["tabulate", "--function", fn, "--params", repr(param),
             "--xmin", repr(xmin), "--xmax", repr(xmax),
             "--step", repr(h), "--out", path] + extra)
    grid = np.arange(xmin, xmax + 0.5 * h, h)
    samples = {layout.key(x) for x in layout.mf_samples(nu)}
    tol = TABULATE_TOL if fn in ("mwright", "fwright") else 1e-12
    m_refs = refs["M"][layout.key(nu)]
    f_refs = refs["F"][layout.key(nu)]
    coef = 0.5 / scale if fn == "green" else 1.0

    def run():
        return mw.cli.main(argv), path

    def check(out):
        rc, p = out
        if rc != 0:
            return [f"exit code {rc}"]
        xs, ys = _read_table(p)
        if not np.array_equal(xs, grid):
            return ["x column differs from the requested grid"]
        fails = []
        if np.any(ys < 0.0):
            fails.append(f"negative cell {ys.min():.3e}")
        if fn == "drift" and np.any(ys[xs < 0.0] != 0.0):
            fails.append("drift density nonzero at x < 0")
        for x, y in zip(xs, ys):
            r = abs(x) / scale
            k = layout.key(r)
            if k not in samples or (fn == "drift" and x < 0.0):
                continue
            est = mw.specfun.m_wright(nu, r, tol).abs_err_estimate
            if fn == "fwright":
                ref, est = f_refs[k], nu * r * est
            else:
                ref, est = coef * m_refs[k], coef * est
            if not reference.within(float(y), ref, est):
                fails.append(f"accuracy: x={x}: {float(y)!r} vs reference "
                             f"{ref!r} (abs_err_estimate {est:.2e})")
        return fails

    return Op(f"{fn}({param:.4g})", run, check, float(grid.size),
              known_fault=fixed)


def _mlf_op(mw, refs, nu, path):
    argv = ["tabulate", "--function", "mlf", "--params", repr(nu),
            "--xmin", "0", "--xmax", repr(layout.MLF_SMAX),
            "--step", repr(layout.MLF_STEP), "--out", path]
    grid = np.array(layout.mlf_samples())
    row = refs["E"][layout.key(nu)]

    def run():
        return mw.cli.main(argv), path

    def check(out):
        rc, p = out
        if rc != 0:
            return [f"exit code {rc}"]
        ss, es = _read_table(p)
        if not np.array_equal(ss, grid):
            return ["s column differs from the requested grid"]
        fails = []
        if np.any(np.diff(es) > 0.0):
            fails.append("E_nu(-s) increases somewhere")
        if not np.all((es > 0.0) & (es <= 1.0)):
            fails.append("E_nu(-s) outside (0, 1]")
        for s, e in zip(ss, es):
            est = mw.specfun.mittag_leffler_neg(
                nu, s, TABULATE_TOL).abs_err_estimate
            ref = row[layout.key(s)]
            if not reference.within(float(e), ref, est):
                fails.append(f"accuracy: s={s}: {float(e)!r} vs reference "
                             f"{ref!r} (abs_err_estimate {est:.2e})")
        return fails

    # the known fault: at these orders abs_err_estimate is understated
    known = nu in (0.9, 0.95)
    return Op(f"mlf({nu})", run, check, float(grid.size), known_fault=known)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

ENS_PATHS = 8192
ENS_TIMES = np.arange(1, 33) / 32.0
ENS_PREFIX = 1000
ENS_BETA_STRATA = ((0.1, 0.3125), (0.3125, 0.525), (0.525, 0.7375),
                   (0.7375, 0.95))  # one operation per stratum per round
ENS_Z = 6.0
SUBTIMES = ((31,), (7, 31), (3, 11, 19, 27))


def _ensemble(mw, seed, tmp):
    ggbm = mw.ggbm

    def rounds(k):
        rng = np.random.default_rng([seed, 2, k])
        ops = []
        for j, (lo, hi) in enumerate(ENS_BETA_STRATA):
            alpha = float(rng.uniform(0.2, 1.8))
            beta = float(rng.uniform(lo, hi))
            sample_seed = int(rng.integers(2**31))
            rows = rng.integers(ENS_PATHS, size=len(SUBTIMES))
            ops.append(_ensemble_op(ggbm, alpha, beta, sample_seed, rows,
                                    os.path.join(tmp, f"ens_{k}_{j}")))
        return ops

    return rounds


def _ensemble_op(ggbm, alpha, beta, sample_seed, rows, prefix):
    spec = ggbm.CovSpec(alpha, beta, ENS_TIMES)

    def run():
        ens = ggbm.sample_paths(spec, ENS_PATHS, sample_seed)
        rep = ggbm.ensemble_stats(ens)
        csv_path, json_path = ens.save(prefix)
        with open(f"{prefix}_stats.json", "w") as fh:
            fh.write(rep.to_json())
        dens = []
        for row, idx in zip(rows, SUBTIMES):
            idx = list(idx)
            times, xs = ENS_TIMES[idx], ens.paths[row, idx]
            for b in (beta, 1.0):
                q = ggbm.NPointQuery(ggbm.CovSpec(alpha, b, times), xs)
                dens.append((b, times, xs, ggbm.pdf_npoint(q)))
        return ens, rep, csv_path, dens

    def check(out):
        ens, rep, csv_path, dens = out
        fails = []
        with open(csv_path) as fh:
            body = [ln for ln in fh.read().splitlines()
                    if not ln.startswith("#")]
        back = np.array(",".join(body).split(","), dtype=float)
        if not np.array_equal(back.reshape(ens.paths.shape), ens.paths):
            fails.append("CSV does not read back bit-identical")
        prefix = ggbm.sample_paths(spec, ENS_PREFIX, sample_seed)
        if not np.array_equal(prefix.paths, ens.paths[:ENS_PREFIX]):
            fails.append("smaller ensemble is not a prefix")
        want = 2.0 * ENS_TIMES ** alpha / math.gamma(1.0 + beta)
        z_var = np.abs(rep.variance - want) / rep.variance_se
        if z_var.max() > ENS_Z:
            fails.append(f"variance law z={z_var.max():.2f}")
        z_mean = np.abs(rep.mean) / rep.mean_se
        if z_mean.max() > ENS_Z:
            fails.append(f"mean zero z={z_mean.max():.2f}")
        for b, times, xs, p in dens:
            if not (math.isfinite(p) and p > 0.0):
                fails.append(f"pdf_npoint {p!r} at beta={b}")
            elif b == 1.0:
                want_p = reference.fbm_density(alpha, times, xs)
                if abs(p - want_p) > 1e-9 * want_p:
                    fails.append(f"fBm density {p!r} vs {want_p!r}")
        return fails

    return Op(f"ggbm({alpha:.3f},{beta:.3f})", run, check, float(ENS_PATHS))


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------

DIFF_LEVELS = ((401, 128), (801, 256), (1601, 512))
DIFF_HALFWIDTH = 8.0
DIFF_T_END = 0.5
DIFF_SEEDED_PAIRS = 3
DIFF_TAIL = DIFF_HALFWIDTH + 0.05 * np.arange(801)  # G is < 1e-30 past it


def _diffusion(mw, seed, tmp):
    greens = mw.greens
    rng = np.random.default_rng([seed, 3])
    pairs = [(1.0, 1.0)] + [(float(rng.uniform(0.4, 1.6)),
                             float(rng.uniform(0.3, 0.9)))
                            for _ in range(DIFF_SEEDED_PAIRS)]
    cache = {}

    def exact(spec, xs, u0, std):
        """Free-space solution on the grid and the mass absorbed at the edges.

        beta = 1: the Gaussian closed form (the heat solution at alpha = 1).
        beta < 1: the Green function convolved with the sampled data. The
        edges absorb, and the process is Brownian motion run on a random
        clock, so by the reflection principle they remove twice the free
        solution's mass beyond +-H: 2 (2 T(H) - std^2 G'(H)), where T is the
        one-sided tail mass of G and the std^2 term accounts for the width
        of the initial Gaussian.
        """
        key = (spec.alpha, spec.beta, len(xs))
        if key not in cache:
            if spec.beta == 1.0:
                free = reference.gaussian(
                    xs, std * std + 2.0 * DIFF_T_END ** spec.alpha)
            else:
                dx = xs[1] - xs[0]
                offsets = np.arange(-(len(xs) - 1), len(xs)) * dx
                kern = greens.green_density_values(spec, offsets, DIFF_T_END)
                n = len(xs)
                free = (np.convolve(u0, kern) * dx)[n - 1: 2 * n - 1]
            g = greens.green_density_values(spec, DIFF_TAIL, DIFF_T_END)
            slope = (g[1] - g[0]) / (DIFF_TAIL[1] - DIFF_TAIL[0])
            leak = 2.0 * (2.0 * np.trapezoid(g, DIFF_TAIL) - std * std * slope)
            cache[key] = free, float(leak)
        return cache[key]

    def ladder_op(alpha, beta):
        """One pair solved at every resolution of DIFF_LEVELS."""
        spec = greens.GreenSpec(alpha, beta, 1.0)
        grids = []
        for nx, nt in DIFF_LEVELS:
            xs = np.linspace(-DIFF_HALFWIDTH, DIFF_HALFWIDTH, nx)
            std = 5.0 * (xs[1] - xs[0])
            ys = np.exp(-0.5 * (xs / std) ** 2) / (std * math.sqrt(2 * math.pi))
            grids.append((xs, ys, std, nt,
                          mw.GridFunction(xs, ys, f"gaussian std={std}")))

        def run():
            return [greens.solve_volterra(u0, spec, DIFF_T_END, nt,
                                          DIFF_HALFWIDTH)
                    for _, _, _, nt, u0 in grids]

        def check(outs):
            fails, errs = [], []
            for (xs, ys, std, nt, _), out in zip(grids, outs):
                got = np.asarray(out.ys)
                if not np.all(np.isfinite(got)):
                    return [f"non-finite solution at nx={len(xs)}"]
                free, absorbed = exact(spec, xs, ys, std)
                mass = float(np.trapezoid(got, xs))
                if abs(mass - (1.0 - absorbed)) > 1e-6 + 0.05 * absorbed:
                    fails.append(f"nx={len(xs)}: mass {mass:.10f}, expected "
                                 f"{1.0 - absorbed:.10f}")
                errs.append(float(np.trapezoid(np.abs(got - free), xs)))
            if not all(b < a for a, b in zip(errs, errs[1:])):
                fails.append(f"L1 errors {errs} do not fall under refinement")
            return fails

        work = sum((nx - 2) * nt for nx, nt in DIFF_LEVELS)
        return Op(f"solve({alpha:.3f},{beta:.3f})", run, check, float(work))

    ops = [ladder_op(a, b) for a, b in pairs]
    return lambda k: ops


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_CHECKS = {"specfun": 29, "pairs": 9, "fraccalc": 11, "greens": 6,
                 "ggbm": 29}


def _verify(mw, seed, tmp):
    rng = np.random.default_rng([seed, 4])
    order = [str(s) for s in rng.permutation(list(VERIFY_CHECKS))]

    def suite_op(name):
        path = os.path.join(tmp, f"verify_{name}.json")
        argv = ["verify", "--suite", name, "--out", path]

        def run():
            with contextlib.redirect_stderr(io.StringIO()):
                return mw.cli.main(argv), path

        def check(out):
            rc, p = out
            if not os.path.exists(p):
                return [f"exit code {rc} and no report"]
            with open(p) as fh:
                checks = json.load(fh)["suites"][name]
            fails = [f"{c['name']} {c['params']}" for c in checks
                     if not c["passed"]]
            if len(checks) != VERIFY_CHECKS[name]:
                fails.append(f"{len(checks)} checks, expected "
                             f"{VERIFY_CHECKS[name]}")
            if rc != 0:
                fails.append(f"exit code {rc}")
            return fails

        return Op(f"verify({name})", run, check, float(VERIFY_CHECKS[name]))

    ops = [suite_op(n) for n in order]
    return lambda k: ops


BUILDERS = {"tables": _tables, "ensemble": _ensemble,
            "diffusion": _diffusion, "verify": _verify}


def plan(name: str, mw, seed: int, tmp: str) -> Callable[[int], list]:
    """rounds(k) for the named workload; inputs depend on `seed` alone."""
    return BUILDERS[name](mw, seed, tmp)
